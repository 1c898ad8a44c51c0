"""Fuzz test of the command line: argv drawn from a grammar over the seven
commands, run in process through `cli.main`. Every run must exit 0, 2, 3 or
4; a nonzero exit must write exactly one JSON line to stderr, and a zero exit
nothing. Each option is drawn well formed about 9 times in 10 and malformed
otherwise, so most runs reach a command's work. Named states that parse have
n <= 5; larger qubit counts are drawn only huge, so the size guards refuse
them. The derandomized profile comes from conftest.py."""

import collections
import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from stokesinv import cli, qstate  # noqa: E402


def mostly(valid, malformed):
    """`valid` about 9 draws in 10, `malformed` the rest. The malformed branch
    is the last of ten sampled values: Hypothesis favours the first, which
    `st.integers(0, 9)` drew about 1 time in 7."""
    return st.sampled_from(range(10)).flatmap(lambda k: valid if k < 9 else malformed)


# Huge, negative, NaN, infinite, non-integer and zero values, and small ones
# that parse.
NUMBERS = st.one_of(
    st.integers(1, 5).map(str),
    st.sampled_from([
        "0", "-1", "-12", "2.5", "0.3", "nan", "inf", "-inf", "1e300", "",
        "100000000000", "10000000000000000000", "1" + "0" * 40,
    ]),
)
# Input paths, resolved in `files`: two state documents and a filter
# document that parse, and the rest that do not.
PATHS = st.sampled_from([
    "@dir", "@missing", "@binary", "@pure", "@density", "@indefinite", "@object_entry", "@ops", "@ragged_ops",
    "@triple_entry", "@both_bodies", "@triple_ops", "@huge_ops",
])

STATES = mostly(
    st.one_of(
        st.sampled_from(["bell:phi+", "bell:phi-", "bell:psi+", "bell:psi-", "@pure", "@density"]),
        st.integers(2, 5).map("ghz:{}".format),
        st.integers(2, 5).map("w:{}".format),
        st.integers(1, 5).map("mixed:max:{}".format),
        st.sampled_from(["0", "0.1", "0.9", "1"]).map("schmidt:{}".format),
        st.text(alphabet="01", min_size=1, max_size=5).map("basis:{}".format),
    ),
    st.one_of(
        st.sampled_from(["bell:xy", "ghz", "x:1"]),
        NUMBERS.map("ghz:{}".format),
        NUMBERS.map("w:{}".format),
        NUMBERS.map("mixed:max:{}".format),
        NUMBERS.map("schmidt:{}".format),
        st.text(alphabet="012", max_size=5).map("basis:{}".format),
        PATHS,
    ),
)
OPS = mostly(
    st.one_of(st.sampled_from(["0.5", "2", "3"]).map("boost:1:a2={}".format), st.just("@ops")),
    st.one_of(
        st.builds("boost:{}:a2={}".format, NUMBERS, NUMBERS),
        st.sampled_from(["boost:1", "boost:1:b2=2", "boost", "boost:1:a2=2:3"]),
        PATHS,
    ),
)
PAIRS = mostly(
    st.sampled_from(["1,2", "2,1"]),
    st.one_of(st.builds("{},{}".format, NUMBERS, NUMBERS), st.sampled_from(["1", "1,2,3", "a,b"])),
)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["stokes", "invariant", "measures", "filter", "swapnet", "tomo", "state"]))
    argv = [command]
    if draw(st.integers(0, 9)):  # --state is required; leave it out sometimes
        argv += ["--state", draw(STATES)]
    options = {"--out": mostly(st.just("@out"), st.sampled_from(["@dir", "@unwritable"]))}
    if command != "state":  # state writes its JSON document only
        options["--format"] = mostly(st.sampled_from(["json", "csv"]), st.just("xml"))
    if command == "invariant":
        options["--pair"] = PAIRS
    if command == "filter" and draw(st.integers(0, 9)):  # --ops is required
        argv += ["--ops", draw(OPS)]
    if command == "swapnet":
        options["--state-b"] = mostly(st.just("flip"), STATES)
    if command in ("swapnet", "tomo"):  # the commands that draw
        options["--shots"] = mostly(st.integers(1, 2000).map(str), NUMBERS)
    for name in draw(st.lists(st.sampled_from(sorted(options)), unique=True)):
        argv += [name, draw(options[name])]
        if name == "--shots" and draw(st.booleans()):  # --seed only beside the shots it seeds
            argv += ["--seed", draw(mostly(st.integers(0, 2**31).map(str), NUMBERS))]
    if command == "state" and draw(st.booleans()):
        argv.append("--as-density")
    return argv


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Path placeholders: a directory, a missing file, binary data, a pure
    and a density-matrix document, one that is not PSD, one with an object in
    place of an [re, im] pair, one with an entry of three numbers, one with
    both bodies; a filter document, one with a ragged row, one with an entry
    of three numbers, one whose determinant overflows; and outputs."""
    d = tmp_path_factory.mktemp("fuzz")
    (d / "state.bin").write_bytes(bytes(range(256)))
    (d / "pure.json").write_text(json.dumps(cli.state_to_json(qstate.w_state(3))))
    (d / "density.json").write_text(json.dumps(cli.state_to_json(qstate.random_mixed(2, 3, 0))))
    indefinite = [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]
    (d / "indefinite.json").write_text(json.dumps({"n": 1, "matrix": indefinite}))
    (d / "object_entry.json").write_text(json.dumps({"n": 1, "amplitudes": [{"re": 1.0}, [0.0, 0.0]]}))
    (d / "triple_entry.json").write_text(json.dumps({"n": 1, "amplitudes": [[1.0, 0.0, 5.0], [0.0, 0.0]]}))
    both = {"n": 1, "amplitudes": [[1.0, 0.0], [0.0, 0.0]], "matrix": [[[1.0, 0.0], [0.0, 0.0]]] * 2}
    (d / "both_bodies.json").write_text(json.dumps(both))
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    boost = [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    (d / "ops.json").write_text(json.dumps({"ops": [boost, eye]}))
    (d / "ragged_ops.json").write_text(json.dumps({"ops": [[boost[0], boost[1][:1]], eye]}))
    (d / "triple_ops.json").write_text(json.dumps({"ops": [[[[2.0, 0.0, 1.0], [0.0, 0.0]], boost[1]], eye]}))
    huge = [[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e200, 0.0]]]
    (d / "huge_ops.json").write_text(json.dumps({"ops": [huge, eye]}))
    names = {
        "@dir": "", "@missing": "missing.json", "@binary": "state.bin", "@pure": "pure.json",
        "@density": "density.json", "@indefinite": "indefinite.json", "@object_entry": "object_entry.json",
        "@ops": "ops.json", "@ragged_ops": "ragged_ops.json", "@out": "out.txt", "@unwritable": "missing/out.txt",
        "@triple_entry": "triple_entry.json", "@both_bodies": "both_bodies.json", "@triple_ops": "triple_ops.json",
        "@huge_ops": "huge_ops.json",
    }
    return {key: str(d / name) for key, name in names.items()}


@hypothesis.settings(max_examples=200)
@hypothesis.given(argv=argvs())
# the malformed documents, which the drawn argv seldom reach with a state that parses
@hypothesis.example(argv=["invariant", "--state", "@object_entry"])
@hypothesis.example(argv=["filter", "--state", "bell:phi+", "--ops", "@ragged_ops"])
@hypothesis.example(argv=["stokes", "--state", "@both_bodies"])
@hypothesis.example(argv=["filter", "--state", "bell:phi+", "--ops", "@triple_ops"])
@hypothesis.example(argv=["filter", "--state", "bell:phi+", "--ops", "boost:1:a2=2:3"])
@hypothesis.example(argv=["filter", "--state", "bell:phi+", "--ops", "@huge_ops"])
def test_every_exit_is_clean(files, argv):
    argv = [files.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    err = err.getvalue()
    assert code in (0, 2, 3, 4), (argv, err)
    if code == 0:
        assert err == "", argv
    else:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        assert json.loads(err)["code"] == code, argv


@pytest.mark.parametrize("argv", [
    ["tomo", "--state", "bell:phi+", "--seed", "nan"],
    ["tomo", "--state", "bell:phi+", "--shots", "1e300"],
    ["invariant"],
    ["nosuchcommand"],
    [],
])
def test_usage_error_is_one_json_line(capsys, argv):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert json.loads(err)["error"] == "ParseError"


def test_valid_documents_are_accepted(files, capsys):
    # so the fuzz reaches each command's work, not only its refusals
    for key in ("@pure", "@density"):
        assert cli.main(["invariant", "--state", files[key]]) == 0
    assert cli.main(["filter", "--state", "bell:phi+", "--ops", files["@ops"]]) == 0
    assert capsys.readouterr().err == ""


def test_most_draws_reach_the_commands_work(files, monkeypatch):
    # the same derandomized draws as test_every_exit_is_clean, counted: a
    # grammar that mostly draws refusals would leave the commands' work
    # unfuzzed. A filter draw reaches parse_ops when it carries --ops and a
    # --state that parses; over hypothesis seeds 0..19 the least such share
    # was 0.45, and 0.51 with this grammar's `mostly`
    codes, commands, ops = [], [], []
    main, parse_ops = cli.main, cli.parse_ops

    def counted_main(argv):
        commands.append(argv[0] if argv else None)
        codes.append(main(argv))
        return codes[-1]

    def counted_parse_ops(spec, n_qubits):
        ops.append(spec)
        return parse_ops(spec, n_qubits)

    monkeypatch.setattr(cli, "main", counted_main)
    monkeypatch.setattr(cli, "parse_ops", counted_parse_ops)
    test_every_exit_is_clean(files)
    assert codes.count(0) >= len(codes) / 2, collections.Counter(codes)
    assert len(ops) >= commands.count("filter") / 3, (len(ops), commands.count("filter"))
