import itertools
import json
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from stokesinv import cli, measures, qstate, stokes
from stokesinv.errors import TOLERANCES


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestStokesCommand:
    def test_bell(self, capsys):
        code, out, _ = run(capsys, "stokes", "--state", "bell:phi+")
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 2
        lab = doc["labeled"]
        assert lab["S_00"] == pytest.approx(1.0)
        assert lab["S_11"] == pytest.approx(1.0)
        assert lab["S_22"] == pytest.approx(-1.0)
        assert lab["S_33"] == pytest.approx(1.0)
        zeros = [v for k, v in lab.items() if k not in ("S_00", "S_11", "S_22", "S_33")]
        assert len(zeros) == 12 and max(abs(v) for v in zeros) < 1e-12

    def test_maximally_mixed_single(self, capsys):
        code, out, _ = run(capsys, "stokes", "--state", "mixed:max:1")
        doc = json.loads(out)
        assert doc["values"] == [1.0, 0.0, 0.0, 0.0]

    def test_ghz3(self, capsys):
        code, out, _ = run(capsys, "stokes", "--state", "ghz:3")
        lab = json.loads(out)["labeled"]
        plus = ["S_000", "S_330", "S_303", "S_033", "S_111"]
        minus = ["S_221", "S_212", "S_122"]
        for k in plus:
            assert lab[k] == pytest.approx(1.0), k
        for k in minus:
            assert lab[k] == pytest.approx(-1.0), k
        rest = [v for k, v in lab.items() if k not in plus + minus]
        assert max(abs(v) for v in rest) < 1e-12

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "stokes", "--state", "mixed:max:1", "--format", "csv")
        rows = dict(line.split(",") for line in out.strip().splitlines())
        assert rows["S_0"] == "1.0"


class TestInvariantCommand:
    def test_w3_pair(self, capsys):
        code, out, _ = run(capsys, "invariant", "--state", "w:3", "--pair", "1,2")
        assert code == 0
        doc = json.loads(out)
        assert doc["invariant"] == pytest.approx(4 / 9, abs=1e-9)

    def test_bell(self, capsys):
        _, out, _ = run(capsys, "invariant", "--state", "bell:phi+")
        doc = json.loads(out)
        assert doc["invariant"] == pytest.approx(1.0, abs=1e-10)
        assert doc["invariant_spinflip"] == pytest.approx(1.0, abs=1e-10)
        assert doc["purity"] == pytest.approx(1.0, abs=1e-10)


class TestMeasuresCommand:
    def test_ghz3(self, capsys):
        _, out, _ = run(capsys, "measures", "--state", "ghz:3")
        doc = json.loads(out)
        assert doc["tau_ABC"] == pytest.approx(1.0, abs=1e-9)
        for pair in ("AB", "AC", "BC"):
            assert doc["C2_" + pair] == pytest.approx(0.0, abs=1e-9)

    def test_two_qubit_report(self, capsys):
        _, out, _ = run(capsys, "measures", "--state", "schmidt:0.9")
        doc = json.loads(out)
        assert doc["tangle"] == pytest.approx(0.36, abs=1e-9)
        assert doc["eof"] == pytest.approx(0.4689955935892812, abs=1e-9)

    def test_pure_input_builds_one_density_matrix(self, capsys, monkeypatch):
        to_density = qstate.PureState.to_density
        calls = []

        def counted(psi):
            calls.append(psi)
            return to_density(psi)

        monkeypatch.setattr(qstate.PureState, "to_density", counted)
        code, _, _ = run(capsys, "measures", "--state", "ghz:4")
        assert code == 0 and len(calls) == 1


class TestFilterCommand:
    def test_schmidt_boost(self, capsys):
        code, out, _ = run(
            capsys, "filter", "--state", "schmidt:0.9", "--ops", "boost:1:a2=0.333333333333333"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["attenuation"] == pytest.approx(0.6, abs=1e-9)
        assert doc["invariant_after_renorm"] == pytest.approx(1.0, abs=1e-9)


class TestEstimatorCommands:
    def test_swapnet_self_flip(self, capsys):
        _, out, _ = run(
            capsys, "swapnet", "--state", "bell:phi+", "--shots", "1000", "--seed", "1"
        )
        doc = json.loads(out)
        assert doc["estimate"] == pytest.approx(1.0)
        assert doc["exact"] == pytest.approx(1.0, abs=1e-10)

    def test_tomo_infinite(self, capsys):
        _, out, _ = run(capsys, "tomo", "--state", "bell:phi+", "--shots", "0")
        doc = json.loads(out)
        assert doc["invariant_hat"] == pytest.approx(1.0, abs=1e-10)

    def test_tomo_w3_draws(self, capsys):
        # pins the draws of one input no golden covers: signed outcome tallies
        # (each value times shots * 3^(n - weight)), digits of qubit 1 first
        code, out, _ = run(capsys, "tomo", "--state", "w:3", "--shots", "1000", "--seed", "7")
        assert code == 0
        doc = json.loads(out)
        pooled = [3 ** sum(d == 0 for d in digits) for digits in itertools.product(range(4), repeat=3)]
        tally = [v * 1000 * p for v, p in zip(doc["stokes_hat"]["values"], pooled)]
        assert [round(t) for t in tally] == [
            27000, 62, 70, 2860, 148, 1992, -28, -6, 66, -14, 1982, 34, 3070, -20, 24, -992,
            106, 1954, -48, -18, 2018, -6, 2, 658, -76, 70, 42, -54, -44, 642, 6, -44,
            184, -118, 2032, 58, -40, 38, 22, -48, 1922, 6, 22, 688, -42, -30, 694, -32,
            3004, -46, -2, -1010, -26, 642, 50, -8, -100, -44, 626, 14, -1010, -4, 38, -1000,
        ]
        assert max(abs(t - round(t)) for t in tally) < 1e-9
        assert doc["invariant_hat"] == 0.0007828395061728888
        assert doc["psd_ok"] is False

    @pytest.mark.parametrize(
        "state_b, estimate, exact, std_error",
        [
            ("bell:phi+", 1.0, 0.9999999999999996, 0.0),
            ("bell:phi-", 0.04200000000000004, 0.0, 0.03159487300180205),
        ],
    )
    def test_swapnet_second_state(self, capsys, state_b, estimate, exact, std_error):
        argv = ["swapnet", "--state", "bell:phi+", "--state-b", state_b, "--shots", "1000"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        assert (doc["estimate"], doc["exact"], doc["std_error"]) == (estimate, exact, std_error)
        assert (doc["shots"], doc["seed"]) == (1000, 0)

    @pytest.mark.parametrize(
        "state_b, code, error", [("ghz:3", 3, "DimensionMismatch"), ("nope", 2, "ParseError")]
    )
    def test_swapnet_bad_second_state(self, capsys, state_b, code, error):
        got, out, err = run(capsys, "swapnet", "--state", "bell:phi+", "--state-b", state_b)
        assert got == code and out == ""
        assert json.loads(err)["error"] == error

    def test_determinism(self, capsys):
        argv = ["tomo", "--state", "ghz:3", "--shots", "200", "--seed", "5"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


class TestStateRoundTrip:
    def test_pure_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "w3.json"
        code, _, _ = run(capsys, "state", "--state", "w:3", "--out", str(path))
        assert code == 0
        _, out, _ = run(capsys, "measures", "--state", str(path))
        assert json.loads(out)["tau_ABC"] == pytest.approx(0.0, abs=1e-8)

    def test_density_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "bell.json"
        run(capsys, "state", "--state", "bell:phi+", "--as-density", "--out", str(path))
        _, out, _ = run(capsys, "invariant", "--state", str(path))
        assert json.loads(out)["invariant"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_pure_document_is_bit_exact(self, n):
        psi = qstate.random_pure(n, 40 + n)
        text = json.dumps(cli.state_to_json(psi))
        back = cli.state_from_json(json.loads(text))
        assert back.amplitudes.tobytes() == psi.amplitudes.tobytes()


def _pairs_by_comprehension(state):
    """The [re, im] document as per-entry Python complex numbers give it."""
    if isinstance(state, qstate.PureState):
        amps = state.amplitudes.tolist()
        return {"n": state.n_qubits, "amplitudes": [[z.real, z.imag] for z in amps]}
    rows = state.matrix.tolist()
    return {"n": state.n_qubits, "matrix": [[[z.real, z.imag] for z in row] for row in rows]}


def _encoder_cases():
    rng = np.random.default_rng(14)
    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    odd = m.copy()
    odd[0, :3] = [complex(-0.0, 1.0), complex(1.0, -0.0), complex(-0.0, -0.0)]
    odd[1, :3] = [complex(np.nan, 2.0), complex(3.0, np.inf), complex(-np.inf, np.nan)]
    amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    pure = qstate.PureState(3, amps[::-2])  # keeps the negative-stride view
    assert pure.amplitudes.strides[0] < 0
    cases = [qstate.DensityMatrix(3, x) for x in (m, np.asfortranarray(m), m.T, odd, odd.T)]
    return cases + [pure, qstate.PureState(1, [complex(-0.0, -0.0), complex(np.nan, -np.inf)])]


@pytest.mark.parametrize("state", _encoder_cases())
def test_state_document_matches_the_comprehension(state):
    assert json.dumps(cli.state_to_json(state)) == json.dumps(_pairs_by_comprehension(state))


class TestParser:
    @pytest.mark.parametrize(
        "command, func, extra",
        [
            ("stokes", cli.cmd_stokes, {}),
            ("invariant", cli.cmd_invariant, {"pair": None}),
            ("measures", cli.cmd_measures, {}),
            ("filter", cli.cmd_filter, {"ops": "boost:1:a2=2"}),
            ("swapnet", cli.cmd_swapnet, {"shots": 10000, "state_b": "flip"}),
            ("tomo", cli.cmd_tomo, {"shots": 1000}),
            ("state", cli.cmd_state, {"as_density": False}),
        ],
    )
    def test_keys_and_defaults(self, command, func, extra):
        argv = [command, "--state", "w:3"] + (["--ops", extra["ops"]] if "ops" in extra else [])
        args = vars(cli.build_parser().parse_args(argv))
        common = {"command": command, "state": "w:3", "seed": 0, "format": "json", "out": None}
        assert args == dict(common, func=func, **extra)

    def test_option_of_another_command(self, capsys):
        code, out, err = run(capsys, "stokes", "--state", "w:3", "--shots", "5")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ParseError"


class TestErrors:
    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "stokes", "--state", "nonsense:abc")
        assert code == 2
        assert json.loads(err)["error"] == "ParseError"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "stokes", "--state", "/no/such/file.json")
        assert code == 2

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "measures", "--state", "mixed:max:3")
        assert code == 3
        assert json.loads(err)["code"] == 3

    def test_numeric_error_code(self, capsys, tmp_path):
        # a non-PSD "density matrix" document must be rejected
        doc = {
            "n": 1,
            "matrix": [[[1.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "invariant", "--state", str(path))
        assert code == 4
        assert json.loads(err)["error"] == "NotPositiveSemidefinite"


_ONE, _ZERO = [1.0, 0.0], [0.0, 0.0]
_EYE = [[_ONE, _ZERO], [_ZERO, _ONE]]


class TestMalformedInput:
    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 1, "amplitudes": [[1.0], [0.0, 0.0]]},
            {"n": 1, "amplitudes": [1.0, 0.0]},
            {"n": "x", "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
            {"n": 1, "matrix": [[[1.0, 0.0], [0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
            {"n": 1, "matrix": [[1.0, 0.0], [0.0, 0.0]]},
            {"n": 1, "matrix": []},
            {"n": 0, "amplitudes": [[1.0, 0.0]]},
            {"n": 1, "amplitudes": [[float("nan"), 0.0], [0.0, 0.0]]},
            {"n": 1, "matrix": [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
            # an n that is not a JSON integer
            {"n": 2.9, "amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]},
            {"n": True, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
            {"n": "1", "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
            # an object in place of an [re, im] pair
            {"n": 1, "amplitudes": [{"re": 1.0}, [0.0, 0.0]]},
            {"n": 1, "matrix": [[{"re": 1.0}, [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
            # an entry of three numbers, and a document with both bodies
            {"n": 1, "amplitudes": [[1.0, 0.0, 5.0], [0.0, 0.0]]},
            {"n": 1, "matrix": [[[1.0, 0.0, 5.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
            {"n": 1, "amplitudes": [_ONE, _ZERO], "matrix": [[_ONE, _ZERO], [_ZERO, _ZERO]]},
            # a JSON boolean in place of a number
            {"n": 1, "amplitudes": [[True, False], _ZERO]},
            {"n": 1, "matrix": [[[True, False], _ZERO], [_ZERO, _ZERO]]},
        ],
    )
    def test_bad_state_document(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "invariant", "--state", str(path))
        assert code == 2
        assert json.loads(err)["code"] == 2
        assert json.loads(err)["error"] in ("ParseError", "BadStateName")

    def test_object_entry_names_the_fault(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1, "amplitudes": [{"re": 1.0, "im": 0.0}, _ZERO]}))
        code, out, err = run(capsys, "invariant", "--state", str(path))
        assert code == 2 and out == ""
        message = json.loads(err)["message"]
        assert "not an [re, im] pair of numbers" in message and "complex()" not in message

    def test_state_document_without_a_state(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 1}))
        code, out, err = run(capsys, "invariant", "--state", str(path))
        assert code == 2 and out == ""
        err = json.loads(err)
        assert err["error"] == "ParseError" and "'amplitudes' or 'matrix'" in err["message"]

    @pytest.mark.parametrize(
        "ops, code",
        [
            ("boost:1:a2=nan", 2),
            ("boost:1:a2=inf", 2),
            ("boost:1:a2=1e-300", 3),
            ("boost:1:b2=2", 2),
            ("boost:x:a2=1", 2),
            ("boost:3:a2=1", 2),
            ("boost:1:a2=2:3", 2),
            ("boost:1:a2=2:", 2),
        ],
    )
    def test_bad_filter(self, capsys, ops, code):
        got, out, err = run(capsys, "filter", "--state", "bell:phi+", "--ops", ops)
        assert got == code and out == ""
        assert json.loads(err)["code"] == code
        assert json.loads(err)["error"] == {2: "ParseError", 3: "OutOfRange"}[code]

    @pytest.mark.parametrize(
        "doc, code, error",
        [
            ({"ops": [[[_ONE, _ZERO], [_ZERO]], _EYE]}, 2, "ParseError"),
            ({"ops": [[[_ONE, _ZERO, _ZERO], [_ZERO, _ONE]], _EYE]}, 2, "ParseError"),
            ({"ops": [[[[10**400, 0], _ZERO], [_ZERO, _ONE]], _EYE]}, 2, "ParseError"),
            ({"ops": [[[{"re": 1.0}, _ZERO], [_ZERO, _ONE]], _EYE]}, 2, "ParseError"),
            ({"ops": 5}, 2, "ParseError"),
            ([1, 2], 2, "ParseError"),
            ({"ops": [[[_ONE, _ZERO, _ZERO], [_ZERO, _ONE, _ZERO], [_ZERO, _ZERO, _ONE]], _EYE]},
             3, "DimensionMismatch"),
            ({"ops": [_EYE]}, 2, "ParseError"),
            ({"ops": [[[[1.0, 0.0, 5.0], _ZERO], [_ZERO, _ONE]], _EYE]}, 2, "ParseError"),
            ({"ops": [[[[True, False], _ZERO], [_ZERO, _ONE]], _EYE]}, 2, "ParseError"),
            ({"ops": [[[[1e200, 0], _ZERO], [_ZERO, [1e200, 0]]], _EYE]}, 3, "OutOfRange"),
        ],
        ids=[
            "ragged-row", "three-entry-row", "huge-integer", "object-entry", "ops-not-a-list",
            "not-an-object", "three-by-three", "one-op-for-two-qubits", "three-number-entry",
            "boolean-entry", "overflowing-determinant",
        ],
    )
    def test_bad_ops_document(self, capsys, tmp_path, doc, code, error):
        path = tmp_path / "ops.json"
        path.write_text(json.dumps(doc))
        got, out, err = run(capsys, "filter", "--state", "bell:phi+", "--ops", str(path))
        assert got == code and out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == error

    def test_non_finite_ops_file(self, capsys, tmp_path):
        path = tmp_path / "ops.json"
        eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        nan = [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        path.write_text(json.dumps({"ops": [nan, eye]}))
        code, out, err = run(capsys, "filter", "--state", "bell:phi+", "--ops", str(path))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ParseError"

    def test_repeated_pair(self, capsys):
        code, out, err = run(capsys, "invariant", "--state", "bell:phi+", "--pair", "1,1")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ParseError"

    @pytest.mark.parametrize("pair", ["1,2,3", "a,b"])
    def test_malformed_pair(self, capsys, pair):
        code, out, err = run(capsys, "invariant", "--state", "ghz:3", "--pair", pair)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ParseError"

    @pytest.mark.parametrize("spec", ["mixed:max:0", "mixed:max:-1", "w:1", "basis:", "basis:012"])
    def test_empty_mixed_state(self, capsys, spec):
        code, _, err = run(capsys, "invariant", "--state", spec)
        assert code == 2
        assert json.loads(err)["error"] == "BadStateName"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["invariant", "measures"])
    def test_overflowing_trace(self, capsys, tmp_path, command):
        doc = {"n": 1, "matrix": [[[1e300, 0], [0, 0]], [[0, 0], [1e300, 0]]]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--state", str(path))
        assert code == 3 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "OutOfRange"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["invariant", "measures"])
    def test_trace_just_below_bound(self, capsys, tmp_path, command):
        t = 0.999 * math.sqrt(sys.float_info.max / 2)
        doc = {"n": 1, "matrix": [[[t, 0], [0, 0]], [[0, 0], [0, 0]]]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--state", str(path))
        assert code == 0 and err == ""

        def refuse(name):
            raise AssertionError("non-finite %s in output" % name)

        doc = json.loads(out, parse_constant=refuse)
        assert doc["purity"] == pytest.approx(t * t)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["invariant", "measures"])
    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 1, "matrix": [[[0.5, 0], [1e308, 0]], [[1e308, 0], [0.5, 0]]]},
            {"n": 1, "matrix": [[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]]},
            # each entry below the entry bound, their sum the trace above it
            {"n": 1, "matrix": [[[9e153, 0], [0, 0]], [[0, 0], [9e153, 0]]]},
        ],
        ids=["off-diagonal", "trace", "trace-sum"],
    )
    def test_overflowing_entry(self, capsys, tmp_path, command, doc):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--state", str(path))
        assert code == 3 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "OutOfRange"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["invariant", "measures"])
    def test_entry_just_below_bound(self, capsys, tmp_path, command):
        x = 0.999 * math.sqrt(sys.float_info.max / 2)
        doc = {"n": 1, "matrix": [[[0.5, 0], [x, 0]], [[x, 0], [0.5, 0]]]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, command, "--state", str(path))
        assert code == 4 and out == ""
        assert json.loads(err)["error"] == "NotPositiveSemidefinite"

    @pytest.mark.parametrize("command", ["swapnet", "tomo"])
    def test_shot_count_beyond_int64(self, capsys, command):
        shots = "10000000000000000000"
        code, out, err = run(capsys, command, "--state", "bell:phi+", "--shots", shots)
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "OutOfRange"

    def test_unwritable_output_path(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "state", "--state", "w:3", "--out", str(path))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ParseError"

    @pytest.mark.parametrize("option", ["--state", "--ops"])
    def test_directory_as_input_file(self, capsys, tmp_path, option):
        argv = ["filter", "--state", "bell:phi+", "--ops", "boost:1:a2=2"]
        argv[argv.index(option) + 1] = str(tmp_path)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ParseError"

    def test_binary_state_file(self, capsys, tmp_path):
        path = tmp_path / "state.bin"
        path.write_bytes(bytes(range(256)))
        code, out, err = run(capsys, "stokes", "--state", str(path))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "ParseError"

    @pytest.mark.parametrize("shots", ["1000", "0"])
    def test_tomography_of_a_zero_trace_state(self, capsys, tmp_path, shots):
        zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"n": 1, "matrix": zero}))
        code, out, err = run(capsys, "tomo", "--state", str(path), "--shots", shots)
        assert code == 3 and out == ""
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "EnsembleAnnihilated"

    def test_file_prefix_is_not_a_state_spec(self, capsys, tmp_path):
        path = tmp_path / "w3.json"
        path.write_text(json.dumps(cli.state_to_json(qstate.w_state(3))))
        code, out, err = run(capsys, "invariant", "--state", "file:" + str(path))
        assert code == 2 and out == ""
        assert json.loads(err)["message"] == "unrecognized state spec %r" % ("file:" + str(path))
        assert run(capsys, "invariant", "--state", str(path))[0] == 0

    def test_pair_of_eleven_qubits(self, capsys):
        code, out, _ = run(capsys, "invariant", "--state", "ghz:11", "--pair", "1,2")
        assert code == 0
        assert json.loads(out)["invariant"] == pytest.approx(0.5, abs=1e-12)


def _near_tolerance_document(n, d=0.45e-8):
    """A density document whose anti-Hermitian residue max |m - m^H| is
    2d (0.9e-8), just inside the "document" tolerance: one real pair
    m[r, c] += d, m[c, r] -= d. It sits where the mirrored entry rho[~r, ~c]
    has the largest imaginary part, which is where it moves the imaginary
    part of the spin-flip sum most; one pair moves each Stokes component's
    imaginary part by at most 2d, inside the "imag_residue" tolerance."""
    rho = qstate.random_mixed(n, 2, 50 + n).matrix.copy()
    r, c = np.unravel_index(np.argmax(np.abs(rho[::-1, ::-1].imag)), rho.shape)
    rho[r, c] += d
    rho[c, r] -= d
    return {"n": n, "matrix": [[[z.real, z.imag] for z in row] for row in rho.tolist()]}


def _document_matrix(doc):
    return np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])


class TestAntiHermitianResidueInsideTolerance:
    """Documents the "document" tolerance accepts are refused by no later
    check: neither by the spin-flip route, which has no imaginary-part check
    of its own, nor by the tighter "psd" tolerance of concurrence."""

    @pytest.mark.parametrize("n", [2, 5])
    def test_invariant_accepted(self, capsys, tmp_path, n):
        doc = _near_tolerance_document(n)
        raw = _document_matrix(doc)
        assert 0.89e-8 <= np.max(np.abs(raw - raw.conj().T)) <= TOLERANCES["document"]
        # the whole signed sum over (r, c) of raw[r, c] raw[~r, ~c] has an
        # imaginary part that an "overlap_imag" check on it would refuse
        sign = qstate.kron_all([np.array([1.0, -1.0])] * n)
        full = complex(np.sum(np.outer(sign, sign) * raw * raw[::-1, ::-1]))
        assert abs(full.imag) / max(1.0, abs(full.real)) > TOLERANCES["overlap_imag"]
        rho = cli.state_from_json(doc)
        m = rho.matrix
        assert np.array_equal(m, m.conj().T)

        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "invariant", "--state", str(path))
        assert code == 0 and err == ""
        want = stokes.hs_overlap(rho, stokes.spin_flip(rho))
        assert abs(json.loads(out)["invariant_spinflip"] - want) <= 1e-13

    @pytest.mark.parametrize("n", [2, 5])
    def test_measures_accepted(self, capsys, tmp_path, n):
        doc = _near_tolerance_document(n)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "measures", "--state", str(path))
        assert code == 0 and err == ""
        got = json.loads(out)
        frobenius_sq = float(np.sum(np.abs(cli.state_from_json(doc).matrix) ** 2))
        assert got["purity"] == pytest.approx(frobenius_sq, abs=1e-13)
        if n == 2:
            raw = _document_matrix(doc)
            hermitian = qstate.DensityMatrix(2, 0.5 * (raw + raw.conj().T))
            assert got["concurrence"] == pytest.approx(measures.concurrence(hermitian), abs=1e-14)


def _ghz_with_eigenvalue(n, x):
    """The n-qubit GHZ projector (phi+ for n = 2) plus x |0..01><0..01|: a
    density document whose least eigenvalue is x."""
    m = np.zeros((2**n, 2**n))
    m[0, 0] = m[0, -1] = m[-1, 0] = m[-1, -1] = 0.5
    m[1, 1] = x
    return {"n": n, "matrix": [[[v, 0.0] for v in row] for row in m.tolist()]}


class TestNegativeEigenvalueInsideTolerance:
    """Documents the "document" PSD tolerance accepts are refused by no later
    PSD check: one whose least eigenvalue lies below -TOLERANCES["psd"] is
    kept as its PSD part, one above it keeps its bits."""

    def test_measures_accepted(self, capsys, tmp_path):
        doc = _ghz_with_eigenvalue(2, -5e-9)
        raw = _document_matrix(doc)
        least = np.linalg.eigvalsh(raw)[0]
        assert TOLERANCES["psd"] < -least <= TOLERANCES["document"]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "measures", "--state", str(path))
        assert code == 0 and err == ""
        vals, vecs = np.linalg.eigh(raw)
        clipped = qstate.DensityMatrix(2, (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T)
        assert json.loads(out)["concurrence"] == pytest.approx(measures.concurrence(clipped), abs=1e-14)
        assert np.linalg.eigvalsh(cli.state_from_json(doc).matrix)[0] >= -TOLERANCES["psd"]

    def test_inside_the_psd_tolerance_keeps_its_bits(self):
        doc = _ghz_with_eigenvalue(2, -5e-11)
        assert np.array_equal(cli.state_from_json(doc).matrix, _document_matrix(doc))


def test_measures_accepts_a_bell_document_at_the_norm_tolerance(capsys, tmp_path):
    """|psi|^2 = 1 + 9.9e-10 passes "amplitude_norm"; its tangle (1 + 9.9e-10)^2
    passes "tangle_range", and its EoF is clamped to 1."""
    a = [float(np.sqrt((1 + 9.9e-10) / 2)), 0.0]
    path = tmp_path / "bell.json"
    path.write_text(json.dumps({"n": 2, "amplitudes": [a, [0.0, 0.0], [0.0, 0.0], a]}))
    code, out, err = run(capsys, "measures", "--state", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["eof"] == 1.0


_COMMAND_FORMS = [
    ["stokes"],
    ["invariant"],
    ["invariant", "--pair", "1,2"],
    ["measures"],
    ["filter", "--ops", "boost:1:a2=2"],
    ["swapnet"],
    ["tomo", "--shots", "0"],
    ["tomo", "--shots", "50"],
    ["state", "--as-density"],
]


def _reader_edge_documents(n):
    """Documents just inside the readers' tolerances: amplitudes with
    |psi|^2 - 1 = +-9.9e-10 ("amplitude_norm" 1e-9), and matrices with least
    eigenvalue -0.99e-8 or anti-Hermitian residue 0.99e-8 ("document" 1e-8)."""
    docs = {}
    for name, psi in (("ghz", qstate.ghz_state(n)), ("random", qstate.random_pure(n, 30 + n))):
        for excess in (9.9e-10, -9.9e-10):
            scaled = qstate.PureState(n, psi.amplitudes * np.sqrt(1.0 + excess))
            docs["%s %+.1e" % (name, excess)] = cli.state_to_json(scaled)
    docs["eigenvalue"] = _ghz_with_eigenvalue(n, -0.99e-8)
    docs["antihermitian"] = _near_tolerance_document(n, 0.495e-8)
    return docs


@pytest.mark.parametrize("n", [2, 3])
def test_reader_edge_documents_sit_at_the_edges(n):
    for kind, doc in _reader_edge_documents(n).items():
        if "amplitudes" in doc:
            amps = np.array([complex(*z) for z in doc["amplitudes"]])
            want = float(kind.split()[1])
            assert abs(np.sum(np.abs(amps) ** 2) - 1.0 - want) < 1e-15, kind
        else:
            raw = _document_matrix(doc)
            gap = np.max(np.abs(raw - raw.conj().T))
            least = np.linalg.eigvalsh(0.5 * (raw + raw.conj().T))[0]
            edge = gap if kind == "antihermitian" else -least
            assert 0.98e-8 < edge <= TOLERANCES["document"], kind


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("argv", _COMMAND_FORMS, ids=" ".join)
def test_no_command_refuses_what_the_reader_accepted(capsys, tmp_path, argv, n):
    """Every command runs on every document the readers accept, except the
    designed refusal of `measures` on a mixed three-qubit state."""
    failed = []
    for kind, doc in _reader_edge_documents(n).items():
        path = tmp_path / (kind + ".json")
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, *argv, "--state", str(path))
        refused = argv == ["measures"] and n == 3 and "matrix" in doc
        if (code, bool(err)) != ((3, True) if refused else (0, False)):
            failed.append((kind, code, err))
        if refused:
            assert json.loads(err)["error"] == "WrongQubitCount"
    assert failed == []


_NAMED = [
    "bell:phi+", "bell:phi-", "bell:psi+", "bell:psi-", "ghz:3", "ghz:4",
    "w:3", "w:4", "schmidt:0.9", "schmidt:0.3", "basis:010", "mixed:max:2",
]


@pytest.mark.parametrize("spec", _NAMED)
def test_density_document_is_the_named_state(capsys, tmp_path, spec):
    """A named state's density-matrix document prints what the name prints."""
    path = str(tmp_path / "d.json")
    assert run(capsys, "state", "--state", spec, "--as-density", "--out", path) == (0, "", "")
    for argv in (
        ["stokes"],
        ["invariant"],
        ["invariant", "--pair", "1,2"],
        ["tomo", "--shots", "100", "--seed", "7"],
    ):
        from_name = run(capsys, *argv, "--state", spec)
        assert from_name[0] == 0
        assert run(capsys, *argv, "--state", path) == from_name


def _limit_address_space():
    limit = 2 * 1024**3
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _run_limited(*argv):
    """The CLI in a child process: an allocation that slips past a size guard
    fails fast under the child's address-space limit."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "stokesinv.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_limit_address_space,
    )


class TestSizeGuard:
    @pytest.mark.parametrize("spec", ["ghz:40", "w:40", "mixed:max:40", "basis:" + "0" * 40])
    def test_refused_before_allocation(self, spec):
        proc = _run_limited("invariant", "--state", spec)
        assert proc.returncode == 3 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "OutOfRange"

    @pytest.mark.parametrize(
        "spec, code, error",
        [
            ("ghz:100000000000", 3, "OutOfRange"),
            ("w:100000000000", 3, "OutOfRange"),
            ("mixed:max:100000000000", 3, "OutOfRange"),
            ({"n": 100000000000, "matrix": []}, 2, "BadStateName"),
            ({"n": 100000000000, "amplitudes": []}, 2, "BadStateName"),
        ],
        ids=["ghz", "w", "mixed", "matrix-document", "amplitudes-document"],
    )
    def test_huge_qubit_count_refused_in_process(self, capsys, tmp_path, spec, code, error):
        # refused from n alone: no 2^n or 4^n integer is formed on the way
        if isinstance(spec, dict):
            path = tmp_path / "huge.json"
            path.write_text(json.dumps(spec))
            spec = str(path)
        got, out, err = run(capsys, "stokes", "--state", spec)
        assert got == code and out == ""
        assert json.loads(err)["error"] == error

    @pytest.mark.parametrize("command", ["stokes", "invariant", "measures"])
    def test_allocation_failure_is_out_of_range(self, command):
        # the 1 GiB density matrix fits under the limit, the next 1 GiB does not
        proc = _run_limited(command, "--state", "ghz:13")
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr)["error"] == "OutOfRange"

    def test_tomography_refused_before_allocation(self):
        # 292 GiB (24*6^13 bytes) of probability tensors, refused before the
        # 1 GiB density matrix is built
        proc = _run_limited("tomo", "--state", "ghz:13", "--shots", "0")
        assert proc.returncode == 3 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert json.loads(proc.stderr)["error"] == "OutOfRange"
