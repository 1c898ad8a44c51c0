import json
import math
import os
import resource
import subprocess
import sys

import pytest

from stokesinv import cli


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
        ],
    )
    def test_bad_state_document(self, capsys, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "invariant", "--state", str(path))
        assert code == 2
        assert json.loads(err)["code"] == 2

    @pytest.mark.parametrize(
        "ops, code",
        [
            ("boost:1:a2=nan", 2),
            ("boost:1:a2=inf", 2),
            ("boost:1:a2=1e-300", 3),
        ],
    )
    def test_bad_filter(self, capsys, ops, code):
        got, out, err = run(capsys, "filter", "--state", "bell:phi+", "--ops", ops)
        assert got == code and out == ""
        assert json.loads(err)["code"] == code

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

    @pytest.mark.parametrize("spec", ["mixed:max:0", "mixed:max:-1"])
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
        ],
        ids=["off-diagonal", "trace"],
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

    def test_pair_of_eleven_qubits(self, capsys):
        code, out, _ = run(capsys, "invariant", "--state", "ghz:11", "--pair", "1,2")
        assert code == 0
        assert json.loads(out)["invariant"] == pytest.approx(0.5, abs=1e-12)


def _limit_address_space():
    limit = 2 * 1024**3
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


class TestSizeGuard:
    @pytest.mark.parametrize("spec", ["ghz:40", "w:40", "mixed:max:40", "basis:" + "0" * 40])
    def test_refused_before_allocation(self, spec):
        # an allocation that slips through fails fast under the child's limit
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "stokesinv.cli", "invariant", "--state", spec],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            preexec_fn=_limit_address_space,
        )
        assert proc.returncode == 3 and proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "OutOfRange"
