"""Tests of the benchmark itself. None of them asserts anything about timing."""

import functools
import json
import shutil
import subprocess
import sys
from argparse import Namespace

import numpy as np
import pytest

import run
import workloads
from spans import Tracer
from stokesinv import estimator, measures, slocc, stokes

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _last_json(out):
    return json.loads(out.strip().splitlines()[-1])


@pytest.fixture
def small_filter(monkeypatch):
    """filter_dense on 4 qubits: the same code path, quick enough for a test."""
    monkeypatch.setattr(workloads, "FILTER_N", 4)


def test_untraced_run_emits_the_end_to_end_names(capsys, small_filter, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)
    assert run.main(["--workload", "filter_dense", "--seed", "3", "--seconds", "0.05", "--trace", "0"]) == 0
    res = _last_json(capsys.readouterr().out)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0
    assert list(res["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_traced_run_emits_the_per_layer_names(capsys, small_filter, monkeypatch):
    # Smaller qubit counts and fewer repeats keep the probes quick; the
    # names they report do not depend on either.
    monkeypatch.setattr(workloads, "SCALING", [(fn, range(2, 4), f) for fn, _, f in workloads.SCALING])
    monkeypatch.setattr(run, "CLI_PROBE_REPEATS", 1)
    assert run.main(["--workload", "filter_dense", "--seed", "3", "--seconds", "0.05", "--trace", "1"]) == 0
    res = _last_json(capsys.readouterr().out)
    assert res["correct"]
    assert res["metrics"]["cli.stokes.calls"]["value"] == 2
    assert res["metrics"]["cli.state.calls"]["value"] == 1
    assert list(res["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _flat(x):
    """The arrays and scalars an item is made of, in order."""
    if isinstance(x, (tuple, list)):
        return [y for e in x for y in _flat(e)]
    for attr in ("matrix", "amplitudes", "ops"):
        if hasattr(x, attr):
            return _flat(getattr(x, attr))
    return [np.asarray(x)]


def _same(a, b):
    fa, fb = _flat(a), _flat(b)
    return len(fa) == len(fb) and all(np.array_equal(x, y) for x, y in zip(fa, fb))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_depend_on_the_seed_alone(name):
    make, _ = workloads.WORKLOADS[name]
    first = make(11, Tracer(False))
    assert _same(first, make(11, Tracer(False)))
    assert not _same(first, make(12, Tracer(False)))


def _perturb_density(orig):
    @functools.wraps(orig)
    def wrapped(*args):
        out = orig(*args)
        out.matrix = out.matrix + 1e-6
        return out

    return wrapped


def _perturb_concurrence(orig):
    @functools.wraps(orig)
    def wrapped(*args):
        return orig(*args) + 1e-3

    return wrapped


def _perturb_tomography(orig):
    @functools.wraps(orig)
    def wrapped(*args):
        out = orig(*args)
        out.stokes_hat.values[1] += 0.5
        return out

    return wrapped


def _perturb_lorentz(orig):
    @functools.wraps(orig)
    def wrapped(*args):
        out = orig(*args)
        out.values[-1] += 1e-3
        return out

    return wrapped


def _perturb_cli(orig):
    @functools.wraps(orig)
    def wrapped(argv):
        proc = orig(argv)
        proc.stdout += b" "
        return proc

    return wrapped


# (workload, module, function, wrapper that spoils its result, layer charged)
INJECTIONS = [
    ("stokes_dense", stokes, "density_from_stokes", _perturb_density, "stokes"),
    ("stokes_dense", measures, "concurrence", _perturb_concurrence, "measures"),
    ("stokes_dense", estimator, "tomography_simulate", _perturb_tomography, "estimator"),
    ("filter_dense", slocc, "apply_lorentz_to_stokes", _perturb_lorentz, "slocc"),
]


@pytest.mark.parametrize(
    "name, module, attr, perturb, layer", INJECTIONS, ids=["%s-%s" % (c[0], c[2]) for c in INJECTIONS]
)
def test_a_wrong_output_counts_as_failed(name, module, attr, perturb, layer, small_filter, monkeypatch):
    monkeypatch.setattr(module, attr, perturb(getattr(module, attr)))
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    make, run_item = workloads.WORKLOADS[name]
    args = Namespace(workload=name, seed=5, seconds=0.01)
    metrics, attempted, failures, details = run.end_to_end(args, make, run_item)
    assert attempted >= 2
    assert len(failures) == attempted
    assert {f.layer for f in failures} == {layer}
    assert details["failed_frac"] == 1.0
    assert metrics["ok_frac"][0] == 0.0


def test_a_wrong_cli_output_counts_as_failed(monkeypatch):
    monkeypatch.setattr(workloads, "run_cli", _perturb_cli(workloads.run_cli))
    steps, failures, _ = run.cli_pass(workloads, Tracer(False))
    assert steps == len(workloads.CLI_EXAMPLES)
    assert len(failures) == steps
    assert {f.layer for f in failures} == {"cli"}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(x) for x in range(1, 101)]) == (90.0, 90, 10)
    assert run.tail([float(x) for x in range(1, 26)]) == (15.0, 60, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100, 0)


def test_fails_without_a_result_when_the_library_is_missing():
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "filter_dense", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
