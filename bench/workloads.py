"""The benchmark's workloads.

Each workload is a pair of functions. `make(seed, tr)` builds the list of
items from the seed alone; the benchmark cycles through that list.
`run(item, tr)` takes one item through the library and checks every output,
raising ItemFailed on a mismatch. Every call into stokesinv goes through
`tr.call`, so spans and failures are charged to the layer that was called.
The library is always looked up through its module (`stokes.stokes_tensor`),
so a test can wrap a function in place.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import stokesinv  # noqa: E402
from stokesinv import estimator, measures, qstate, slocc, stokes  # noqa: E402
from spans import ItemFailed  # noqa: E402

if Path(stokesinv.__file__).resolve().parent != ROOT / "src" / "stokesinv":
    raise ImportError("stokesinv was not imported from %s" % (ROOT / "src"))

# Every library function the workloads call, as `<layer>.<function>`; the
# traced run reports calls and busy time for each, zero where unused.
FUNCTIONS = (
    "qstate.random_mixed",
    "qstate.random_pure",
    "qstate.random_sl2c",
    "qstate.partial_trace",
    "stokes.stokes_tensor",
    "stokes.density_from_stokes",
    "stokes.minkowski_invariant",
    "stokes.euclidean_purity",
    "stokes.invariant_via_spinflip",
    "stokes.spin_flip",
    "slocc.LocalOperation",
    "slocc.apply_local_to_density",
    "slocc.lorentz_of",
    "slocc.apply_lorentz_to_stokes",
    "slocc.filter_state",
    "measures.measure_report",
    "measures.concurrence",
    "measures.ckw_report",
    "estimator.tomography_simulate",
    "estimator.swap_network_estimate",
    "cli.stokes",
    "cli.invariant",
    "cli.measures",
    "cli.filter",
    "cli.swapnet",
    "cli.tomo",
    "cli.state",
)

# Statistical checks accept an estimate within Z_MAX standard errors.
Z_MAX = 6.0


def _subseed(rng) -> int:
    return int(rng.integers(2**32))


def _expect_close(layer, what, got, want, tol):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if not err <= tol:
        raise ItemFailed(layer, "%s off by %.3g (tolerance %.3g)" % (what, err, tol))


def _dense(tr, fn, arg):
    """A Stokes-layer call on an n-qubit argument: one dense pass over 4^n
    complex entries, 16 * 4^n bytes (computed, not measured)."""
    tr.count("stokes.bytes_computed", 16 * 4**arg.n_qubits)
    return tr.call(fn, arg)


# ---------------------------------------------------------------------------
# stokes_dense: 9-qubit mixed states through the whole Stokes picture.
# rho is 4 MB, larger than a core's L2, and the dense kernels do nearly all
# the work. Small states cut from it then take the pair-level measures,
# tomography and the swap network, so that every in-process layer is on
# this workload.

DENSE_N = 9
DENSE_STATES = 8
DENSE_ITEMS = 64
TOMO_SHOTS = 1000
SWAP_SHOTS = 100_000


def make_stokes_dense(seed, tr):
    rng = np.random.default_rng(seed)
    states = [
        tr.call(qstate.random_mixed, DENSE_N, int(rng.integers(1, 5)), _subseed(rng))
        for _ in range(DENSE_STATES)
    ]
    items = []
    for i in range(DENSE_ITEMS):
        mats = [tr.call(qstate.random_sl2c, _subseed(rng)) for _ in range(DENSE_N)]
        items.append((
            states[int(rng.integers(DENSE_STATES))],
            tr.call(slocc.LocalOperation, mats),
            tr.call(slocc.LocalOperation, mats[:2]),
            tr.call(qstate.random_pure, 3, _subseed(rng)),
            i % 2 == 1,  # tomography in infinite-shot mode on odd items
            _subseed(rng),
            _subseed(rng),
        ))
    return items


def _filter_both_ways(rho, s, ops, tr):
    """The same SL(2,C) filter in the density picture and the Lorentz
    picture; returns the filtered Stokes tensor."""
    filtered = tr.call(slocc.apply_local_to_density, rho, ops)
    s_filtered = _dense(tr, stokes.stokes_tensor, filtered)
    lorentz = [tr.call(slocc.lorentz_of, a) for a in ops.ops]
    s_lorentz = tr.call(slocc.apply_lorentz_to_stokes, s, lorentz)
    scale = max(1.0, float(np.max(np.abs(s_filtered.values))))
    _expect_close(
        "slocc",
        "filtered Stokes tensor vs Lorentz-transformed one",
        s_lorentz.values,
        s_filtered.values,
        1e-9 * scale,
    )
    return s_filtered


def _reduced(rho, k, tr):
    """partial_trace to qubits 1..k, checked against a reshape-and-trace."""
    out = tr.call(qstate.partial_trace, rho, list(range(1, k + 1)))
    keep, rest = 2**k, 2 ** (rho.n_qubits - k)
    want = rho.matrix.reshape(keep, rest, keep, rest).trace(axis1=1, axis2=3)
    _expect_close("qstate", "partial trace to qubits 1..%d" % k, out.matrix, want, 1e-12)
    return out


def run_stokes_dense(item, tr):
    rho, ops, pair_ops, psi, infinite, tomo_seed, swap_seed = item
    n, m = rho.n_qubits, rho.matrix
    s = _dense(tr, stokes.stokes_tensor, rho)
    back = _dense(tr, stokes.density_from_stokes, s)
    _expect_close("stokes", "density_from_stokes round trip", back.matrix, m, 1e-10)
    mink = _dense(tr, stokes.minkowski_invariant, s)
    flip = _dense(tr, stokes.invariant_via_spinflip, rho)
    _expect_close("stokes", "Minkowski invariant vs spin flip", mink, flip, 1e-10)
    purity = float(np.vdot(m, m).real)
    eucl = _dense(tr, stokes.euclidean_purity, s)
    _expect_close("stokes", "Euclidean norm vs purity", eucl, purity, 1e-10)

    rep = tr.call(measures.measure_report, rho)
    legs = s.values.reshape((4,) * n)
    pol = [
        float(np.sum(legs[(0,) * k + (slice(1, 4),) + (0,) * (n - k - 1)] ** 2))
        for k in range(n)
    ]
    _expect_close(
        "measures",
        "measure_report vs Stokes tensor",
        [rep.purity, rep.stokes_scalar, *rep.per_qubit_polarization_sq],
        [purity, mink, *pol],
        1e-10,
    )

    _filter_both_ways(rho, s, ops, tr)
    _run_pair(_reduced(rho, 2, tr), pair_ops, tr)
    _run_estimators(_reduced(rho, 3, tr), infinite, tomo_seed, swap_seed, tr)
    # ckw_report raises IdentityViolation itself when a monogamy residual is off.
    ckw = tr.call(measures.ckw_report, psi)
    if not all(np.isfinite(v) for v in ckw.values()):
        raise ItemFailed("measures", "ckw_report has a non-finite entry")


def _run_pair(rho, ops, tr):
    m = rho.matrix
    c = tr.call(measures.concurrence, rho)
    _expect_close("measures", "concurrence vs textbook route", c, oracles.concurrence_bruteforce(m), 1e-6)
    rep = tr.call(measures.measure_report, rho)
    purity = float(np.vdot(m, m).real)
    _expect_close("measures", "pair measure_report", [rep.concurrence, rep.purity], [c, purity], 1e-10)

    fr = tr.call(slocc.filter_state, rho, ops)
    full = np.kron(ops.ops[0], ops.ops[1])
    att = float(np.trace(full @ m @ full.conj().T).real)
    want = [att, rep.stokes_scalar, rep.stokes_scalar / att**2]
    got = [fr.attenuation, fr.invariant_before, fr.invariant_after_renorm]
    _expect_close("slocc", "filter_state report", got, want, 1e-9 * max(1.0, abs(want[2])))


def _leg_weights(n):
    """Number of non-identity legs of each flattened Stokes index."""
    idx = np.arange(4**n)
    return sum(((idx >> (2 * k)) & 3) != 0 for k in range(n))


def _run_estimators(rho, infinite, tomo_seed, swap_seed, tr):
    n, m = rho.n_qubits, rho.matrix
    s = _dense(tr, stokes.stokes_tensor, rho).values
    tr.count("estimator.settings", 3**n)
    if infinite:
        res = tr.call(estimator.tomography_simulate, rho, 0, tomo_seed, True)
        _expect_close("estimator", "infinite-shot tomography vs stokes_tensor", res.stokes_hat.values, s, 1e-10)
    else:
        res = tr.call(estimator.tomography_simulate, rho, TOMO_SHOTS, tomo_seed)
        tr.count("estimator.shots", 3**n * TOMO_SHOTS)
        # A weight-w component pools 3^(n-w) settings of TOMO_SHOTS +-1 outcomes.
        samples = TOMO_SHOTS * 3.0 ** (n - _leg_weights(n))
        se = np.sqrt(np.clip(1.0 - s**2, 0.0, None) / samples)
        excess = float(np.max(np.abs(res.stokes_hat.values - s) - Z_MAX * se))
        if not excess <= 1e-12:
            raise ItemFailed("estimator", "finite-shot tomography beyond %g standard errors" % Z_MAX)

    flipped = _dense(tr, stokes.spin_flip, rho)
    exact = float(np.trace(m @ oracles.spin_flip_bruteforce(m, n)).real)
    rep = tr.call(estimator.swap_network_estimate, rho, flipped, SWAP_SHOTS, swap_seed)
    tr.count("estimator.shots", SWAP_SHOTS)
    p0 = 0.5 * (1.0 + exact)
    se = 2.0 * np.sqrt(p0 * (1.0 - p0) / SWAP_SHOTS)
    _expect_close("estimator", "swap-network exact overlap", rep.exact, exact, 1e-10)
    _expect_close("estimator", "swap-network estimate", rep.estimate, exact, Z_MAX * se + 1e-12)


# ---------------------------------------------------------------------------
# filter_dense: 10-qubit mixed states through a random SL(2,C) filter, in the
# density picture and in the Lorentz picture. rho is 16 MB; the work is the
# full Kronecker product and its two products with rho, and the per-leg
# Stokes contractions. It never calls the spin flip, density_from_stokes,
# measure_report or the estimators, so a change to those should not show.

FILTER_N = 10
FILTER_STATES = 4
FILTER_ITEMS = 32


def make_filter_dense(seed, tr):
    rng = np.random.default_rng(seed)
    states = [
        tr.call(qstate.random_mixed, FILTER_N, int(rng.integers(1, 5)), _subseed(rng))
        for _ in range(FILTER_STATES)
    ]
    items = []
    for _ in range(FILTER_ITEMS):
        mats = [tr.call(qstate.random_sl2c, _subseed(rng)) for _ in range(FILTER_N)]
        items.append((states[int(rng.integers(FILTER_STATES))], tr.call(slocc.LocalOperation, mats)))
    return items


def run_filter_dense(item, tr):
    rho, ops = item
    s = _dense(tr, stokes.stokes_tensor, rho)
    s_filtered = _filter_both_ways(rho, s, ops, tr)
    # Det-1 filters leave the Minkowski invariant of the unnormalized state unchanged.
    before = _dense(tr, stokes.minkowski_invariant, s)
    after = _dense(tr, stokes.minkowski_invariant, s_filtered)
    scale = max(1.0, float(np.max(np.abs(s_filtered.values)))) ** 2
    _expect_close("slocc", "Minkowski invariant after a det-1 filter", after, before, 1e-9 * scale)


WORKLOADS = {
    "stokes_dense": (make_stokes_dense, run_stokes_dense),
    "filter_dense": (make_filter_dense, run_filter_dense),
}


# ---------------------------------------------------------------------------
# The CLI, run by the traced run only: each README example and its CSV form
# once, in a fresh `stokesinv` process, output compared byte-for-byte with
# goldens captured from the library at the commit that defined this
# benchmark (regenerate with bench/make_goldens.py).

CLI_DIR = ROOT / ".bench_out" / "cli"
GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
CLI_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

# In order: the `state --out` file is read back by the step after it.
CLI_EXAMPLES = [
    ("stokes", "stokes --state bell:phi+"),
    ("invariant", "invariant --state w:3 --pair 1,2"),
    ("measures", "measures --state ghz:3"),
    ("filter", "filter --state schmidt:0.9 --ops boost:1:a2=0.3333333333"),
    ("swapnet", "swapnet --state bell:phi+ --shots 100000 --seed 7"),
    ("tomo", "tomo --state ghz:3 --shots 10000 --seed 7"),
    ("state-out", "state --state w:3 --out w3.json"),
    ("measures-file", "measures --state w3.json"),
    ("stokes-csv", "stokes --state bell:phi+ --format csv"),
    ("invariant-csv", "invariant --state w:3 --pair 1,2 --format csv"),
    ("measures-csv", "measures --state ghz:3 --format csv"),
    ("filter-csv", "filter --state schmidt:0.9 --ops boost:1:a2=0.3333333333 --format csv"),
    ("swapnet-csv", "swapnet --state bell:phi+ --shots 100000 --seed 7 --format csv"),
    ("tomo-csv", "tomo --state ghz:3 --shots 10000 --seed 7 --format csv"),
]


def run_cli(argv):
    """One `stokesinv` process, run from CLI_DIR."""
    return subprocess.run(
        [sys.executable, "-m", "stokesinv.cli", *argv],
        cwd=CLI_DIR,
        env=CLI_ENV,
        capture_output=True,
        timeout=60,
    )


def cli_output(argv, proc) -> bytes:
    """What a CLI step produced: the `--out` file if it names one, else stdout."""
    if "--out" in argv:
        return (CLI_DIR / argv[argv.index("--out") + 1]).read_bytes()
    return proc.stdout


def cli_items():
    CLI_DIR.mkdir(parents=True, exist_ok=True)
    return [(name, tuple(line.split()), (GOLDEN_DIR / (name + ".txt")).read_bytes()) for name, line in CLI_EXAMPLES]


def run_cli_item(item, tr):
    name, argv, golden = item
    if "--out" in argv:
        (CLI_DIR / argv[argv.index("--out") + 1]).unlink(missing_ok=True)
    proc = tr.call(run_cli, argv, name="cli." + argv[0])
    if proc.returncode != 0 or proc.stderr:
        raise ItemFailed("cli", "%s exited %d: %r" % (name, proc.returncode, proc.stderr[-200:]))
    if "--out" in argv and proc.stdout:
        raise ItemFailed("cli", "%s wrote to stdout as well as --out" % name)
    out = cli_output(argv, proc)
    tr.count("cli.output_bytes", len(out))
    if out != golden:
        raise ItemFailed("cli", "%s output differs from its golden" % name)


# ---------------------------------------------------------------------------
# Per-qubit scaling, measured in the traced run only.


def _scaling_state(n):
    return qstate.random_mixed(n, 2, n)


def _scaling_filter(n):
    return slocc.LocalOperation([qstate.random_sl2c(k) for k in range(n)])


# (function, qubit counts, its arguments for n)
SCALING = [
    (stokes.stokes_tensor, range(6, 11), lambda n: (_scaling_state(n),)),
    (stokes.density_from_stokes, range(6, 11), lambda n: (stokes.stokes_tensor(_scaling_state(n)),)),
    (stokes.invariant_via_spinflip, range(6, 11), lambda n: (_scaling_state(n),)),
    (slocc.apply_local_to_density, range(6, 11), lambda n: (_scaling_state(n), _scaling_filter(n))),
    (measures.measure_report, range(6, 11), lambda n: (_scaling_state(n),)),
    (estimator.tomography_simulate, range(3, 6), lambda n: (_scaling_state(n), TOMO_SHOTS, 0)),
]
