"""stokesinv benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; stokesinv is imported from ./src.
One process drives the library in a closed loop with one caller: each item
starts when the previous one has finished, and every item's output is
checked. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the line before it holds the details
(environment, sample counts, tail percentile, failures).

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 spends the same time running the loop traced and untraced in
alternating blocks (for the tracing overhead), then runs every CLI example
once, traced and checked against its golden, and times the CLI start-up
stages and the per-qubit scaling. It reports the per-layer metrics and
writes every span to .bench_out/.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import LAYERS, ItemFailed, Tracer, span_name  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 9
TAIL_BEYOND = 10
CLI_PROBE_REPEATS = 5
TRACE_BLOCKS = 5
NPROC = len(os.sched_getaffinity(0))


def setup(make, run, seed, tr):
    """Inputs from the seed and one untimed warm-up item (the import has
    happened before). Returns the items and the warm-up's failures."""
    failures = []
    tr.item = -1
    with tr.span("bench.setup"):
        items = make(seed, tr)
        run_item(run, items[0], tr, failures)
    return items, failures


def run_item(run, item, tr, failures):
    with tr.span("bench.item"):
        try:
            run(item, tr)
        except ItemFailed as exc:
            failures.append(exc)
        except Exception as exc:  # a check that could not even run
            failures.append(ItemFailed("bench", "%s: %s" % (type(exc).__name__, exc)))


class LoopResult:
    def __init__(self):
        self.latencies = []
        self.failures = []
        self.elapsed = 0.0


def run_loop(run, items, tr, seconds, res=None) -> LoopResult:
    """Run items in order, one at a time, until `seconds` have passed
    (at least one item). Extends `res` when given, continuing its items."""
    if res is None:
        res = LoopResult()
    start = time.perf_counter()
    deadline = start + seconds
    first = i = len(res.latencies)
    now = start
    while i == first or now < deadline:
        tr.item = i
        run_item(run, items[i % len(items)], tr, res.failures)
        end = time.perf_counter()
        res.latencies.append(end - now)
        now = end
        i += 1
    tr.item = None
    res.elapsed += now - start
    return res


def items_per_s(latencies) -> float:
    """Items completed per second of the timed loop."""
    return len(latencies) / sum(latencies)


def tail(latencies):
    """(value, percentile, samples above it) at the highest whole percentile
    with at least TAIL_BEYOND samples above it, by the nearest-rank rule;
    the maximum when there are too few samples for that."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100, 0
    pct = 100 * (n - TAIL_BEYOND) // n
    rank = -(-pct * n // 100)
    return xs[rank - 1], pct, n - rank


def setup_in_child(workload, seed) -> float:
    out = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": _blas_threads(numpy),
        "nproc": NPROC,
        "caches": _caches(),
    }


def _git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas_threads(numpy):
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _caches() -> dict:
    """Cache sizes of cpu0, read from sysfs: {"L1d": "48K", ...}."""
    out = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (Path(index, f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        out["L%s%s" % (level, {"Data": "d", "Instruction": "i"}.get(kind, ""))] = size
    return out


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics.


def end_to_end(args, make, run) -> tuple:
    tr = Tracer(False)
    items, warm_failures = setup(make, run, args.seed, tr)
    setup_s = time.perf_counter() - T0
    loop = run_loop(run, items, tr, args.seconds)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups = [setup_s] + [setup_in_child(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]

    failures = warm_failures + loop.failures
    attempted = 1 + len(loop.latencies)
    tail_s, tail_pct, beyond = tail(loop.latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (items_per_s(loop.latencies), "1/s"),
        "item_p50_ms": (1e3 * statistics.median(loop.latencies), "ms"),
        "item_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MiB"),
        "ok_frac": (1.0 - len(failures) / attempted, "fraction"),
    }
    details = {
        "samples": len(loop.latencies),
        "item_tail_percentile": tail_pct,
        "item_tail_samples_beyond": beyond,
        "failed_frac": len(failures) / attempted,
        "setup_samples_s": setups,
        "loop_s": loop.elapsed,
    }
    return metrics, attempted, failures, details


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics.


def per_layer(args, make, run) -> tuple:
    import workloads

    tr = Tracer(True)
    start = time.perf_counter()
    items, warm_failures = setup(make, run, args.seed, tr)
    wall = time.perf_counter() - start
    # Alternating blocks, so that a drift in machine speed hits both alike.
    traced, untraced = LoopResult(), LoopResult()
    block = args.seconds / (2 * TRACE_BLOCKS)
    for _ in range(TRACE_BLOCKS):
        run_loop(run, items, tr, block, traced)
        run_loop(run, items, Tracer(False), block, untraced)
    wall += traced.elapsed
    cli_steps, cli_failures, cli_s = cli_pass(workloads, tr)
    wall += cli_s

    metrics = {}
    calls = {name: 0 for name in workloads.FUNCTIONS}
    busy = {name: 0.0 for name in workloads.FUNCTIONS}
    layer_busy = {layer: 0.0 for layer in LAYERS + ("bench",)}
    for span, own in zip(tr.spans, tr.self_times()):
        name = span[0]
        layer = name.split(".")[0]
        layer_busy[layer] += own
        if layer == "bench":
            continue
        if name not in calls:
            raise RuntimeError("span %s is not declared in workloads.FUNCTIONS" % name)
        calls[name] += 1
        busy[name] += own
    for name in workloads.FUNCTIONS:
        metrics[name + ".calls"] = (calls[name], "count")
        metrics[name + ".busy_ms"] = (1e3 * busy[name], "ms")
    failures = warm_failures + traced.failures + cli_failures
    for layer, seconds in layer_busy.items():
        metrics[layer + ".busy_s"] = (seconds, "s")
        metrics[layer + ".share"] = (seconds / wall, "fraction")
        metrics[layer + ".failed"] = (sum(f.layer == layer for f in failures), "count")

    counts = tr.counts
    stokes_bytes = counts.get("stokes.bytes_computed", 0)
    shots = counts.get("estimator.shots", 0)
    metrics["stokes.bytes_computed"] = (stokes_bytes, "B")
    metrics["stokes.gb_per_s_computed"] = (_ratio(stokes_bytes / 1e9, layer_busy["stokes"]), "GB/s")
    metrics["estimator.settings"] = (counts.get("estimator.settings", 0), "count")
    metrics["estimator.shots"] = (shots, "count")
    metrics["estimator.shots_per_s"] = (_ratio(shots, layer_busy["estimator"]), "1/s")
    metrics["cli.output_bytes"] = (counts.get("cli.output_bytes", 0), "B")
    metrics.update(cli_probe_ms(workloads))
    metrics.update(growth_per_qubit(workloads))
    overhead = items_per_s(traced.latencies) / items_per_s(untraced.latencies)
    metrics["bench.trace_overhead"] = (overhead, "ratio")

    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / ("spans-%s-%d.json" % (args.workload, args.seed))
    tr.dump(span_file)
    attempted = 1 + len(traced.latencies) + len(untraced.latencies) + cli_steps
    details = {
        "samples_traced": len(traced.latencies),
        "samples_untraced": len(untraced.latencies),
        "spans": len(tr.spans),
        "span_file": str(span_file.relative_to(ROOT)),
    }
    return metrics, attempted, failures + untraced.failures, details


def _ratio(a, b):
    return a / b if b > 0 else 0.0


def cli_pass(workloads, tr) -> tuple:
    """Every CLI example once, in order, each in a fresh process and checked
    against its golden. Returns (steps, failures, seconds)."""
    items, failures = workloads.cli_items(), []
    start = time.perf_counter()
    for item in items:
        run_item(workloads.run_cli_item, item, tr, failures)
    return len(items), failures, time.perf_counter() - start


def cli_probe_ms(workloads) -> dict:
    """Median wall time of fresh processes that do successively more, with
    each stage reported as the difference from the one before it."""
    stages = [
        ("cli.python_start_ms", ["-c", "pass"]),
        ("cli.import_numpy_ms", ["-c", "import numpy"]),
        ("cli.import_stokesinv_ms", ["-c", "import stokesinv"]),
        ("cli.command_ms", ["-m", "stokesinv.cli", "invariant", "--state", "ghz:3"]),
    ]
    times = {name: [] for name, _ in stages}
    for _ in range(CLI_PROBE_REPEATS):
        for name, argv in stages:
            t = time.perf_counter()
            subprocess.run([sys.executable, *argv], env=workloads.CLI_ENV, capture_output=True, timeout=60, check=True)
            times[name].append(time.perf_counter() - t)
    out, before = {}, 0.0
    for name, _ in stages:
        total = statistics.median(times[name])
        out[name] = (1e3 * (total - before), "ms")
        before = total
    return out


def growth_per_qubit(workloads) -> dict:
    """Fitted time ratio per added qubit: exp of the slope of log(best of
    two calls) against n."""
    import numpy as np

    out = {}
    for fn, ns, make_args in workloads.SCALING:
        best = []
        for n in ns:
            args = make_args(n)
            if not best:
                fn(*args)
            runs = []
            for _ in range(2):
                t = time.perf_counter()
                fn(*args)
                runs.append(time.perf_counter() - t)
            best.append(min(runs))
        slope = np.polyfit(list(ns), np.log(best), 1)[0]
        out[span_name(fn) + ".growth_per_qubit"] = (float(np.exp(slope)), "ratio")
    return out


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description="stokesinv benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(NPROC))
    try:
        import workloads
    except ImportError as exc:
        print("bench: cannot load stokesinv from %s: %s" % (ROOT / "src", exc), file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print("bench: unknown workload %r; choose from %s" % (args.workload, sorted(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    make, run = workloads.WORKLOADS[args.workload]

    if args.setup_only:
        setup(make, run, args.seed, Tracer(False))
        print(time.perf_counter() - T0)
        return 0

    if args.trace:
        metrics, attempted, failures, details = per_layer(args, make, run)
    else:
        metrics, attempted, failures, details = end_to_end(args, make, run)
    for f in failures[:5]:
        print("bench: item failed: %s" % f, file=sys.stderr)
    details.update(workload=args.workload, seed=args.seed, trace=args.trace, env=environment())
    details["failures"] = [str(f) for f in failures[:20]]
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
