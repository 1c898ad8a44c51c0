"""Command-line front end: state construction, Stokes tensors, invariants,
measures, filtering and estimator runs, with JSON (default) or CSV output."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import os
import sys

import numpy as np

from . import estimator, measures, qstate, slocc, stokes
from .errors import BadStateName, BadSubsystem, OutOfRange, ParseError
from .errors import StokesInvError, check
from .qstate import DensityMatrix, PureState


def parse_state(spec: str):
    """Parse a state spec: a named-state string (bell:phi+, ghz:3, w:3,
    schmidt:0.9, mixed:max:2, basis:010) or a path to a state JSON file."""
    head, _, arg = spec.rpartition(":")
    try:
        if head == "bell":
            return qstate.bell_state(arg)
        if head == "ghz":
            return qstate.ghz_state(int(arg))
        if head == "w":
            return qstate.w_state(int(arg))
        if head == "basis":
            return qstate.basis_state(arg)
        if head == "schmidt":
            cos2 = float(arg)
            if not 0.0 <= cos2 <= 1.0:
                raise ParseError("schmidt:%s needs cos^2(theta) in [0,1]" % arg)
            return qstate.schmidt_pair(float(np.arccos(np.sqrt(cos2))))
        if head == "mixed:max":
            return qstate.maximally_mixed(int(arg))
    except ValueError as exc:
        raise ParseError("bad state spec %r: %s" % (spec, exc)) from exc
    if os.path.exists(spec):
        return state_from_json(_read_json(spec, "state"))
    raise ParseError("unrecognized state spec %r" % spec)


def _read_json(path: str, what: str):
    """The JSON document at `path`; ParseError when it cannot be read or is
    not JSON text (a missing path, a directory, binary data)."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError("cannot read %s file %s: %s" % (what, path, exc.strerror)) from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ParseError("bad JSON in %s: %s" % (path, exc)) from exc


def _complex_entries(value, depth: int, what: str) -> np.ndarray:
    """The complex array of the [re, im] pairs nested `depth` lists deep in
    the JSON `value`; ParseError when an entry is no such pair of two JSON
    numbers (an object's two keys or a boolean are not), a number does not
    fit a float, or the lists are ragged."""

    def decode(x, d):
        if d:
            return [decode(y, d - 1) for y in x]
        re, im = x
        if type(re) not in (int, float) or type(im) not in (int, float):  # bool is no number
            raise TypeError("an entry is not an [re, im] pair of numbers")
        return complex(re, im)

    try:
        return np.array(decode(value, depth))
    except (OverflowError, TypeError, ValueError) as exc:
        raise ParseError("bad %s document: %s" % (what, exc)) from exc


def state_from_json(doc: dict):
    """The state of a document `state_to_json` writes: a pure state whose
    squared norm is 1, or a Hermitian PSD density matrix (within tolerance
    "document"), kept as the Hermitian part its checks passed, or as that
    part's PSD part (eigenvalues clipped at 0) when it fails tolerance "psd".
    The body fixes the qubit count, and `n` must name it, else BadStateName."""
    if not isinstance(doc, dict) or "n" not in doc:
        raise ParseError("state document must be an object with an 'n' field")
    if ("amplitudes" in doc) == ("matrix" in doc):
        raise ParseError("state document needs exactly one of 'amplitudes' or 'matrix'")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):  # no 2.9 -> 2, true -> 1
        raise ParseError("state document's 'n' must be an integer, got %r" % (n,))
    if n < 1:
        raise ParseError("state document needs n >= 1")
    if "amplitudes" in doc:
        state = PureState(_complex_entries(doc["amplitudes"], 1, "state"))
    else:
        m = _complex_entries(doc["matrix"], 2, "state")
        if not np.all(np.isfinite(m)):
            raise ParseError("state document has a non-finite matrix entry")
        state = DensityMatrix(m)
    if state.n_qubits != n:
        raise BadStateName("'n' is %d, but the body's qubit count is %d" % (n, state.n_qubits))
    if isinstance(state, PureState):
        check("amplitude_norm", abs(state.norm_sq - 1.0), ParseError, "| |psi|^2 - 1 |")
        return state
    bound = np.sqrt(np.finfo(float).max / 2**n)
    # bounds the trace sum and the Hermitian part the PSD check forms; a PSD rho
    # has |rho_ab| <= Tr rho, so no PSD document the trace bound passes is refused
    largest = float(np.max(np.abs(state.matrix)))
    if largest >= bound:
        why = "density matrix entry %g is not below sqrt(float max / 2^%d) = %g"
        raise OutOfRange(why % (largest, n, bound))
    # keeps sum S^2 = 2^n Tr rho^2 <= 2^n (Tr rho)^2, Tr rho^2 and Tr rho rho~ finite
    if state.trace >= bound:
        raise OutOfRange("density matrix trace %g overflows its Stokes norms" % state.trace)
    state.matrix = qstate.psd_part(state.matrix, "document")
    return state


def state_to_json(state) -> dict:
    """The document of a pure state (its amplitudes) or a density matrix (its
    matrix), each entry an [re, im] pair."""
    if isinstance(state, PureState):
        key, z = "amplitudes", state.amplitudes
    else:
        key, z = "matrix", state.matrix
    pairs = np.ascontiguousarray(z).view(float).reshape(z.shape + (2,))
    return {"n": state.n_qubits, key: pairs.tolist()}


def parse_ops(spec: str, n_qubits: int) -> slocc.LocalOperation:
    """Parse a filter spec: 'boost:K:a2=V' (diag(a, 1/a) with a^2 = V on
    qubit K, identity elsewhere) or a path to an ops JSON file, an object
    whose 'ops' list holds one 2x2 matrix of [re, im] pairs per qubit."""
    if spec.startswith("boost:"):
        try:
            _, k, setting = spec.split(":")
            key, val = setting.split("=")
            if key != "a2":
                raise ValueError("expected a2=<value>")
            k, a2 = int(k), float(val)
        except ValueError as exc:
            raise ParseError("bad ops spec %r: %s" % (spec, exc)) from exc
        if not 0.0 < a2 < np.inf:
            raise ParseError("boost needs 0 < a2 < inf")
        if not 1 <= k <= n_qubits:
            raise BadSubsystem("boost qubit %d invalid for %d qubits" % (k, n_qubits))
        a = np.sqrt(a2)
        ops = [np.eye(2, dtype=complex) for _ in range(n_qubits)]
        ops[k - 1] = np.diag([a, 1.0 / a]).astype(complex)
        return slocc.LocalOperation(ops)
    doc = _read_json(spec, "ops")
    if not isinstance(doc, dict) or not isinstance(doc.get("ops"), list):
        raise ParseError("ops document must be an object with an 'ops' list")
    return slocc.LocalOperation([_complex_entries(o, 2, "LocalOperation") for o in doc["ops"]])


def _labels(n: int):
    return ["S_" + "".join(d) for d in itertools.product("0123", repeat=n)]


def _emit(doc, args, csv_rows=None) -> None:
    """`doc` as JSON, or as key,value lines under --format csv: `csv_rows`, else
    `doc`'s sorted items, a list giving one `<key>_<k>` row per entry. It goes
    to the --out path, or to stdout without one; a failed write is ParseError."""
    if getattr(args, "format", "json") == "csv":  # `state` declares no --format
        if csv_rows is None:
            csv_rows = []
            for key, value in sorted(doc.items()):
                if isinstance(value, list):  # one row per entry, where the list's row stood
                    csv_rows += [("%s_%d" % (key, k), v) for k, v in enumerate(value, 1)]
                else:
                    csv_rows.append((key, value))
        text = "".join("%s,%s\n" % (k, v) for k, v in csv_rows)
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    try:
        with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
            fh.write(text)
            fh.flush()
    except OSError as exc:
        if not args.out and sys.stdout is sys.__stdout__:  # not a capture put in its place
            # what stdout still buffers goes to the null device at exit, so the
            # interpreter's own flush neither prints a second error nor sets the code
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        raise ParseError("cannot write %s: %s" % (args.out or "stdout", exc.strerror)) from exc


def cmd_stokes(args):
    s = stokes.stokes_tensor(parse_state(args.state))
    values = s.values.tolist()
    labeled = dict(zip(_labels(s.n_qubits), values))
    doc = {"n": s.n_qubits, "values": values, "labeled": labeled}
    _emit(doc, args, csv_rows=labeled.items())


def cmd_invariant(args):
    state = parse_state(args.state)  # partial_trace reads the pair before rho
    rho = qstate.partial_trace(state, args.pair) if args.pair else qstate.as_density(state)
    s = stokes.stokes_tensor(rho)
    doc = {
        "n": rho.n_qubits,
        "invariant": stokes.minkowski_invariant(s),
        "invariant_spinflip": stokes.invariant_via_spinflip(rho),
        "purity": stokes.euclidean_purity(s),
    }
    _emit(doc, args)


def cmd_measures(args):
    state = parse_state(args.state)
    if state.n_qubits == 3 and isinstance(state, PureState):
        doc = measures.ckw_report(state)
    else:
        doc = dataclasses.asdict(measures.measure_report(state))
    _emit(doc, args)


def cmd_filter(args):
    state = parse_state(args.state)
    op = parse_ops(args.ops, state.n_qubits)
    _emit(dataclasses.asdict(slocc.filter_state(state, op)), args)


def cmd_swapnet(args):
    estimator.check_draws(args.shots, args.seed, infinite=False)  # before any state is read
    a = parse_state(args.state)
    b = None if args.state_b == "flip" else parse_state(args.state_b)
    if b is None:  # spin_flip's rho is the overlap's too; hs_overlap compares sizes first
        a = qstate.as_density(a)
        b = stokes.spin_flip(a)
    _emit(dataclasses.asdict(estimator.swap_network_estimate(a, b, args.shots, args.seed)), args)


def cmd_tomo(args):
    estimator.check_draws(args.shots, args.seed, infinite=args.shots == 0)  # before any state
    state = parse_state(args.state)  # tomography_simulate guards its size first
    res = estimator.tomography_simulate(state, args.shots, args.seed, infinite=args.shots == 0)
    n, values = res.stokes_hat.n_qubits, res.stokes_hat.values.tolist()
    head = {
        "invariant_hat": res.invariant_hat,
        "psd_ok": res.psd_ok,
        "shots_per_setting": res.shots_per_setting,
        "seed": res.seed,
    }
    doc = dict(head, stokes_hat={"n": n, "values": values})
    _emit(doc, args, csv_rows=list(head.items()) + list(zip(_labels(n), values)))


def cmd_state(args):
    state = parse_state(args.state)
    if args.as_density:
        state = qstate.as_density(state)
    _emit(state_to_json(state), args)


def _pair(text: str) -> tuple:
    """The two qubit indices of `--pair i,j`, read with the other options, so a
    malformed pair is refused before any state is built."""
    try:
        i, j = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected two qubit indices i,j, got %r" % text) from None
    return i, j


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ParseError, so it exits 2 with a JSON line
    like every other bad input; its subcommand parsers inherit this."""

    def error(self, message):
        raise ParseError("%s: %s" % (self.prog, message))


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="stokesinv",
        description="Generalized Stokes tensors, SLOCC invariants and "
        "entanglement measures for n-qubit states.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, help, shots=None):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--state", required=True, help="named state or JSON file")
        if name != "state":  # state writes its JSON document only
            sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        if shots:  # the (default, help) of --shots, for a command that draws
            sp.add_argument("--shots", type=int, default=shots[0], help=shots[1])
            sp.add_argument("--seed", type=int, default=0, help="seed of the shot draws")
        sp.set_defaults(func=func)
        return sp

    command("stokes", cmd_stokes, "print the full Stokes tensor")
    sp = command("invariant", cmd_invariant, "Minkowskian invariant and purity")
    sp.add_argument("--pair", type=_pair, default=None, help="reduce to qubits i,j first")
    command("measures", cmd_measures, "entanglement and purity measures")
    sp = command("filter", cmd_filter, "apply a det-1 local filter")
    sp.add_argument("--ops", required=True, help="boost:K:a2=V or ops JSON file")
    sp = command("swapnet", cmd_swapnet, "swap-network overlap estimation", (10000, "1 to 2^63-1"))
    sp.add_argument(
        "--state-b", default="flip", help="second state, or 'flip' for the spin-flip of --state"
    )
    tomo_shots = "per Pauli setting, 0 to 2^63-1; 0 takes the exact probabilities, no draws"
    command("tomo", cmd_tomo, "finite-shot Pauli tomography", (1000, tomo_shots))
    sp = command("state", cmd_state, "generate or convert a state document")
    sp.add_argument("--as-density", action="store_true")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
    except (MemoryError, StokesInvError) as exc:
        if isinstance(exc, MemoryError):  # the backstop of the size guards
            exc = OutOfRange("out of memory: %s" % (str(exc) or "MemoryError"))
        err = {"error": type(exc).__name__, "message": str(exc), "code": exc.exit_code}
        sys.stderr.write(json.dumps(err) + "\n")
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
