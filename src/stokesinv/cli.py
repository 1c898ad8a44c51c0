"""Command-line front end: state construction, Stokes tensors, invariants,
measures, filtering and estimator runs, with JSON (default) or CSV output."""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

import numpy as np

from . import estimator, measures, qstate, slocc, stokes
from .errors import OutOfRange, ParseError, StokesInvError, WrongQubitCount
from .qstate import DensityMatrix, PureState


def parse_state(spec: str):
    """Parse a state spec: a named-state string (bell:phi+, ghz:3, w:3,
    schmidt:0.9, mixed:max:2, basis:010) or a path to a state JSON file."""
    parts = spec.split(":")
    head = parts[0]
    try:
        if head == "bell" and len(parts) == 2:
            return qstate.bell_state(parts[1])
        if head == "ghz" and len(parts) == 2:
            return qstate.ghz_state(int(parts[1]))
        if head == "w" and len(parts) == 2:
            return qstate.w_state(int(parts[1]))
        if head == "basis" and len(parts) == 2:
            return qstate.basis_state(parts[1])
        if head == "schmidt" and len(parts) == 2:
            cos2 = float(parts[1])
            if not 0.0 <= cos2 <= 1.0:
                raise ParseError("schmidt:%s needs cos^2(theta) in [0,1]" % parts[1])
            return qstate.schmidt_pair(float(np.arccos(np.sqrt(cos2))))
        if head == "mixed" and len(parts) == 3 and parts[1] == "max":
            return qstate.maximally_mixed(int(parts[2]))
        if spec.startswith("file:"):
            return load_state_file(spec[5:])
    except ValueError as exc:
        raise ParseError("bad state spec %r: %s" % (spec, exc)) from exc
    if os.path.exists(spec):
        return load_state_file(spec)
    raise ParseError("unrecognized state spec %r" % spec)


def load_state_file(path: str):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError("state file not found: %s" % path) from exc
    except json.JSONDecodeError as exc:
        raise ParseError("bad JSON in %s at line %d column %d" % (path, exc.lineno, exc.colno)) from exc
    return state_from_json(doc)


def state_from_json(doc: dict):
    if not isinstance(doc, dict) or "n" not in doc:
        raise ParseError("state document must be an object with an 'n' field")
    if "amplitudes" not in doc and "matrix" not in doc:
        raise ParseError("state document needs 'amplitudes' or 'matrix'")
    try:
        n = int(doc["n"])
        if "amplitudes" in doc:
            amps = np.array([complex(z[0], z[1]) for z in doc["amplitudes"]])
        else:
            m = np.array(
                [[complex(z[0], z[1]) for z in row] for row in doc["matrix"]]
            )
    except (IndexError, OverflowError, TypeError, ValueError) as exc:
        raise ParseError("bad state document: %s" % exc) from exc
    if n < 1:
        raise ParseError("state document needs n >= 1")
    if "amplitudes" in doc:
        psi = PureState(n, amps)
        if not abs(psi.norm_sq - 1.0) <= 1e-9:
            raise ParseError("pure state amplitudes are not normalized")
        return psi
    if not np.all(np.isfinite(m)):
        raise ParseError("state document has a non-finite matrix entry")
    rho = DensityMatrix(n, m)
    bound = np.sqrt(np.finfo(float).max / 2**n)
    # bounds the trace sum and the Hermitian part the PSD check forms; a PSD rho
    # has |rho_ab| <= Tr rho, so no PSD document the trace bound passes is refused
    largest = float(np.max(np.abs(rho.matrix)))
    if largest >= bound:
        raise OutOfRange("density matrix entry %g is out of float range" % largest)
    # keeps sum S^2 = 2^n Tr rho^2 <= 2^n (Tr rho)^2, Tr rho^2 and Tr rho rho~ finite
    if rho.trace >= bound:
        raise OutOfRange("density matrix trace %g overflows its Stokes norms" % rho.trace)
    rho.normalized = abs(rho.trace - 1.0) <= 1e-8
    rho.validate(tol=1e-8)
    return rho


def parse_ops(spec: str, n_qubits: int) -> slocc.LocalOperation:
    """Parse a filter spec: 'boost:K:a2=V' (diag(a, 1/a) with a^2 = V on
    qubit K, identity elsewhere) or a path to a LocalOperation JSON file."""
    if spec.startswith("boost:"):
        parts = spec.split(":")
        try:
            k = int(parts[1])
            key, val = parts[2].split("=")
            if key != "a2":
                raise ValueError("expected a2=<value>")
            a2 = float(val)
        except (IndexError, ValueError) as exc:
            raise ParseError("bad ops spec %r: %s" % (spec, exc)) from exc
        if not 0.0 < a2 < np.inf:
            raise ParseError("boost needs 0 < a2 < inf")
        if not 1 <= k <= n_qubits:
            raise ParseError("boost qubit %d out of range" % k)
        a = np.sqrt(a2)
        ops = [np.eye(2, dtype=complex) for _ in range(n_qubits)]
        ops[k - 1] = np.diag([a, 1.0 / a]).astype(complex)
        return slocc.LocalOperation(ops)
    try:
        with open(spec) as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError("ops file not found: %s" % spec) from exc
    except json.JSONDecodeError as exc:
        raise ParseError("bad JSON in %s: %s" % (spec, exc)) from exc
    op = slocc.LocalOperation.from_json_dict(doc)
    if len(op) != n_qubits:
        raise ParseError("%d ops for %d qubits" % (len(op), n_qubits))
    return op


def _labels(n: int):
    return [
        "S_" + "".join(map(str, digits))
        for digits in itertools.product(range(4), repeat=n)
    ]


def _emit(doc, args, csv_rows=None):
    if args.format == "csv" and csv_rows is not None:
        text = "\n".join("%s,%s" % (k, v) for k, v in csv_rows) + "\n"
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_stokes(args):
    state = parse_state(args.state)
    s = stokes.stokes_tensor(qstate.as_density(state))
    labels = _labels(s.n_qubits)
    doc = s.to_json_dict()
    doc["labeled"] = {lab: float(v) for lab, v in zip(labels, s.values)}
    _emit(doc, args, csv_rows=list(zip(labels, (repr(float(v)) for v in s.values))))


def cmd_invariant(args):
    state = parse_state(args.state)
    rho = qstate.as_density(state)
    if args.pair:
        try:
            i, j = (int(x) for x in args.pair.split(","))
        except ValueError as exc:
            raise ParseError("bad --pair %r" % args.pair) from exc
        if i == j:
            raise ParseError("--pair needs two different qubits, got %r" % args.pair)
        rho = qstate.partial_trace(rho, [i, j])
    doc = _invariant_doc(rho)
    _emit(doc, args, csv_rows=sorted(doc.items()))


def _invariant_doc(rho):
    s = stokes.stokes_tensor(rho)
    return {
        "n": rho.n_qubits,
        "invariant": stokes.minkowski_invariant(s),
        "invariant_spinflip": stokes.invariant_via_spinflip(rho),
        "purity": stokes.euclidean_purity(s),
    }


def cmd_measures(args):
    state = parse_state(args.state)
    rho = qstate.as_density(state)
    if rho.n_qubits == 3:
        if not isinstance(state, PureState):
            raise WrongQubitCount("3-qubit measures need a pure state")
        doc = {k: float(v) for k, v in measures.ckw_report(state).items()}
    else:
        doc = measures.measure_report(state).to_json_dict()
    _emit(doc, args, csv_rows=[(k, v) for k, v in sorted(doc.items())])


def cmd_filter(args):
    state = parse_state(args.state)
    rho = qstate.as_density(state)
    op = parse_ops(args.ops, rho.n_qubits)
    rep = slocc.filter_state(rho, op)
    doc = rep.to_json_dict()
    _emit(doc, args, csv_rows=sorted(doc.items()))


def cmd_swapnet(args):
    a = qstate.as_density(parse_state(args.state))
    if args.state_b == "flip":
        b = stokes.spin_flip(a)
    else:
        b = qstate.as_density(parse_state(args.state_b))
    rep = estimator.swap_network_estimate(a, b, args.shots, args.seed)
    doc = rep.to_json_dict()
    _emit(doc, args, csv_rows=sorted(doc.items()))


def cmd_tomo(args):
    rho = qstate.as_density(parse_state(args.state))
    infinite = args.shots == 0
    res = estimator.tomography_simulate(rho, args.shots, args.seed, infinite=infinite)
    doc = res.to_json_dict()
    rows = [
        ("invariant_hat", res.invariant_hat),
        ("psd_ok", res.psd_ok),
        ("shots_per_setting", res.shots_per_setting),
        ("seed", res.seed),
    ] + list(zip(_labels(res.stokes_hat.n_qubits), res.stokes_hat.values))
    _emit(doc, args, csv_rows=rows)


def cmd_state(args):
    state = parse_state(args.state)
    if args.as_density:
        state = qstate.as_density(state)
    doc = state.to_json_dict()
    _emit(doc, args)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stokesinv",
        description="Generalized Stokes tensors, SLOCC invariants and "
        "entanglement measures for n-qubit states.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, shots_default=None):
        sp.add_argument("--state", required=True, help="named state or JSON file")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        if shots_default is not None:
            sp.add_argument("--shots", type=int, default=shots_default)

    sp = sub.add_parser("stokes", help="print the full Stokes tensor")
    common(sp)
    sp.set_defaults(func=cmd_stokes)

    sp = sub.add_parser("invariant", help="Minkowskian invariant and purity")
    common(sp)
    sp.add_argument("--pair", default=None, help="reduce to qubits i,j first")
    sp.set_defaults(func=cmd_invariant)

    sp = sub.add_parser("measures", help="entanglement and purity measures")
    common(sp)
    sp.set_defaults(func=cmd_measures)

    sp = sub.add_parser("filter", help="apply a det-1 local filter")
    common(sp)
    sp.add_argument("--ops", required=True, help="boost:K:a2=V or ops JSON file")
    sp.set_defaults(func=cmd_filter)

    sp = sub.add_parser("swapnet", help="swap-network overlap estimation")
    common(sp, shots_default=10000)
    sp.add_argument(
        "--state-b",
        default="flip",
        help="second state, or 'flip' for the spin-flip of --state",
    )
    sp.set_defaults(func=cmd_swapnet)

    sp = sub.add_parser("tomo", help="finite-shot Pauli tomography")
    common(sp, shots_default=1000)
    sp.set_defaults(func=cmd_tomo)

    sp = sub.add_parser("state", help="generate or convert a state document")
    common(sp)
    sp.add_argument("--as-density", action="store_true")
    sp.set_defaults(func=cmd_state)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except StokesInvError as exc:
        err = {"error": type(exc).__name__, "message": str(exc), "code": exc.exit_code}
        sys.stderr.write(json.dumps(err) + "\n")
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
