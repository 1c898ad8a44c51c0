"""Entanglement and purity measures, through two reports: `measure_report`
(purity, linearized entropy, per-qubit squared polarization, Stokes scalar;
two-qubit concurrence, pure-state tangle and EoF), each read from rho along
its own route with no n-qubit Stokes tensor, and `ckw_report` (a pure
three-qubit state's pair invariants, concurrences, one-vs-rest tangles, and
the package's one three-tangle, "tau_ABC", with the monogamy residuals)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, IdentityViolation, OutOfRange, check
from .qstate import DensityMatrix, PureState, as_density, partial_trace, sqrt_psd
from .stokes import _kron_power, invariant_via_spinflip, stokes_tensor


def _polarization_sq(marginal: DensityMatrix) -> float:
    """S_1^2 + S_2^2 + S_3^2 of a one-qubit state's Stokes vector."""
    return sum(float(v) ** 2 for v in stokes_tensor(marginal).values[1:])


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit state.

    The spin-flip spectrum is taken as the singular values of
    sqrt(rho) (sigma_y x sigma_y) conj(sqrt(rho)), whose squares are the
    eigenvalues of the Hermitian product sqrt(rho) rho_tilde sqrt(rho);
    the SVD keeps full precision for the near-zero values. sigma_y x sigma_y
    acts as `spin_flip`'s signed index reversal, here on the columns."""
    if rho.n_qubits != 2:
        raise DimensionMismatch("concurrence needs 2 qubits, got %d" % rho.n_qubits)
    root = sqrt_psd(as_density(rho).matrix)
    flip = root[:, ::-1] * -_kron_power((1.0, -1.0), 2)
    lam = np.linalg.svd(flip @ root.conj(), compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def eof_from_tangle(tau: float) -> float:
    """Entanglement of formation h((1 + sqrt(1 - tau)) / 2) with the binary
    entropy h; 0 log 0 taken as 0."""
    check("tangle_range", max(-tau, tau - 1.0), OutOfRange, "tangle's distance outside [0, 1]")
    tau = min(max(tau, 0.0), 1.0)
    x = 0.5 * (1.0 + np.sqrt(1.0 - tau))
    return float(0.0 - sum(p * np.log2(p) for p in (x, 1.0 - x) if p > 0.0))


@dataclass
class MeasureReport:
    purity: float
    linearized_entropy: float
    per_qubit_polarization_sq: list
    stokes_scalar: float
    concurrence: Optional[float] = None
    tangle: Optional[float] = None
    eof: Optional[float] = None


def measure_report(state) -> MeasureReport:
    """All measures applicable to the given state in one record, from one
    density matrix: two-qubit states add the concurrence, and pure ones the
    tangle and EoF. A pure three-qubit state's three-tangle is `ckw_report`'s.

    Each number takes its own route from rho, none through the n-qubit Stokes
    tensor: the purity is sum |rho_ij|^2, one pass; qubit k's squared
    polarization comes from its one-qubit marginal's Stokes vector; the Stokes
    scalar is `invariant_via_spinflip`. Like that function, the report assumes
    Hermitian rho, for which sum |rho_ij|^2 = Tr rho^2."""
    rho = as_density(state)
    n = rho.n_qubits
    purity = float(np.vdot(rho.matrix, rho.matrix).real)
    rep = MeasureReport(
        purity=purity,
        linearized_entropy=1.0 - purity,
        per_qubit_polarization_sq=[
            _polarization_sq(partial_trace(rho, [k])) for k in range(1, n + 1)
        ],
        stokes_scalar=invariant_via_spinflip(rho),
    )
    if n == 2:
        rep.concurrence = concurrence(rho)
        if isinstance(state, PureState):
            rep.tangle = rep.concurrence**2
            rep.eof = eof_from_tangle(rep.tangle)
    return rep


_PAIRS = {"AB": (1, 2), "AC": (1, 3), "BC": (2, 3)}
_CUTS = {"A(BC)": 1, "B(AC)": 2, "C(AB)": 3}


def ckw_report(psi: PureState) -> dict:
    """Pair invariants, pair concurrences, one-vs-rest tangles and the
    three-tangle of a pure three-qubit state, with the monogamy residuals.

    Pair invariants (spin-flip overlap on reduced pairs), concurrences
    (Wootters) and one-vs-rest tangles (2 (1 - Tr rho_k^2), the purities of
    reductions taken from psi's amplitudes, with no rho built) each take their
    own route, so the identities are genuine checks; the three-tangle is
    C2_A(BC) - C2_AB - C2_AC from those values, refused below -"tangle_range".
    """
    if psi.n_qubits != 3:
        raise DimensionMismatch("ckw report needs 3 qubits, got %d" % psi.n_qubits)
    rep: dict = {}
    for name, pair in _PAIRS.items():
        reduced = partial_trace(psi, list(pair))
        rep["S2_" + name] = invariant_via_spinflip(reduced)
        rep["C2_" + name] = concurrence(reduced) ** 2
    for name, cut in _CUTS.items():
        rep["C2_" + name] = 2.0 * (1.0 - partial_trace(psi, [cut]).purity())
    tau = rep["C2_A(BC)"] - rep["C2_AB"] - rep["C2_AC"]
    check("tangle_range", -tau, OutOfRange, "minus the three-tangle")
    rep["tau_ABC"] = float(min(max(tau, 0.0), 1.0))

    # one-vs-rest vs pair-invariant sums, and per-pair monogamy residuals
    for name, cut in _CUTS.items():
        held = sum(rep["S2_" + p] for p, pair in _PAIRS.items() if cut in pair)
        rep["residual_" + name[0]] = held - rep["C2_" + name]
    for name in _PAIRS:
        rep["residual_" + name] = (
            rep["S2_" + name] - rep["C2_" + name] - 0.5 * rep["tau_ABC"]
        )
    worst = max(abs(v) for k, v in rep.items() if k.startswith("residual_"))
    check("monogamy", worst, IdentityViolation, "largest monogamy residual")
    return rep
