"""Entanglement and purity measures: polarization degree, linearized entropy,
Wootters concurrence, tangle, entanglement of formation, bipartite tangle,
three-tangle, and the pair-invariant report for three-qubit pure states."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import (
    BadSubsystem,
    IdentityViolation,
    NegativeTangle,
    OutOfRange,
    WrongQubitCount,
)
from .qstate import SIGMA, PureState, as_density, partial_trace, sqrt_psd

SIGMA2 = SIGMA[2]
from .stokes import (
    StokesTensor,
    invariant_via_spinflip,
    minkowski_invariant,
    stokes_tensor,
)


def polarization_sq(rho, k: int) -> float:
    """Squared polarization of qubit k: sum of the squared weight-1 Stokes
    components on that leg; equals 2 Tr(rho_k^2) - 1."""
    rho = as_density(rho)
    if not 1 <= k <= rho.n_qubits:
        raise BadSubsystem("qubit %d out of range" % k)
    return _polarization_sq(stokes_tensor(rho), k)


def _polarization_sq(s: StokesTensor, k: int) -> float:
    stride = 4 ** (s.n_qubits - k)
    total = 0.0
    for i in (1, 2, 3):
        total += float(s.values[i * stride]) ** 2
    return total


def linearized_entropy(rho) -> float:
    """1 - Tr(rho^2)."""
    return 1.0 - as_density(rho).purity()


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit state.

    The spin-flip spectrum is taken as the singular values of
    sqrt(rho) (sigma_y x sigma_y) conj(sqrt(rho)), whose squares are the
    eigenvalues of the Hermitian product sqrt(rho) rho_tilde sqrt(rho);
    the SVD keeps full precision for the near-zero values."""
    rho = as_density(rho)
    if rho.n_qubits != 2:
        raise WrongQubitCount("concurrence needs 2 qubits, got %d" % rho.n_qubits)
    root = sqrt_psd(rho.matrix)
    flip = np.kron(SIGMA2, SIGMA2)
    lam = np.linalg.svd(root @ flip @ root.conj(), compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def tangle_pure2(psi: PureState) -> float:
    """Tangle of a pure two-qubit state (concurrence squared)."""
    if psi.n_qubits != 2:
        raise WrongQubitCount("tangle needs 2 qubits, got %d" % psi.n_qubits)
    return concurrence(psi) ** 2


def eof_from_tangle(tau: float) -> float:
    """Entanglement of formation h((1 + sqrt(1 - tau)) / 2) with the binary
    entropy h; 0 log 0 taken as 0."""
    if not -1e-12 <= tau <= 1 + 1e-12:
        raise OutOfRange("tangle %g outside [0, 1]" % tau)
    tau = min(max(tau, 0.0), 1.0)
    x = 0.5 * (1.0 + np.sqrt(1.0 - tau))
    return float(_binary_entropy(x))


def _binary_entropy(x: float) -> float:
    h = 0.0
    for p in (x, 1.0 - x):
        if p > 0.0:
            h -= p * np.log2(p)
    return h


def bipartite_tangle(psi: PureState, cut: int) -> float:
    """C^2 of the one-vs-rest split at `cut`: 2 (1 - Tr(rho_cut^2))."""
    if psi.n_qubits != 3:
        raise WrongQubitCount("bipartite tangle defined here for 3 qubits")
    if not 1 <= cut <= 3:
        raise BadSubsystem("cut qubit %d out of range" % cut)
    reduced = partial_trace(psi.to_density(), [cut])
    return float(2.0 * (1.0 - reduced.purity()))


def three_tangle(psi: PureState) -> float:
    """Residual three-way entanglement C^2_1(23) - C^2_12 - C^2_13."""
    if psi.n_qubits != 3:
        raise WrongQubitCount("three-tangle needs 3 qubits")
    rho = psi.to_density()
    return _clip_tangle(
        bipartite_tangle(psi, 1)
        - concurrence(partial_trace(rho, [1, 2])) ** 2
        - concurrence(partial_trace(rho, [1, 3])) ** 2
    )


def _clip_tangle(tau: float) -> float:
    if tau < -1e-8:
        raise NegativeTangle("three-tangle %g below -1e-8" % tau)
    return float(min(max(tau, 0.0), 1.0))


def purity_decomposition(rho):
    """Split Tr(rho^2) of a two-qubit state into the average squared
    single-qubit polarization and the Stokes scalar."""
    rho = as_density(rho)
    if rho.n_qubits != 2:
        raise WrongQubitCount("decomposition needs 2 qubits")
    s = stokes_tensor(rho)
    avg_pol_sq = 0.5 * (_polarization_sq(s, 1) + _polarization_sq(s, 2))
    return avg_pol_sq, minkowski_invariant(s)


@dataclass
class MeasureReport:
    purity: float
    linearized_entropy: float
    per_qubit_polarization_sq: list
    stokes_scalar: float
    concurrence: Optional[float] = None
    tangle: Optional[float] = None
    three_tangle: Optional[float] = None
    eof: Optional[float] = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def measure_report(state) -> MeasureReport:
    """All measures applicable to the given state in one record. Pure-state
    only quantities (tangle, three-tangle, EoF) are included when the input
    is a PureState of the right size."""
    rho = as_density(state)
    n = rho.n_qubits
    s = stokes_tensor(rho)
    purity = rho.purity()
    rep = MeasureReport(
        purity=purity,
        linearized_entropy=1.0 - purity,
        per_qubit_polarization_sq=[_polarization_sq(s, k) for k in range(1, n + 1)],
        stokes_scalar=minkowski_invariant(s),
    )
    if n == 2:
        rep.concurrence = concurrence(rho)
        if isinstance(state, PureState):
            rep.tangle = tangle_pure2(state)
            rep.eof = eof_from_tangle(rep.tangle)
    if n == 3 and isinstance(state, PureState):
        rep.three_tangle = three_tangle(state)
    return rep


_PAIRS = {"AB": (1, 2), "AC": (1, 3), "BC": (2, 3)}
_CUTS = {"A": 1, "B": 2, "C": 3}


def ckw_report(psi: PureState) -> dict:
    """Pair invariants, pair concurrences, one-vs-rest tangles and the
    three-tangle of a pure three-qubit state, with the monogamy residuals.

    Pair invariants (spin-flip overlap on reduced pairs), concurrences
    (Wootters) and bipartite tangles (reduced purities) each take their own
    route, so the identities are genuine checks; the three-tangle is
    C2_A(BC) - C2_AB - C2_AC from those values.
    """
    if psi.n_qubits != 3:
        raise WrongQubitCount("ckw report needs 3 qubits")
    rho = psi.to_density()
    rep: dict = {}
    for name, pair in _PAIRS.items():
        reduced = partial_trace(rho, list(pair))
        rep["S2_" + name] = invariant_via_spinflip(reduced)
        rep["C2_" + name] = concurrence(reduced) ** 2
    for name, cut in _CUTS.items():
        others = "".join(c for c in "ABC" if c != name)
        rep["C2_%s(%s)" % (name, others)] = bipartite_tangle(psi, cut)
    rep["tau_ABC"] = _clip_tangle(rep["C2_A(BC)"] - rep["C2_AB"] - rep["C2_AC"])

    # one-vs-rest vs pair-invariant sums, and per-pair monogamy residuals
    rep["residual_A"] = rep["S2_AB"] + rep["S2_AC"] - rep["C2_A(BC)"]
    rep["residual_B"] = rep["S2_AB"] + rep["S2_BC"] - rep["C2_B(AC)"]
    rep["residual_C"] = rep["S2_AC"] + rep["S2_BC"] - rep["C2_C(AB)"]
    for name in _PAIRS:
        rep["residual_" + name] = (
            rep["S2_" + name] - rep["C2_" + name] - 0.5 * rep["tau_ABC"]
        )
    worst = max(abs(rep["residual_" + k]) for k in ("A", "B", "C", "AB", "AC", "BC"))
    if worst > 1e-6:
        raise IdentityViolation("monogamy residual %g exceeds 1e-6" % worst)
    return rep
