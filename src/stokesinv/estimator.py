"""Simulated experimental routes to the Stokes scalar: ancilla-interference
(swap network) overlap estimation and finite-shot Pauli tomography."""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import DimensionMismatch, ZeroShots
from .qstate import as_density, kron_all
from .stokes import (
    StokesTensor,
    _apply_legs,
    _pair_legs,
    density_from_stokes,
    hs_overlap,
    minkowski_invariant,
    spin_flip,
    stokes_tensor,
)

# Eigenvector columns of sigma_1..sigma_3, ordered eigenvalue +1 then -1,
# so measurement outcome bit 0 carries sign +1.
_EIGBASIS = {
    1: np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    2: np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2),
    3: np.eye(2, dtype=complex),
}

# Per-leg map from (setting, outcome) index 2*(axis - 1) + bit to Stokes digit:
# digit 0 pools all six, digit i takes the outcome sign under setting i only.
_DIGITS = np.vstack([np.ones(6), np.kron(np.eye(3), [1.0, -1.0])])


@dataclass
class EstimateReport:
    estimate: float
    shots: int
    std_error: float
    seed: int
    exact: Optional[float] = None

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(eq=False)
class TomographyResult:
    stokes_hat: StokesTensor
    shots_per_setting: int
    invariant_hat: float
    psd_ok: bool
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "stokes_hat": self.stokes_hat.to_json_dict(),
            "shots_per_setting": self.shots_per_setting,
            "invariant_hat": self.invariant_hat,
            "psd_ok": self.psd_ok,
            "seed": self.seed,
        }


def swap_network_estimate(a, b, shots: int, seed: int) -> EstimateReport:
    """Estimate Tr(a b) from the interference statistics of the controlled-swap
    network, simulated at the probability level: the ancilla lands in its
    bright port with probability p0 = (1 + Tr(a b)) / 2."""
    a, b = as_density(a), as_density(b)
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatch("states of different size")
    if shots < 1:
        raise ZeroShots("swap network needs shots >= 1")
    exact = hs_overlap(a, b)
    p0 = min(max(0.5 * (1.0 + exact), 0.0), 1.0)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1)]))
    count0 = int(rng.binomial(shots, p0))
    phat = count0 / shots
    return EstimateReport(
        estimate=2.0 * phat - 1.0,
        shots=shots,
        std_error=2.0 * float(np.sqrt(phat * (1.0 - phat) / shots)),
        seed=int(seed),
        exact=exact,
    )


def _setting_probs(rho, setting) -> np.ndarray:
    u = kron_all([_EIGBASIS[a] for a in setting])
    probs = np.real(np.einsum("ij,jk,ki->i", u.conj().T, rho.matrix, u))
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def tomography_simulate(
    rho, shots_per_setting: int, seed: int, infinite: bool = False
) -> TomographyResult:
    """Reconstruct the Stokes tensor from all 3^n full Pauli settings.

    The frequencies form one tensor with a (setting, outcome) axis of size 6
    per qubit, mapped per pair of legs to Stokes digits by `_DIGITS`. The
    identity digit pools the 3 settings of its leg, so a weight-w component
    sums shots * 3^(n - w) signed outcomes and is divided once by that count.
    With `infinite=True` (and shots_per_setting = 0) the exact outcome
    probabilities stand in for the frequencies.
    """
    rho = as_density(rho)
    if infinite:
        if shots_per_setting != 0:
            raise ZeroShots("infinite-shot mode requires shots_per_setting = 0")
    elif shots_per_setting < 1:
        raise ZeroShots("tomography needs shots_per_setting >= 1 (or infinite mode)")
    n = rho.n_qubits
    freqs = np.empty((3**n, 2**n))
    for j, setting in enumerate(itertools.product((1, 2, 3), repeat=n)):
        probs = _setting_probs(rho, setting)
        if infinite:
            freqs[j] = probs
        else:
            sub = np.random.SeedSequence([int(seed) & (2**63 - 1), j, 0])
            freqs[j] = np.random.default_rng(sub).multinomial(shots_per_setting, probs)
    t = freqs.reshape((3,) * n + (2,) * n)
    t = t.transpose([x for k in range(n) for x in (k, n + k)])
    pooled = kron_all([np.array([3.0, 1.0, 1.0, 1.0])] * n)
    legs = _pair_legs([_DIGITS] * n)
    values = _apply_legs(t, legs) / (max(shots_per_setting, 1) * pooled)
    values[0] = 1.0
    stokes_hat = StokesTensor(n, values)
    return TomographyResult(
        stokes_hat=stokes_hat,
        shots_per_setting=shots_per_setting,
        invariant_hat=minkowski_invariant(stokes_hat),
        psd_ok=density_from_stokes(stokes_hat).psd_ok,
        seed=int(seed),
    )


def estimator_compare(rho, shots: int, seed: int) -> dict:
    """Run both estimation routes against the same state with a matched total
    shot budget: the tomography route gets shots // 3^n per setting (min 1)."""
    rho = as_density(rho)
    if shots < 1:
        raise ZeroShots("comparison needs shots >= 1")
    direct = swap_network_estimate(rho, spin_flip(rho), shots, seed)
    per_setting = max(1, shots // 3**rho.n_qubits)
    tomo = tomography_simulate(rho, per_setting, seed)
    tomo_exact = minkowski_invariant(stokes_tensor(rho))
    return {"direct": direct, "tomo": tomo, "exact": tomo_exact}
