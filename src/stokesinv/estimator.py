"""Simulated experimental routes to the Stokes scalar: ancilla-interference
(swap network) overlap estimation and finite-shot Pauli tomography."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TOLERANCES, EnsembleAnnihilated, OutOfRange, check
from .qstate import _refuse_beyond_memory, as_density
from .stokes import (
    StokesTensor,
    _apply_legs,
    _block_legs,
    _kron_power,
    _pair_legs,
    _pair_map,
    _to_pair_tensor,
    density_from_stokes,
    hs_overlap,
    minkowski_invariant,
)

# Eigenvector columns of sigma_1..sigma_3, ordered eigenvalue +1 then -1,
# so measurement outcome bit 0 carries sign +1: _EIGBASIS[a - 1][r, o].
_EIGBASIS = np.array(
    [
        np.array([[1, 1], [1, -1]]) / np.sqrt(2),
        np.array([[1, 1], [1j, -1j]]) / np.sqrt(2),
        np.eye(2),
    ],
    dtype=complex,
)

# Per-leg map from a qubit's (r, c) density entry to the probability of
# outcome o under setting a, index 2*(a - 1) + o:
# _PROBS[(a, o), (r, c)] = conj(U_a[r, o]) U_a[c, o], so p = <u_o| rho |u_o>.
_PROBS = np.einsum("aro,aco->aorc", _EIGBASIS.conj(), _EIGBASIS).reshape(6, 4)
_PROBS2 = _pair_map(_PROBS)

# Largest shot count the samplers take (a C long).
_MAX_SHOTS = np.iinfo(np.int64).max

# Per-leg map from (setting, outcome) index 2*(axis - 1) + bit to Stokes digit:
# digit 0 pools all six, digit i takes the outcome sign under setting i only.
_DIGITS = np.vstack([np.ones(6), np.kron(np.eye(3), [1.0, -1.0])])


@dataclass
class EstimateReport:
    estimate: float
    shots: int
    std_error: float
    seed: int
    exact: float


@dataclass(eq=False)
class TomographyResult:
    stokes_hat: StokesTensor
    shots_per_setting: int
    invariant_hat: float
    psd_ok: bool
    seed: int


def check_draws(shots: int, seed: int, infinite: bool) -> None:
    """Refuse as OutOfRange a shot count outside 1..2^63 - 1 (a C long), or
    other than 0 in tomography's infinite mode, and a negative seed."""
    low, high = (0, 0) if infinite else (1, _MAX_SHOTS)
    if not low <= shots <= high:
        mode = " in infinite mode" if infinite else ""
        raise OutOfRange("shot count %d outside %d..%d%s" % (shots, low, high, mode))
    if seed < 0:
        raise OutOfRange("seed %d is negative" % seed)


def swap_network_estimate(a, b, shots: int, seed: int) -> EstimateReport:
    """Estimate Tr(a b) from the interference statistics of the controlled-swap
    network, simulated at the probability level: the ancilla lands in its
    bright port with probability p0 = (1 + Tr(a b)) / 2."""
    check_draws(shots, seed, infinite=False)
    exact = hs_overlap(a, b)
    p0 = min(max(0.5 * (1.0 + exact), 0.0), 1.0)
    count0 = int(np.random.default_rng([seed]).binomial(shots, p0))
    phat = count0 / shots
    return EstimateReport(
        estimate=2.0 * phat - 1.0,
        shots=shots,
        std_error=2.0 * float(np.sqrt(phat * (1.0 - phat) / shots)),
        seed=int(seed),
        exact=exact,
    )


def tomography_simulate(
    rho, shots_per_setting: int, seed: int, infinite: bool = False
) -> TomographyResult:
    """Reconstruct the Stokes tensor from all 3^n full Pauli settings.

    One `_apply_legs` pass maps rho, laid out in the blocks of
    `stokes._block_legs`, to the probabilities of every (setting, outcome)
    pair, a leg of size 6 per qubit: `_PROBS` on a lone first qubit,
    `_PROBS2` on each two-qubit block.
    The frequencies drawn from them form one tensor of the same legs, mapped
    per pair of legs to Stokes digits by `_DIGITS`. The identity digit pools
    the 3 settings of its leg, so a weight-w component sums
    shots * 3^(n - w) signed outcomes and is divided once by that count.
    With `infinite=True` (and shots_per_setting = 0) the exact outcome
    probabilities stand in for the frequencies. The complex probability
    tensor and its real copy by setting take 24 * 6^n bytes; a request that
    would exceed physical memory is refused before any allocation, and so is
    a state whose trace is at most the "annihilation" floor. So is one whose
    outcome probabilities, once snapped, leave a setting's total there.
    """
    check_draws(shots_per_setting, seed, infinite)
    n = rho.n_qubits
    _refuse_beyond_memory(
        24 * 6**n, "tomography of %d qubits: 24*6^%d bytes of probabilities" % (n, n)
    )
    rho = as_density(rho)
    check("annihilation", rho.trace, EnsembleAnnihilated, "trace of the measured state")
    by_setting = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    probs = _apply_legs(_to_pair_tensor(rho.matrix, n), _block_legs(_PROBS, _PROBS2, n))
    # a real copy, one row per setting with qubit 1 first; releasing the
    # complex tensor here keeps the peak at the 24 * 6^n bytes guarded above
    freqs = probs.real.reshape((3, 2) * n).transpose(by_setting).reshape(3**n, 2**n)
    del probs
    # clips negatives, and snaps the ~1e-32 left where exact zeros cancel: a
    # binomial draw at p > 0 consumes random numbers that one at p = 0 does not
    freqs[freqs < TOLERANCES["zero_probability"]] = 0.0
    totals = freqs.sum(axis=1, keepdims=True)
    check("annihilation", totals.min(), EnsembleAnnihilated, "least outcome total of a setting")
    freqs /= totals
    if not infinite:
        for j, p in enumerate(freqs):
            p[:] = np.random.default_rng([seed, j, 0]).multinomial(shots_per_setting, p)
    interleaved = [x for k in range(n) for x in (k, n + k)]
    t = freqs.reshape((3,) * n + (2,) * n).transpose(interleaved)
    pooled = _kron_power((3.0, 1.0, 1.0, 1.0), n)
    values = _apply_legs(t, _pair_legs([_DIGITS] * n)) / (max(shots_per_setting, 1) * pooled)
    values[0] = 1.0
    stokes_hat = StokesTensor(values)
    return TomographyResult(
        stokes_hat=stokes_hat,
        shots_per_setting=shots_per_setting,
        invariant_hat=minkowski_invariant(stokes_hat),
        psd_ok=density_from_stokes(stokes_hat).psd_ok,
        seed=int(seed),
    )
