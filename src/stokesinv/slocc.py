"""Local SL(2,C) filtering in the density-matrix picture and the induced
O(1,3) action on Stokes tensors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EnsembleAnnihilated,
    NotUnimodular,
    OutOfRange,
    ParseError,
    check,
)
from .qstate import DensityMatrix, as_density, kron_all
from .stokes import _BWD, _FWD, _apply_legs, _pair_legs
from .stokes import StokesTensor, minkowski_invariant, stokes_tensor


@dataclass(eq=False)
class LocalOperation:
    """One invertible 2x2 operator per qubit, applied as a tensor product."""

    ops: list

    def __post_init__(self):
        self.ops = [np.asarray(o, dtype=complex) for o in self.ops]
        for o in self.ops:
            if o.shape != (2, 2):
                raise DimensionMismatch("local operator must be 2x2")
            if not np.all(np.isfinite(o)):
                raise ParseError("local operator has a non-finite entry")
            largest = float(np.max(np.abs(o)))
            if largest >= np.sqrt(np.finfo(float).max / 2):  # below it |det| is finite
                raise OutOfRange("local operator entry %g is out of float range" % largest)
            check("singular", abs(np.linalg.det(o)), DimensionMismatch, "local operator |det|")


@dataclass
class FilterReport:
    """Effect of a det-1 local filter on the Stokes scalar."""

    attenuation: float
    invariant_before: float
    invariant_after_renorm: float
    gain: float


def _check_unimodular(a: np.ndarray) -> None:
    check("unimodular", abs(np.linalg.det(a) - 1.0), NotUnimodular, "filter operator |det - 1|")


def lorentz_of(a: np.ndarray) -> np.ndarray:
    """4x4 Lorentz matrix induced by a det-1 operator:
    L[mu, nu] = Tr(sigma_mu a sigma_nu a^dagger) / 2, i.e. rho -> a rho a^dagger
    (kron(a, conj(a)) on row-major flattened rho) between one leg's Stokes maps."""
    a = np.asarray(a, dtype=complex)
    _check_unimodular(a)
    return (_FWD @ np.kron(a, a.conj()) @ _BWD).real


def apply_local_to_density(rho, op: LocalOperation) -> DensityMatrix:
    """rho -> (A1 x ... x An) rho (A1 x ... x An)^dagger, unnormalized. No 2^n x 2^n
    operator is built: with L x R = A1 x ... x An split after qubit n//2, rho's
    legs (row-left, row-right, col-left, col-right) take L, R, conj L, conj R, at
    2 (2^(n//2) + 2^(n - n//2)) 4^n multiply-adds instead of 2 * 8^n."""
    rho = as_density(rho)
    n = rho.n_qubits
    if len(op.ops) != n:
        raise DimensionMismatch("%d local operators for %d qubits" % (len(op.ops), n))
    left = kron_all(op.ops[: n // 2]) if n > 1 else np.eye(1)
    right = kron_all(op.ops[n // 2 :])
    out = _apply_legs(rho.matrix, [left, right, left.conj(), right.conj()])
    return DensityMatrix(out.reshape(2**n, 2**n))


def apply_lorentz_to_stokes(s: StokesTensor, ls) -> StokesTensor:
    """Contract one 4x4 Lorentz matrix onto each tensor leg, qubit 1 first,
    two legs per pass."""
    ls = [np.asarray(l, dtype=float) for l in ls]
    if len(ls) != s.n_qubits:
        raise DimensionMismatch(
            "%d Lorentz matrices for %d qubits" % (len(ls), s.n_qubits)
        )
    return StokesTensor(_apply_legs(s.values, _pair_legs(ls)))


def filter_state(rho, op: LocalOperation) -> FilterReport:
    """Apply a det-1 local filter and report how renormalization rescales
    the invariant. The invariant itself is unchanged before renormalization,
    so the whole effect is the factor 1/attenuation^2."""
    if len(op.ops) != rho.n_qubits:  # this and det 1 before any 4^n work
        raise DimensionMismatch("%d local operators for %d qubits" % (len(op.ops), rho.n_qubits))
    for o in op.ops:
        _check_unimodular(o)
    rho = as_density(rho)
    before = minkowski_invariant(stokes_tensor(rho))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow -> attenuation check
        attenuation = apply_local_to_density(rho, op).trace
    if not attenuation < np.sqrt(np.finfo(float).max):  # NaN, inf, square overflow
        raise OutOfRange("filter attenuation %g is out of float range" % attenuation)
    check("annihilation", attenuation, EnsembleAnnihilated, "filter attenuation")
    gain = 1.0 / attenuation**2
    return FilterReport(
        attenuation=attenuation,
        invariant_before=before,
        invariant_after_renorm=before * gain,
        gain=gain,
    )
