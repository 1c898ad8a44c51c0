"""Dense complex linear algebra and n-qubit state construction.

Convention used everywhere in this package: qubit 1 is the leftmost tensor
factor, i.e. the most significant bit of the computational-basis index.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadRank,
    BadStateName,
    BadSubsystem,
    NonHermitianInput,
    NotPositiveSemidefinite,
    OutOfRange,
)

SIGMA = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)
"""Identity and the three Pauli matrices, indexed 0..3."""


def is_hermitian(m: np.ndarray, tol: float = 1e-10) -> bool:
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def _min_eigenvalue(m: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of m."""
    return float(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))))


def is_psd(m: np.ndarray, tol: float = 1e-10) -> bool:
    return is_hermitian(m, tol) and _min_eigenvalue(m) >= -tol


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product with the left factor most significant."""
    return np.kron(a, b)


def kron_all(mats) -> np.ndarray:
    return functools.reduce(np.kron, mats)


def eigh(m: np.ndarray, tol: float = 1e-10):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Returns (eigenvalues, eigenvectors) with eigenvectors as columns.
    """
    if not is_hermitian(m, tol):
        raise NonHermitianInput("matrix is not Hermitian within %.1e" % tol)
    return np.linalg.eigh(0.5 * (m + m.conj().T))


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root; eigenvalues in [-1e-10, 0) are clamped to 0."""
    vals, vecs = eigh(m)
    if vals[0] < -1e-10:
        raise NotPositiveSemidefinite("eigenvalue %g below -1e-10" % vals[0])
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


@dataclass(frozen=True, eq=False)
class PureState:
    """n-qubit state vector; amplitudes indexed with qubit 1 as the MSB."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != 2**self.n_qubits:
            raise BadStateName(
                "amplitude count %d != 2^%d" % (amps.size, self.n_qubits)
            )
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(
            self.n_qubits, np.outer(self.amplitudes, self.amplitudes.conj())
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n_qubits,
            "amplitudes": [[float(a.real), float(a.imag)] for a in self.amplitudes],
        }


@dataclass(eq=False)
class DensityMatrix:
    """n-qubit density matrix; `normalized` is False for unnormalized
    post-filtering states awaiting renormalization."""

    n_qubits: int
    matrix: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        d = 2**self.n_qubits
        if self.matrix.shape != (d, d):
            raise BadStateName(
                "matrix shape %s != (%d, %d)" % (self.matrix.shape, d, d)
            )

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    @property
    def psd_ok(self) -> bool:
        """Hermitian part PSD within 1e-10, recomputed (O(8^n)) on every read."""
        return _min_eigenvalue(self.matrix) >= -1e-10

    def validate(self, tol: float = 1e-10) -> None:
        if not is_hermitian(self.matrix, tol):
            raise NonHermitianInput("density matrix not Hermitian")
        if _min_eigenvalue(self.matrix) < -tol:
            raise NotPositiveSemidefinite("density matrix has a negative eigenvalue")
        if self.normalized and abs(self.trace - 1.0) > tol:
            raise NonHermitianInput("normalized density matrix has trace != 1")

    def purity(self) -> float:
        return float(np.einsum("ij,ji->", self.matrix, self.matrix).real)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n_qubits,
            "matrix": [
                [[float(z.real), float(z.imag)] for z in row] for row in self.matrix
            ],
        }


def as_density(state) -> DensityMatrix:
    if isinstance(state, PureState):
        return state.to_density()
    return state


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every qubit not listed in `keep` (1-based indices)."""
    n = rho.n_qubits
    keep = sorted(set(keep))
    if not keep or keep[0] < 1 or keep[-1] > n:
        raise BadSubsystem("keep=%r invalid for %d qubits" % (keep, n))
    t = rho.matrix.reshape((2,) * (2 * n))
    # axes: qubit k+1's row is k, its column n+k, or k again when traced out
    col = [n + k if k + 1 in keep else k for k in range(n)]
    out = [k - 1 for k in keep] + [n + k - 1 for k in keep]
    sub = np.einsum(t, list(range(n)) + col, out)
    m = len(keep)
    return DensityMatrix(m, sub.reshape(2**m, 2**m), normalized=rho.normalized)


# ---------------------------------------------------------------------------
# Named states

def _checked_dim(n: int) -> int:
    """2^n, refused before any allocation when the 16*4^n-byte density
    matrix of n qubits would exceed this machine's physical memory."""
    if 16 * 4**n > os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"):
        raise OutOfRange("%d qubits: a 16*4^%d-byte density matrix exceeds physical memory" % (n, n))
    return 2**n


_BELL = {
    "phi+": [1, 0, 0, 1],
    "phi-": [1, 0, 0, -1],
    "psi+": [0, 1, 1, 0],
    "psi-": [0, 1, -1, 0],
}


def bell_state(kind: str) -> PureState:
    if kind not in _BELL:
        raise BadStateName("unknown Bell state %r" % kind)
    v = np.array(_BELL[kind], dtype=complex) / np.sqrt(2)
    return PureState(2, v)


def ghz_state(n: int) -> PureState:
    if n < 2:
        raise BadStateName("ghz needs n >= 2")
    v = np.zeros(_checked_dim(n), dtype=complex)
    v[0] = v[-1] = 1 / np.sqrt(2)
    return PureState(n, v)


def w_state(n: int) -> PureState:
    if n < 2:
        raise BadStateName("w needs n >= 2")
    v = np.zeros(_checked_dim(n), dtype=complex)
    for k in range(n):
        v[1 << k] = 1 / np.sqrt(n)
    return PureState(n, v)


def basis_state(bits: str) -> PureState:
    if not bits or any(c not in "01" for c in bits):
        raise BadStateName("basis bitstring must be nonempty over {0,1}")
    n = len(bits)
    v = np.zeros(_checked_dim(n), dtype=complex)
    v[int(bits, 2)] = 1.0
    return PureState(n, v)


def schmidt_pair(theta: float) -> PureState:
    """Two-qubit state cos(theta)|00> + sin(theta)|11>."""
    if not 0 <= theta <= np.pi / 2:
        raise BadStateName("schmidt angle must be in [0, pi/2]")
    v = np.zeros(4, dtype=complex)
    v[0] = np.cos(theta)
    v[3] = np.sin(theta)
    return PureState(2, v)


def maximally_mixed(n: int) -> DensityMatrix:
    if n < 1:
        raise BadStateName("mixed needs n >= 1")
    d = _checked_dim(n)
    return DensityMatrix(n, np.eye(d, dtype=complex) / d)


# ---------------------------------------------------------------------------
# Seeded random states and operators

def random_pure(n: int, seed) -> PureState:
    """Haar-random pure state via normalized complex Gaussian amplitudes."""
    rng = np.random.default_rng(seed)
    d = 2**n
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(n, z / np.linalg.norm(z))


def random_mixed(n: int, rank: int, seed) -> DensityMatrix:
    """Mixture of `rank` Haar-random pure states with flat Dirichlet weights."""
    if not 1 <= rank <= 2**n:
        raise BadRank("rank %d not in 1..%d" % (rank, 2**n))
    rng = np.random.default_rng(seed)
    d = 2**n
    w = rng.dirichlet(np.ones(rank))
    m = np.zeros((d, d), dtype=complex)
    for p in w:
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        z /= np.linalg.norm(z)
        m += p * np.outer(z, z.conj())
    return DensityMatrix(n, m)


def random_su2(seed) -> np.ndarray:
    """Haar-uniform SU(2) element."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(4)
    z /= np.linalg.norm(z)
    a = z[0] + 1j * z[1]
    b = z[2] + 1j * z[3]
    return np.array([[a, -np.conj(b)], [b, np.conj(a)]])


def random_sl2c(seed) -> np.ndarray:
    """Complex-Gaussian 2x2 matrix rescaled to det = 1 exactly."""
    rng = np.random.default_rng(seed)
    while True:
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        det = np.linalg.det(m)
        if abs(det) >= 1e-6:
            return m / np.sqrt(det)
