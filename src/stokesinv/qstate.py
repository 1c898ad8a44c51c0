"""Dense complex linear algebra and n-qubit state construction.

Convention used everywhere in this package: qubit 1 is the leftmost tensor
factor, i.e. the most significant bit of the computational-basis index.
"""

from __future__ import annotations

import ctypes
import functools
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    TOLERANCES,
    BadStateName,
    BadSubsystem,
    NonHermitianInput,
    NotPositiveSemidefinite,
    OutOfRange,
    check,
)


def _hold_freed_blocks() -> bool:
    """Have glibc keep freed blocks of up to 32 MiB in the heap (mmap threshold
    32 MiB, the most mallopt accepts on 64-bit glibc; trim threshold 64 MiB), as
    its own dynamic thresholds do after a 32 MiB free. A dense pass then reuses
    resident pages instead of faulting in zeroed ones for each 4^n temporary.
    Process-wide; off glibc, or where mallopt refuses (32-bit glibc caps the mmap
    threshold at 16 MiB), it returns False and sets no trim threshold."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    # glibc's malloc.h: M_MMAP_THRESHOLD is -3, M_TRIM_THRESHOLD is -1
    return bool(mallopt(-3, 32 << 20)) and bool(mallopt(-1, 64 << 20))


_hold_freed_blocks()


def _hermitian_part(m: np.ndarray, name: str) -> np.ndarray:
    """(m + m^dagger) / 2, once max |m - m^dagger| passes tolerance `name`."""
    h = m.conj().T
    check(name, float(np.max(np.abs(m - h))), NonHermitianInput, "anti-Hermitian residue")
    return 0.5 * (m + h)


def kron_all(mats) -> np.ndarray:
    """Tensor product of `mats` with the first factor most significant."""
    return functools.reduce(np.kron, mats)


def psd_part(m: np.ndarray, name: str) -> np.ndarray:
    """The Hermitian part of `m`, refused unless its anti-Hermitian residue and
    minus its least eigenvalue pass tolerance `name`. It keeps its bits when
    the least eigenvalue passes "psd" too; below that its eigenvalues are
    clipped at 0, so every later "psd" check passes it."""
    h = _hermitian_part(m, name)
    least = np.linalg.eigvalsh(h)[0]
    check(name, -least, NotPositiveSemidefinite, "minus the least eigenvalue")
    if -least <= TOLERANCES["psd"]:
        return h
    vals, vecs = np.linalg.eigh(h)  # about 3 eigvalsh: only a projected matrix pays it
    return (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T


def sqrt_psd(m: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root of `psd_part(m, "psd")`, which refuses `m`
    outside tolerance "psd" and otherwise keeps its bits; its eigenvalues
    are clamped to 0."""
    vals, vecs = np.linalg.eigh(psd_part(m, "psd"))
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def _log2(length: int) -> int:
    """n for a length of 2^n >= 1, and -1 for any other length (0 included)."""
    return length.bit_length() - 1 if length > 0 and length & (length - 1) == 0 else -1


@dataclass(frozen=True, eq=False)
class PureState:
    """2^n amplitudes, qubit 1 the MSB; their count fixes `n_qubits` (else BadStateName)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if _log2(amps.size) < 0:
            raise BadStateName("amplitude count %d is not a power of 2" % amps.size)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_qubits(self) -> int:
        return _log2(self.amplitudes.size)

    @property
    def norm_sq(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def to_density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(eq=False)
class DensityMatrix:
    """2^n x 2^n density matrix, whose side fixes `n_qubits` (else BadStateName). Its trace
    need not be 1: a det-1 filter leaves a state of trace `attenuation`, read by `trace`."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        shape = self.matrix.shape
        if len(shape) != 2 or shape[0] != shape[1] or _log2(shape[0]) < 0:
            raise BadStateName("matrix shape %s is not (2^n, 2^n)" % (shape,))

    @property
    def n_qubits(self) -> int:
        return _log2(self.matrix.shape[0])

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    @property
    def psd_ok(self) -> bool:
        """Hermitian part PSD within tolerance "psd", recomputed (O(8^n)) on every read."""
        least = np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T))[0]
        return bool(-least <= TOLERANCES["psd"])

    def purity(self) -> float:
        return float(np.einsum("ij,ji->", self.matrix, self.matrix).real)


def as_density(state) -> DensityMatrix:
    if isinstance(state, PureState):
        return state.to_density()
    return state


def partial_trace(rho, keep) -> DensityMatrix:
    """Trace out every qubit not in `keep`, distinct 1-based indices read before rho is built."""
    n = rho.n_qubits
    keep = sorted(keep)
    if not keep or keep[0] < 1 or keep[-1] > n or len(set(keep)) < len(keep):
        raise BadSubsystem("keep=%r invalid for %d qubits" % (keep, n))
    rho = as_density(rho)
    t = rho.matrix.reshape((2,) * (2 * n))
    # axes: qubit k+1's row is k, its column n+k, or k again when traced out
    col = [n + k if k + 1 in keep else k for k in range(n)]
    out = [k - 1 for k in keep] + [n + k - 1 for k in keep]
    sub = np.einsum(t, list(range(n)) + col, out)
    m = len(keep)
    return DensityMatrix(sub.reshape(2**m, 2**m))


# ---------------------------------------------------------------------------
# Named states

def _refuse_beyond_memory(nbytes: int, what: str) -> None:
    """Raise OutOfRange, before any allocation, when `what` would take more
    than this machine's physical memory."""
    if nbytes > os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"):
        raise OutOfRange("%s exceeds physical memory" % what)


def _checked_dim(n: int) -> int:
    """2^n for n >= 1, refused before any allocation when the 16*4^n-byte
    density matrix of n qubits would exceed this machine's physical memory.
    The exponent is capped at 64, whose 2^132 bytes no memory holds, so a
    huge n is refused without forming 4^n."""
    if n < 1:
        raise BadStateName("a state needs n >= 1 qubits, got %d" % n)
    nbytes = 16 * 4 ** min(n, 64)
    _refuse_beyond_memory(nbytes, "%d qubits: a 16*4^%d-byte density matrix" % (n, n))
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
    return PureState(v)


def ghz_state(n: int) -> PureState:
    if n < 2:
        raise BadStateName("ghz needs n >= 2")
    v = np.zeros(_checked_dim(n), dtype=complex)
    v[0] = v[-1] = 1 / np.sqrt(2)
    return PureState(v)


def w_state(n: int) -> PureState:
    if n < 2:
        raise BadStateName("w needs n >= 2")
    v = np.zeros(_checked_dim(n), dtype=complex)
    for k in range(n):
        v[1 << k] = 1 / np.sqrt(n)
    return PureState(v)


def basis_state(bits: str) -> PureState:
    if not bits or any(c not in "01" for c in bits):
        raise BadStateName("basis bitstring must be nonempty over {0,1}")
    n = len(bits)
    v = np.zeros(_checked_dim(n), dtype=complex)
    v[int(bits, 2)] = 1.0
    return PureState(v)


def schmidt_pair(theta: float) -> PureState:
    """Two-qubit state cos(theta)|00> + sin(theta)|11>."""
    if not 0 <= theta <= np.pi / 2:
        raise BadStateName("schmidt angle must be in [0, pi/2]")
    v = np.zeros(4, dtype=complex)
    v[0] = np.cos(theta)
    v[3] = np.sin(theta)
    return PureState(v)


def maximally_mixed(n: int) -> DensityMatrix:
    d = _checked_dim(n)
    return DensityMatrix(np.eye(d, dtype=complex) / d)


# ---------------------------------------------------------------------------
# Seeded random states and operators

def random_pure(n: int, seed) -> PureState:
    """Haar-random pure state via normalized complex Gaussian amplitudes."""
    d = _checked_dim(n)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(z / np.linalg.norm(z))


def random_mixed(n: int, rank: int, seed) -> DensityMatrix:
    """Mixture of `rank` Haar-random pure states with flat Dirichlet weights
    w_k, formed as one Gram product A A^dagger: column k of A is
    sqrt(w_k) z_k / |z_k| for a complex Gaussian z_k. It draws the weights,
    then each z_k's real and imaginary parts. The result is Hermitian to
    rounding and is the only 2^n x 2^n allocation."""
    d = _checked_dim(n)
    if not 1 <= rank <= d:
        raise OutOfRange("rank %d not in 1..%d" % (rank, d))
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(rank))
    a = np.empty((rank, d), dtype=complex)  # row k is column k of A
    for k, p in enumerate(w):
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        a[k] = np.sqrt(p) / np.linalg.norm(z) * z
    return DensityMatrix(a.T @ a.conj())


def random_sl2c(seed) -> np.ndarray:
    """Complex-Gaussian 2x2 matrix rescaled to det = 1 exactly."""
    rng = np.random.default_rng(seed)
    while True:
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        det = np.linalg.det(m)
        if abs(det) >= TOLERANCES["sl2c_det"]:
            return m / np.sqrt(det)
