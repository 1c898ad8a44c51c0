"""Generalized Stokes tensor, its Minkowskian and Euclidean norms, and the
spin-flip route to the invariant."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BadLength, DimensionMismatch, NonHermitianInput
from .qstate import SIGMA, DensityMatrix, as_density, kron_all

IMAG_TOL = 1e-8

# Single-qubit maps between a flattened 2x2 matrix and its 4 Stokes components.
# _FWD[i, 2a+b] = sigma_i[b, a]  so that S_i = sum_ab rho[a,b] sigma_i[b,a]
_FWD = SIGMA.transpose(0, 2, 1).reshape(4, 4)
# _BWD[2a+b, i] = sigma_i[a, b] / 2  realizing rho = (1/2) sum_i S_i sigma_i
_BWD = SIGMA.reshape(4, 4).T / 2.0


@dataclass(eq=False)
class StokesTensor:
    """Real 4^n-component tensor addressed by the flattened multi-index
    m = sum_k i_k * 4^(n-k), i.e. the first qubit's index is most significant."""

    n_qubits: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        if self.values.size != 4**self.n_qubits:
            raise BadLength(
                "expected %d values, got %d" % (4**self.n_qubits, self.values.size)
            )

    def __getitem__(self, digits) -> float:
        return float(self.values[flatten_index(digits)])

    def to_json_dict(self) -> dict:
        return {"n": self.n_qubits, "values": [float(v) for v in self.values]}


def flatten_index(digits) -> int:
    m = 0
    for d in digits:
        m = 4 * m + d
    return m


@functools.lru_cache(maxsize=None)
def _sign_vector(n: int) -> np.ndarray:
    """(-1)^weight over the flattened multi-index, as a tensor-power of
    (1, -1, -1, -1)."""
    return kron_all([np.array([1.0, -1.0, -1.0, -1.0])] * n)


def _to_pair_tensor(matrix: np.ndarray, n: int) -> np.ndarray:
    """Reshape a 2^n x 2^n matrix to a (4,)*n tensor with per-qubit
    (row, col) pairs as axes."""
    t = matrix.reshape((2,) * (2 * n))
    perm = [x for k in range(n) for x in (k, n + k)]
    return t.transpose(perm).reshape((4,) * n)


def _from_pair_tensor(t: np.ndarray, n: int) -> np.ndarray:
    t = t.reshape((2, 2) * n)
    perm = [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]
    return t.transpose(perm).reshape(2**n, 2**n)


def _apply_legs(t: np.ndarray, mats) -> np.ndarray:
    """Contract mats[k] onto leg k of t, leg 0 most significant; returns it flat.
    Each pass maps the leading leg and writes it last, contiguous, so the legs
    end in their original order and BLAS reads the transposed operand as is."""
    for m in mats:
        t = t.reshape(m.shape[1], -1).T @ m.T
    return t.reshape(-1)


def stokes_tensor(rho) -> StokesTensor:
    """Map a density matrix (normalization not required) to its generalized
    Stokes tensor S[i1..in] = Tr(rho sigma_i1 x ... x sigma_in)."""
    rho = as_density(rho)
    n = rho.n_qubits
    flat = _apply_legs(_to_pair_tensor(rho.matrix, n), [_FWD] * n)
    resid = float(np.max(np.abs(flat.imag))) if flat.size else 0.0
    if resid > IMAG_TOL:
        raise NonHermitianInput(
            "Stokes component has imaginary residue %g" % resid
        )
    return StokesTensor(n, flat.real.copy())  # no view pinning the complex buffer


def density_from_stokes(s: StokesTensor) -> DensityMatrix:
    """Inverse of `stokes_tensor`. The result is Hermitian by construction but
    not necessarily PSD for arbitrary input; `psd_ok` records the check."""
    n = s.n_qubits
    m = _from_pair_tensor(_apply_legs(s.values.astype(complex), [_BWD] * n), n)
    rho = DensityMatrix(n, m, normalized=abs(np.trace(m).real - 1.0) <= 1e-10)
    herm = 0.5 * (m + m.conj().T)
    rho.psd_ok = bool(np.min(np.linalg.eigvalsh(herm)) >= -1e-10)
    return rho


def minkowski_invariant(s: StokesTensor) -> float:
    """Stokes scalar: 2^-n sum over the tensor of (-1)^weight * value^2."""
    n = s.n_qubits
    return float(np.dot(_sign_vector(n), s.values**2) / 2**n)


def euclidean_purity(s: StokesTensor) -> float:
    """Euclidean squared-norm 2^-n sum value^2; equals Tr(rho^2)."""
    return float(np.dot(s.values, s.values) / 2**s.n_qubits)


def spin_flip(rho) -> DensityMatrix:
    """rho -> (sigma_y^xn) conj(rho) (sigma_y^xn). sigma_y^xn is a signed
    anti-diagonal permutation, so entry (r, c) is conj(rho) with rows and
    columns reversed, times (-1)^(popcount r + popcount c)."""
    rho = as_density(rho)
    sign = kron_all([np.array([1.0, -1.0])] * rho.n_qubits)
    out = rho.matrix.conj()[::-1, ::-1] * sign[:, None]
    out *= sign
    return DensityMatrix(rho.n_qubits, out, normalized=rho.normalized)


def hs_overlap(a, b) -> float:
    """Hilbert-Schmidt overlap Tr(a b) of two density matrices."""
    a, b = as_density(a), as_density(b)
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatch("overlap of %d- and %d-qubit states" % (a.n_qubits, b.n_qubits))
    val = np.einsum("ij,ji->", a.matrix, b.matrix)
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise NonHermitianInput("overlap has imaginary part %g" % val.imag)
    return float(val.real)


def invariant_via_spinflip(rho) -> float:
    """The Stokes scalar computed as Tr(rho spin_flip(rho))."""
    rho = as_density(rho)
    return hs_overlap(rho, spin_flip(rho))
