"""Generalized Stokes tensor, its Minkowskian and Euclidean norms, and the
spin-flip route to the invariant."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import BadStateName, DimensionMismatch, NonHermitianInput, check
from .qstate import DensityMatrix, _log2, as_density, kron_all

# Identity and the three Pauli matrices, indexed 0..3.
_SIGMA = np.array(
    [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
    dtype=complex,
)

# Single-qubit maps between a flattened 2x2 matrix and its 4 Stokes components.
# _FWD[i, 2a+b] = sigma_i[b, a]  so that S_i = sum_ab rho[a,b] sigma_i[b,a]
_FWD = _SIGMA.transpose(0, 2, 1).reshape(4, 4)
# _BWD[2a+b, i] = sigma_i[a, b] / 2  realizing rho = (1/2) sum_i S_i sigma_i
_BWD = _SIGMA.reshape(4, 4).T / 2.0


def _pair_map(m: np.ndarray) -> np.ndarray:
    """kron(m, m) for a leg map whose columns index a qubit's (r c) entries,
    with the two-qubit block's columns reordered from (r1 c1 r2 c2) to
    (r1 r2 c1 c2)."""
    k = m.shape[0] ** 2
    return np.kron(m, m).reshape(k, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(k, 16)


# The same maps on a two-qubit block; _BWD2's rows are the block's entries,
# copied C-ordered: a transposed view changes density_from_stokes's bits at n = 2.
_FWD2 = _pair_map(_FWD)
_BWD2 = np.ascontiguousarray(_pair_map(_BWD.T).T)


@dataclass(eq=False)
class StokesTensor:
    """Real 4^n-component tensor, whose length fixes `n_qubits` (else BadStateName),
    addressed by the flattened multi-index m = sum_k i_k * 4^(n-k): qubit 1 most significant."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(-1)
        if _log2(self.values.size) % 2:  # odd, or -1 for no power of 2
            raise BadStateName("value count %d is not a power of 4" % self.values.size)

    @property
    def n_qubits(self) -> int:
        return _log2(self.values.size) // 2


@functools.lru_cache(maxsize=8)  # the 7 (leg, n) keys one stokes_dense bench item asks for
def _kron_power(leg: tuple, n: int) -> np.ndarray:
    """leg^(x n), qubit 1 most significant, shared and read-only: (-1)^weight over the
    Stokes index for (1, -1, -1, -1), (-1)^popcount over a matrix index for (1, -1), and
    tomography's pooled counts for (3, 1, 1, 1). The largest, 8*4^n bytes, is a Stokes tensor's."""
    table = kron_all([np.array(leg, dtype=float)] * n)
    table.flags.writeable = False
    return table


def _block_legs(one, two, n: int) -> list:
    """The pair layout of n qubits, one item per block: `one` for a lone
    first qubit when n is odd, then `two` for each two-qubit block, so the
    innermost block is a pair. Items are leg maps, or the widths 2 and 4."""
    return [one] * (n % 2) + [two] * (n // 2)


def _to_pair_tensor(matrix: np.ndarray, n: int) -> np.ndarray:
    """Reorder a 2^n x 2^n matrix so that each leg is one block's (row, col)
    pair: (r c) for a lone first qubit, then (r1 r2 c1 c2) per two-qubit block."""
    b = _block_legs(2, 4, n)  # the blocks' row (or column) widths
    perm = [x for k in range(len(b)) for x in (k, len(b) + k)]
    return matrix.reshape(b + b).transpose(perm).reshape(-1)


def _from_pair_tensor(t: np.ndarray, n: int) -> np.ndarray:
    b = _block_legs(2, 4, n)
    t = t.reshape([w for w in b for _ in range(2)])
    perm = [2 * k for k in range(len(b))] + [2 * k + 1 for k in range(len(b))]
    return t.transpose(perm).reshape(2**n, 2**n)


def _pair_legs(mats) -> list:
    """Fuse per-qubit leg maps pairwise, kron(m1, m2), after a lone first map
    when their number is odd, so that `_apply_legs` makes half the passes on
    the pair layout of `_block_legs`."""
    lone, rest = list(mats[: len(mats) % 2]), mats[len(mats) % 2 :]
    return lone + [np.kron(a, b) for a, b in zip(rest[::2], rest[1::2])]


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
    flat = _apply_legs(_to_pair_tensor(rho.matrix, n), _block_legs(_FWD, _FWD2, n))
    residue = float(np.abs(flat.imag).max())
    check("imag_residue", residue, NonHermitianInput, "Stokes imaginary residue")
    return StokesTensor(flat.real.copy())  # a view would pin the complex buffer


def density_from_stokes(s: StokesTensor) -> DensityMatrix:
    """Inverse of `stokes_tensor`, O(n 4^n). The result is Hermitian by
    construction but not necessarily PSD for arbitrary input; its `psd_ok`
    runs that check when it is read.

    The first leg maps the real input with one real product against the leg
    map's interleaved (Re, Im) columns, viewed as complex: no complex copy of
    the input, and the same bits as a complex first pass."""
    n = s.n_qubits
    first, *rest = _block_legs(_BWD, _BWD2, n)
    k = first.shape[0]
    # w[i, 2j] + 1j w[i, 2j+1] = first[j, i]; kept a transposed view like the
    # complex pass's operand, so the one-row product at n = 2 keeps its bits too
    w = np.stack([first.real, first.imag], axis=1).reshape(2 * k, k).T
    # a temporary, not a local, so the next pass can free it
    t = _apply_legs((s.values.reshape(k, -1).T @ w).view(complex), rest)
    return DensityMatrix(_from_pair_tensor(t, n))


def minkowski_invariant(s: StokesTensor) -> float:
    """Stokes scalar: 2^-n sum over the tensor of (-1)^weight * value^2."""
    n = s.n_qubits
    return float(np.dot(_kron_power((1.0, -1.0, -1.0, -1.0), n), s.values**2) / 2**n)


def euclidean_purity(s: StokesTensor) -> float:
    """Euclidean squared-norm 2^-n sum value^2; equals Tr(rho^2)."""
    return float(np.dot(s.values, s.values) / 2**s.n_qubits)


def spin_flip(rho) -> DensityMatrix:
    """rho -> (sigma_y^xn) conj(rho) (sigma_y^xn). sigma_y^xn is a signed
    anti-diagonal permutation, so entry (r, c) is conj(rho) with rows and
    columns reversed, times (-1)^(popcount r + popcount c)."""
    rho = as_density(rho)
    sign = _kron_power((1.0, -1.0), rho.n_qubits)
    out = np.conjugate(rho.matrix[::-1, ::-1])  # the one 4^n allocation
    out *= sign[:, None]
    out *= sign
    return DensityMatrix(out)


def hs_overlap(a, b) -> float:
    """Hilbert-Schmidt overlap Tr(a b) of two states, sizes compared before rho is built."""
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatch("overlap of %d- and %d-qubit states" % (a.n_qubits, b.n_qubits))
    a, b = as_density(a), as_density(b)
    val = complex(np.einsum("ij,ji->", a.matrix, b.matrix))
    relative = abs(val.imag) / max(1.0, abs(val.real))
    check("overlap_imag", relative, NonHermitianInput, "overlap's relative imaginary part")
    return float(val.real)


def invariant_via_spinflip(rho) -> float:
    """The Stokes scalar computed as Tr(rho spin_flip(rho)), without forming
    the flipped matrix. For Hermitian rho the trace is
    sum_(r,c) (-1)^(popcount r + popcount c) rho[r, c] rho[~r, ~c], with ~r the
    reversed index 2^n - 1 - r. The terms at (r, c) and (~r, ~c) are equal, so
    it is twice the sum over the top half of the rows, one contiguous pass.

    For non-Hermitian rho the result differs from Tr(rho spin_flip(rho)) only
    at second order in the anti-Hermitian part."""
    rho = as_density(rho)
    m = rho.matrix
    h = m.shape[0] // 2
    sign = _kron_power((1.0, -1.0), rho.n_qubits)
    prod = m[:h] * m[h:][::-1, ::-1]
    return float(2.0 * (sign[:h] @ prod @ sign).real)
