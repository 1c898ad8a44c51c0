"""Independent brute-force oracles used to freeze expected values.

Everything here deliberately avoids the library's computation paths: Stokes
components come from explicit kron chains and traces, partial traces from
index summation loops, concurrence from the textbook non-Hermitian product.
"""

import functools

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = [I2, SX, SY, SZ]


def kron_chain(mats):
    return functools.reduce(np.kron, mats)


def stokes_component(rho, digits):
    """Tr(rho sigma_d1 x ... x sigma_dn) by explicit construction."""
    return complex(np.trace(rho @ kron_chain([PAULIS[d] for d in digits])))


def stokes_tensor_bruteforce(rho, n):
    import itertools

    vals = np.empty(4**n)
    for m, digits in enumerate(itertools.product(range(4), repeat=n)):
        c = stokes_component(rho, digits)
        assert abs(c.imag) < 1e-8
        vals[m] = c.real
    return vals


def minkowski_bruteforce(vals, n):
    import itertools

    total = 0.0
    for m, digits in enumerate(itertools.product(range(4), repeat=n)):
        weight = sum(1 for d in digits if d != 0)
        total += (-1) ** weight * vals[m] ** 2
    return total / 2**n


def partial_trace_bruteforce(rho, n, keep):
    """Index-summation partial trace; keep is 1-based and sorted."""
    keep0 = [k - 1 for k in keep]
    traced = [k for k in range(n) if k not in keep0]
    m = len(keep0)
    out = np.zeros((2**m, 2**m), dtype=complex)
    for r in range(2**n):
        for c in range(2**n):
            rb = [(r >> (n - 1 - k)) & 1 for k in range(n)]
            cb = [(c >> (n - 1 - k)) & 1 for k in range(n)]
            if any(rb[k] != cb[k] for k in traced):
                continue
            ro = sum(rb[k] << (m - 1 - i) for i, k in enumerate(keep0))
            co = sum(cb[k] << (m - 1 - i) for i, k in enumerate(keep0))
            out[ro, co] += rho[r, c]
    return out


def spin_flip_bruteforce(rho, n):
    f = kron_chain([SY] * n)
    return f @ rho.conj() @ f


def concurrence_bruteforce(rho):
    """Textbook route: eigenvalues of the non-Hermitian product rho rho_tilde."""
    rt = spin_flip_bruteforce(rho, 2)
    ev = np.linalg.eigvals(rho @ rt)
    lam = np.sqrt(np.abs(np.sort(ev.real)[::-1]))
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


def concurrence_flip2_reference(root):
    """Concurrence from a two-qubit state's PSD square root with the spin flip
    as the dense matrix sigma_y x sigma_y: the singular values of
    root (sigma_y x sigma_y) conj(root), the largest less the other three."""
    lam = np.linalg.svd(root @ np.kron(SY, SY) @ root.conj(), compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def lorentz_bruteforce(a):
    l = np.empty((4, 4))
    for mu in range(4):
        for nu in range(4):
            l[mu, nu] = (
                0.5 * np.trace(PAULIS[mu] @ a @ PAULIS[nu] @ a.conj().T).real
            )
    return l


# Eigenvector columns of sigma_1..sigma_3, eigenvalue +1 first.
EIGBASIS = {
    1: np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    2: np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2),
    3: I2,
}


def tomography_bruteforce(rho, n, shots, seed, infinite=False):
    """Pauli tomography one component at a time: every Stokes component sums
    the signed outcomes of each compatible setting in its own loop. Draws
    and probabilities follow the library's seeding exactly, so finite-shot
    values must agree bit for bit."""
    import itertools

    settings = list(itertools.product((1, 2, 3), repeat=n))
    outcomes = list(itertools.product((0, 1), repeat=n))
    components = list(itertools.product(range(4), repeat=n))
    num = np.zeros(4**n)
    den = np.zeros(4**n)
    for j, setting in enumerate(settings):
        u = kron_chain([EIGBASIS[a] for a in setting])
        probs = np.real(np.einsum("ij,jk,ki->i", u.conj().T, rho, u))
        probs = np.clip(probs, 0.0, None)
        probs = probs / probs.sum()
        if infinite:
            freqs, weight = probs, 1.0
        else:
            sub = np.random.SeedSequence([int(seed) & (2**63 - 1), j, 0])
            freqs = np.random.default_rng(sub).multinomial(shots, probs).astype(float)
            weight = float(shots)
        for m, digits in enumerate(components):
            if m == 0:
                continue
            support = [k for k in range(n) if digits[k] != 0]
            if any(setting[k] != digits[k] for k in support):
                continue
            prod = np.array(
                [(-1.0) ** sum(bits[k] for k in support) for bits in outcomes]
            )
            num[m] += float(np.dot(freqs, prod))
            den[m] += weight
    values = np.ones(4**n)
    values[1:] = num[1:] / den[1:]
    return values


def apply_legs_reference(t, mats):
    """One tensordot per leg, the mapped axis moved back in place."""
    t = t.reshape([m.shape[1] for m in mats])
    for k, m in enumerate(mats):
        t = np.moveaxis(np.tensordot(m, t, axes=([1], [k])), 0, k)
    return t.reshape(-1)


def apply_local_bruteforce(rho, ops):
    """(A1 x ... x An) rho (A1 x ... x An)^dagger with the full operator."""
    full = kron_chain(ops)
    return full @ rho @ full.conj().T


def psd_ok_reference(m):
    """The eager PSD verdict: min eigenvalue of the Hermitian part >= -1e-10."""
    return bool(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))) >= -1e-10)


# Single-qubit Stokes maps built from the Pauli list:
# FWD[i, 2a+b] = sigma_i[b, a] and BWD[2a+b, i] = sigma_i[a, b] / 2.
FWD = np.array(PAULIS).transpose(0, 2, 1).reshape(4, 4)
BWD = np.array(PAULIS).reshape(4, 4).T / 2


def stokes_per_qubit_reference(rho, n):
    """Complex Stokes tensor on the per-qubit layout: a 2n-axis transpose to
    (r1 c1 r2 c2 ...), then FWD on every 4-wide leg."""
    perm = [x for k in range(n) for x in (k, n + k)]
    t = rho.reshape((2,) * (2 * n)).transpose(perm)
    return apply_legs_reference(t, [FWD] * n)


def density_per_qubit_reference(values, n):
    """Inverse of stokes_per_qubit_reference: BWD on every leg, then the
    2n-axis transpose back to a 2^n x 2^n matrix."""
    t = apply_legs_reference(np.asarray(values, dtype=complex), [BWD] * n)
    perm = [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]
    return t.reshape((2, 2) * n).transpose(perm).reshape(2**n, 2**n)


def density_complex_copy_reference(values, n):
    """`density_from_stokes` on a complex copy of its real input: BWD on a
    lone first qubit when n is odd, then kron(BWD, BWD) with its block's
    entries reordered to (r1 r2 c1 c2) on each two-qubit block, one product
    per leg, and the block layout undone. The library maps the first leg
    with a real product instead; its bits must equal these."""
    p = np.array(PAULIS)
    bwd2 = np.einsum("iac,jbd->abcdij", p, p).reshape(16, 16) / 4
    t = np.asarray(values, dtype=complex)
    for m in [BWD] * (n % 2) + [bwd2] * (n // 2):
        t = t.reshape(m.shape[1], -1).T @ m.T
    blocks = [2] * (n % 2) + [4] * (n // 2)
    t = t.reshape([w for w in blocks for _ in range(2)])
    perm = [2 * k for k in range(len(blocks))] + [2 * k + 1 for k in range(len(blocks))]
    return t.transpose(perm).reshape(2**n, 2**n)


def random_mixed_outer_reference(n, rank, seed):
    """`random_mixed` as a weighted sum of outer products: the same draws
    (Dirichlet weights, then each vector's real and imaginary parts), one
    normalized vector and one rank-one term at a time."""
    rng = np.random.default_rng(seed)
    d = 2**n
    w = rng.dirichlet(np.ones(rank))
    m = np.zeros((d, d), dtype=complex)
    for p in w:
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        z /= np.linalg.norm(z)
        m += p * np.outer(z, z.conj())
    return m


def random_su2(seed):
    """Haar-uniform SU(2) element."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(4)
    z /= np.linalg.norm(z)
    a = z[0] + 1j * z[1]
    b = z[2] + 1j * z[3]
    return np.array([[a, -np.conj(b)], [b, np.conj(a)]])


def three_tangle_hyperdeterminant(amplitudes):
    """Three-tangle of a pure three-qubit state as 4 |d1 - 2 d2 + 4 d3|, Cayley's
    hyperdeterminant of its 8 amplitudes (Coffman, Kundu & Wootters 2000);
    a[i, j, k] is the amplitude of |ijk>, qubit 1 first."""
    a = np.asarray(amplitudes, dtype=complex).reshape(2, 2, 2)
    d1 = (
        a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2 + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
        + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2 + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2
    )
    d2 = (
        a[0, 0, 0] * a[1, 1, 1] * a[0, 1, 1] * a[1, 0, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 1, 0] * a[0, 0, 1]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 0] * a[0, 0, 1]
        + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1]
    )
    d3 = (
        a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1]
        + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0]
    )
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))
