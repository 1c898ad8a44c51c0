import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from stokesinv import cli, qstate, stokes
from stokesinv.errors import (
    BadStateName,
    BadSubsystem,
    NonHermitianInput,
    NotPositiveSemidefinite,
    OutOfRange,
)

from oracles import PAULIS, partial_trace_bruteforce, random_mixed_outer_reference, random_su2

I2 = np.eye(2, dtype=complex)


def bell_rho():
    return qstate.bell_state("phi+").to_density().matrix


class TestKron:
    def test_identity(self):
        assert np.allclose(qstate.kron_all([I2, I2]), np.eye(4))

    def test_sigma_z_left(self):
        assert np.allclose(
            qstate.kron_all([PAULIS[3], I2]), np.diag([1, 1, -1, -1])
        )

    def test_bell_xx_expectation(self):
        # frozen from the explicit 4x4 trace: Tr(rho_Bell sigma_x x sigma_x) = 1
        xx = qstate.kron_all([PAULIS[1], PAULIS[1]])
        assert np.trace(bell_rho() @ xx).real == pytest.approx(1.0, abs=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(0)
        a, b, c = (rng.standard_normal((2, 2)) for _ in range(3))
        lhs = qstate.kron_all([qstate.kron_all([a, b]), c])
        rhs = qstate.kron_all([a, qstate.kron_all([b, c])])
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestSqrtPsd:
    def test_identity(self):
        assert np.allclose(qstate.sqrt_psd(np.eye(4, dtype=complex)), np.eye(4))

    def test_diag(self):
        assert np.allclose(
            qstate.sqrt_psd(np.diag([4.0, 0.0]).astype(complex)), np.diag([2.0, 0.0])
        )

    def test_projector_is_own_root(self):
        rho = bell_rho()
        assert np.max(np.abs(qstate.sqrt_psd(rho) - rho)) < 1e-10

    def test_square_recovers(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        m = z @ z.conj().T
        r = qstate.sqrt_psd(m)
        assert np.max(np.abs(r @ r - m)) < 1e-8

    def test_rejects_negative(self):
        with pytest.raises(NotPositiveSemidefinite):
            qstate.sqrt_psd(np.diag([1.0, -0.5]).astype(complex))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput, match="psd"):
            qstate.sqrt_psd(np.array([[0, 1], [0, 0]], dtype=complex))


def bell_with_eigenvalue(x):
    """The phi+ projector plus x |01><01|: a matrix whose least eigenvalue is x."""
    m = bell_rho()
    m[1, 1] = x
    return m


class TestPsdPart:
    def test_inside_the_psd_tolerance_keeps_the_hermitian_part_bit_for_bit(self):
        m = bell_with_eigenvalue(-5e-11)
        assert np.array_equal(qstate.psd_part(m, "document"), 0.5 * (m + m.conj().T))

    def test_below_the_psd_tolerance_is_clipped(self):
        out = qstate.psd_part(bell_with_eigenvalue(-5e-9), "document")
        assert np.linalg.eigvalsh(out)[0] >= -1e-10
        assert np.max(np.abs(out - bell_rho())) <= 1e-15

    def test_below_the_named_tolerance_is_refused(self):
        with pytest.raises(NotPositiveSemidefinite, match="document"):
            qstate.psd_part(bell_with_eigenvalue(-2e-8), "document")

    def test_anti_hermitian_residue_beyond_the_named_tolerance_is_refused(self):
        m = bell_rho()
        m[0, 3] += 2e-8
        with pytest.raises(NonHermitianInput, match="document"):
            qstate.psd_part(m, "document")


class TestPartialTrace:
    def test_product_factorizes(self):
        rng = np.random.default_rng(7)
        a = qstate.random_mixed(1, 2, rng.integers(2**31))
        b = qstate.random_mixed(1, 2, rng.integers(2**31))
        joint = qstate.DensityMatrix(np.kron(a.matrix, b.matrix))
        assert np.max(np.abs(qstate.partial_trace(joint, [1]).matrix - a.matrix)) < 1e-12
        assert np.max(np.abs(qstate.partial_trace(joint, [2]).matrix - b.matrix)) < 1e-12

    def test_ghz_pair(self):
        rho = qstate.ghz_state(3).to_density()
        got = qstate.partial_trace(rho, [1, 2]).matrix
        want = partial_trace_bruteforce(rho.matrix, 3, [1, 2])
        assert np.max(np.abs(got - want)) < 1e-12
        # frozen oracle value: (|00><00| + |11><11|) / 2
        expl = np.zeros((4, 4), dtype=complex)
        expl[0, 0] = expl[3, 3] = 0.5
        assert np.max(np.abs(got - expl)) < 1e-12

    def test_w_pair(self):
        rho = qstate.w_state(3).to_density()
        got = qstate.partial_trace(rho, [1, 2]).matrix
        want = partial_trace_bruteforce(rho.matrix, 3, [1, 2])
        assert np.max(np.abs(got - want)) < 1e-12
        # frozen: (2/3)|psi+><psi+| + (1/3)|00><00|
        psip = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
        expl = (2 / 3) * np.outer(psip, psip.conj())
        expl[0, 0] += 1 / 3
        assert np.max(np.abs(got - expl)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_bruteforce_exactly(self, n):
        rho = qstate.random_mixed(n, 2, 150 + n)
        for keep in ([1], [n], [1, n], list(range(1, n + 1, 2)), list(range(1, n + 1))):
            keep = sorted(set(keep))
            got = qstate.partial_trace(rho, keep).matrix
            assert np.array_equal(got, partial_trace_bruteforce(rho.matrix, n, keep))

    def test_trace_preserved(self):
        rho = qstate.random_mixed(4, 5, 11)
        for keep in ([1], [2, 4], [1, 2, 3]):
            red = qstate.partial_trace(rho, keep)
            assert red.trace == pytest.approx(1.0, abs=1e-12)
            assert np.max(np.abs(red.matrix - red.matrix.conj().T)) < 1e-12

    def test_bad_subsystem(self):
        rho = qstate.maximally_mixed(2)
        with pytest.raises(BadSubsystem):
            qstate.partial_trace(rho, [])
        with pytest.raises(BadSubsystem):
            qstate.partial_trace(rho, [3])
        for keep in ([0, 1], [1, 1], [2, 1, 2]):  # a repeat is refused, not merged
            with pytest.raises(BadSubsystem):
                qstate.partial_trace(rho, keep)


class TestNamedStates:
    def test_bell_phi_plus(self):
        v = qstate.bell_state("phi+").amplitudes
        assert np.allclose(v, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_w3(self):
        v = qstate.w_state(3).amplitudes
        want = np.zeros(8)
        want[[1, 2, 4]] = 1 / np.sqrt(3)
        assert np.allclose(v, want)

    def test_schmidt(self):
        theta = np.arccos(np.sqrt(0.9))
        v = qstate.schmidt_pair(theta).amplitudes
        assert v[0].real == pytest.approx(np.sqrt(0.9))
        assert v[3].real == pytest.approx(np.sqrt(0.1))

    def test_basis(self):
        v = qstate.basis_state("010").amplitudes
        assert v[2] == 1.0 and np.sum(np.abs(v)) == 1.0

    def test_bad_name(self):
        with pytest.raises(BadStateName):
            qstate.bell_state("nope")
        with pytest.raises(BadStateName):
            qstate.ghz_state(1)
        with pytest.raises(BadStateName):
            qstate.schmidt_pair(2.0)


class TestDensityMatrix:
    def test_psd_ok_reads_the_current_matrix(self):
        rho = qstate.DensityMatrix(np.diag([1.5, -0.5]))
        assert not rho.psd_ok
        rho.matrix = np.eye(2, dtype=complex) / 2
        assert rho.psd_ok


# each type from the length of its array (a matrix's side), and the base
# whose n-th power that length is: 2^n amplitudes, 2^n x 2^n, 4^n Stokes values
_BUILD = {
    "amplitudes": (lambda length: qstate.PureState(np.ones(length)), 2),
    "matrix": (lambda length: qstate.DensityMatrix(np.eye(length)), 2),
    "stokes": (lambda length: stokes.StokesTensor(np.ones(length)), 4),
}


class TestQubitCount:
    """Each state type reads its qubit count off the array it holds."""

    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("kind", sorted(_BUILD))
    def test_read_off_the_array(self, kind, n):
        build, base = _BUILD[kind]
        assert build(base**n).n_qubits == n

    @pytest.mark.parametrize("kind, length", [
        ("amplitudes", 0), ("amplitudes", 3), ("amplitudes", 6),
        ("matrix", 0), ("matrix", 3), ("matrix", 6), ("stokes", 8),
    ])
    def test_a_length_of_no_qubit_count_is_refused(self, kind, length):
        with pytest.raises(BadStateName):
            _BUILD[kind][0](length)


class TestRandom:
    def test_pure_normalized(self):
        for seed in range(10):
            psi = qstate.random_pure(3, seed)
            assert psi.norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_is_pure(self):
        rho = qstate.random_mixed(2, 1, 5)
        assert rho.purity() == pytest.approx(1.0, abs=1e-10)

    def test_mixed_valid(self):
        rho = qstate.random_mixed(3, 6, 9)
        cli.state_from_json(cli.state_to_json(rho))  # Hermitian and PSD
        assert rho.trace == pytest.approx(1.0, abs=1e-12)

    def test_bad_rank(self):
        with pytest.raises(OutOfRange, match=r"rank 5 not in 1\.\.4"):
            qstate.random_mixed(2, 5, 0)

    @pytest.mark.parametrize("make", [
        lambda n: qstate.random_mixed(n, 2, 0),
        lambda n: qstate.random_pure(n, 0),
    ], ids=["mixed", "pure"])
    def test_oversized_n_refused(self, make):
        with pytest.raises(OutOfRange):
            make(64)

    @pytest.mark.parametrize("make", [
        lambda: qstate.random_pure(-1, 0),
        lambda: qstate.random_pure(0, 0),
        lambda: qstate.random_mixed(0, 1, 0),
    ], ids=["pure-negative", "pure-zero", "mixed-zero"])
    def test_fewer_than_one_qubit_refused(self, make):
        with pytest.raises(BadStateName):
            make()

    def test_su2(self):
        for seed in range(10):
            u = random_su2(seed)
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
            assert abs(np.linalg.det(u) - 1.0) < 1e-12

    def test_sl2c_det_one(self):
        for seed in range(10):
            m = qstate.random_sl2c(seed)
            assert abs(np.linalg.det(m) - 1.0) < 1e-12

    def test_determinism(self):
        assert np.array_equal(
            qstate.random_pure(3, 42).amplitudes, qstate.random_pure(3, 42).amplitudes
        )
        assert np.array_equal(
            qstate.random_mixed(2, 3, 42).matrix, qstate.random_mixed(2, 3, 42).matrix
        )
        assert np.array_equal(qstate.random_sl2c(42), qstate.random_sl2c(42))


class TestRandomMixedGram:
    """`random_mixed` as one Gram product against the outer-product loop."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_outer_product_loop(self, n):
        for rank in range(1, min(6, 2**n) + 1):
            for seed in (0, 7, 12345):
                m = qstate.random_mixed(n, rank, seed).matrix
                assert np.max(np.abs(m - random_mixed_outer_reference(n, rank, seed))) <= 1e-15
                assert abs(np.trace(m) - 1.0) <= 1e-14
                assert np.max(np.abs(m - m.conj().T)) <= 1e-15
                assert np.linalg.matrix_rank(m, hermitian=True) == rank
                assert np.linalg.eigvalsh(m)[0] >= -1e-15

    def test_peak_memory_is_one_matrix(self):
        n = 8
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            qstate.random_mixed(n, 4, 3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 16 * 4**n


_FAULTS_PER_PASS = """
import resource
from stokesinv import qstate, stokes
rho = qstate.random_mixed(9, 2, 0)
def passes():
    stokes.density_from_stokes(stokes.stokes_tensor(rho))
for _ in range(2):
    passes()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    passes()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


# 32-bit glibc refuses an mmap threshold over 16 MiB, so nothing is set there
_glibc_64 = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc" or sys.maxsize <= 2**32,
    reason="64-bit glibc's mallopt",
)


class TestHeldBlocks:
    @_glibc_64
    def test_dense_passes_reuse_resident_pages(self):
        # a 9-qubit round trip frees and takes back 4 MiB blocks; with them
        # unmapped or trimmed it faults about 1500 zeroed pages per call
        src = os.path.dirname(os.path.dirname(os.path.abspath(qstate.__file__)))
        out = subprocess.run(
            [sys.executable, "-c", _FAULTS_PER_PASS],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert float(out.stdout) < 16

    @_glibc_64
    def test_set_on_glibc(self):
        assert qstate._hold_freed_blocks() is True

    def test_no_libc_changes_nothing(self, monkeypatch):
        def no_library(name):
            raise OSError("no C library")

        monkeypatch.setattr(qstate.ctypes, "CDLL", no_library)
        assert qstate._hold_freed_blocks() is False

    def test_no_mallopt_changes_nothing(self, monkeypatch):
        class NoMallopt:
            def __init__(self, name):
                pass

        monkeypatch.setattr(qstate.ctypes, "CDLL", NoMallopt)
        assert qstate._hold_freed_blocks() is False
