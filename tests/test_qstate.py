import numpy as np
import pytest

from stokesinv import qstate
from stokesinv.errors import (
    BadRank,
    BadStateName,
    BadSubsystem,
    NonHermitianInput,
    NotPositiveSemidefinite,
)

from oracles import partial_trace_bruteforce

I2 = np.eye(2, dtype=complex)


def bell_rho():
    return qstate.bell_state("phi+").to_density().matrix


class TestKron:
    def test_identity(self):
        assert np.allclose(qstate.kron(I2, I2), np.eye(4))

    def test_sigma_z_left(self):
        assert np.allclose(
            qstate.kron(qstate.SIGMA[3], I2), np.diag([1, 1, -1, -1])
        )

    def test_bell_xx_expectation(self):
        # frozen from the explicit 4x4 trace: Tr(rho_Bell sigma_x x sigma_x) = 1
        xx = qstate.kron(qstate.SIGMA[1], qstate.SIGMA[1])
        assert np.trace(bell_rho() @ xx).real == pytest.approx(1.0, abs=1e-12)

    def test_associativity(self):
        rng = np.random.default_rng(0)
        a, b, c = (rng.standard_normal((2, 2)) for _ in range(3))
        lhs = qstate.kron(qstate.kron(a, b), c)
        rhs = qstate.kron(a, qstate.kron(b, c))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestEigh:
    def test_sigma_z(self):
        vals, _ = qstate.eigh(qstate.SIGMA[3])
        assert np.allclose(vals, [-1, 1])

    def test_maximally_mixed(self):
        vals, _ = qstate.eigh(I2 / 2)
        assert np.allclose(vals, [0.5, 0.5])

    def test_bell_projector(self):
        vals, _ = qstate.eigh(bell_rho())
        assert np.allclose(vals, [0, 0, 0, 1], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            qstate.eigh(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("dim", [2, 8, 17, 64])
    def test_roundtrip(self, dim):
        rng = np.random.default_rng(dim)
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = z + z.conj().T
        vals, vecs = qstate.eigh(m)
        assert np.max(np.abs((vecs * vals) @ vecs.conj().T - m)) < 1e-9
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(dim))) < 1e-9


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


class TestPartialTrace:
    def test_product_factorizes(self):
        rng = np.random.default_rng(7)
        a = qstate.random_mixed(1, 2, rng.integers(2**31))
        b = qstate.random_mixed(1, 2, rng.integers(2**31))
        joint = qstate.DensityMatrix(2, np.kron(a.matrix, b.matrix))
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


class TestDensityMatrix:
    def test_psd_ok_reads_the_current_matrix(self):
        rho = qstate.DensityMatrix(1, np.diag([1.5, -0.5]))
        assert not rho.psd_ok
        rho.matrix = np.eye(2, dtype=complex) / 2
        assert rho.psd_ok


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
        rho.validate()
        assert rho.trace == pytest.approx(1.0, abs=1e-12)

    def test_bad_rank(self):
        with pytest.raises(BadRank):
            qstate.random_mixed(2, 5, 0)

    def test_su2(self):
        for seed in range(10):
            u = qstate.random_su2(seed)
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
