import itertools
import re

import numpy as np
import pytest

from stokesinv import estimator, qstate, stokes
from stokesinv.errors import BadLength, DimensionMismatch, NonHermitianInput

from oracles import (
    apply_legs_reference,
    density_per_qubit_reference,
    minkowski_bruteforce,
    psd_ok_reference,
    spin_flip_bruteforce,
    stokes_per_qubit_reference,
    stokes_tensor_bruteforce,
)


def bell():
    return qstate.bell_state("phi+").to_density()


class TestApplyLegs:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize(
        "m", [stokes._FWD, stokes._BWD, estimator._DIGITS], ids=["FWD", "BWD", "DIGITS"]
    )
    def test_library_maps_bit_identical(self, n, m):
        rng = np.random.default_rng(600 + n)
        shape = (m.shape[1],) * n
        t = rng.standard_normal(shape)
        if m.dtype == complex:
            t = t + 1j * rng.standard_normal(shape)
        got = stokes._apply_legs(t, [m] * n)
        assert np.array_equal(got, apply_legs_reference(t, [m] * n))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_random_real_maps(self, n):
        rng = np.random.default_rng(650 + n)
        t = rng.standard_normal((4,) * n)
        mats = [rng.standard_normal((4, 4)) for _ in range(n)]
        want = apply_legs_reference(t, mats)
        got = stokes._apply_legs(t, mats)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


class TestTwoQubitLegs:
    def test_block_maps_match_explicit_loop(self):
        fwd2 = np.zeros((16, 16), dtype=complex)
        bwd2 = np.zeros((16, 16), dtype=complex)
        digits = itertools.product(range(4), range(4), *[range(2)] * 4)
        for i1, i2, r1, r2, c1, c2 in digits:
            i, block = 4 * i1 + i2, 8 * r1 + 4 * r2 + 2 * c1 + c2
            fwd2[i, block] = stokes._FWD[i1, 2 * r1 + c1] * stokes._FWD[i2, 2 * r2 + c2]
            bwd2[block, i] = stokes._BWD[2 * r1 + c1, i1] * stokes._BWD[2 * r2 + c2, i2]
        assert np.array_equal(stokes._FWD2, fwd2)
        assert np.array_equal(stokes._BWD2, bwd2)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_pair_layout_round_trip_bit_exact(self, n):
        rng = np.random.default_rng(700 + n)
        m = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
        back = stokes._from_pair_tensor(stokes._to_pair_tensor(m, n), n)
        assert np.array_equal(back, m)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_maps_match_per_qubit_route(self, n):
        rho = qstate.random_mixed(n, min(4, 2**n), 720 + n)
        s = stokes.stokes_tensor(rho)
        want = stokes_per_qubit_reference(rho.matrix, n).real
        assert np.max(np.abs(s.values - want)) <= 1e-15 * np.max(np.abs(want))
        back = stokes.density_from_stokes(s).matrix
        want = density_per_qubit_reference(s.values, n)
        assert np.max(np.abs(back - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_imaginary_residue_check(self, n, monkeypatch):
        rho = qstate.random_mixed(n, min(4, 2**n), 740 + n).matrix
        # rho + i eps I has imaginary residue 2^n eps, in the intensity component
        eps = stokes.IMAG_TOL / 2**n
        with pytest.raises(NonHermitianInput):
            stokes.stokes_tensor(qstate.DensityMatrix(n, rho + 2j * eps * np.eye(2**n)))
        shifted = rho + 0.5j * eps * np.eye(2**n)
        stokes.stokes_tensor(qstate.DensityMatrix(n, shifted))
        # with no tolerance left the error names the residue: the per-qubit one
        resid = np.max(np.abs(stokes_per_qubit_reference(shifted, n).imag))
        monkeypatch.setattr(stokes, "IMAG_TOL", 0.0)
        message = re.escape("residue %g" % resid) + "$"
        with pytest.raises(NonHermitianInput, match=message):
            stokes.stokes_tensor(qstate.DensityMatrix(n, shifted))


class TestStokesTensor:
    def test_maximally_mixed_single(self):
        s = stokes.stokes_tensor(qstate.maximally_mixed(1))
        assert np.allclose(s.values, [1, 0, 0, 0])

    def test_zero_ket(self):
        s = stokes.stokes_tensor(qstate.basis_state("0").to_density())
        assert np.allclose(s.values, [1, 0, 0, 1])

    def test_bell_matches_bruteforce(self):
        rho = bell()
        s = stokes.stokes_tensor(rho)
        want = stokes_tensor_bruteforce(rho.matrix, 2)
        assert np.max(np.abs(s.values - want)) < 1e-12
        assert s[(0, 0)] == pytest.approx(1.0)
        assert s[(1, 1)] == pytest.approx(1.0)
        assert s[(2, 2)] == pytest.approx(-1.0)
        assert s[(3, 3)] == pytest.approx(1.0)
        assert np.sum(np.abs(s.values) > 1e-12) == 4

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_matches_bruteforce(self, n):
        rho = qstate.random_mixed(n, 2**n, 100 + n)
        s = stokes.stokes_tensor(rho)
        assert np.max(np.abs(s.values - stokes_tensor_bruteforce(rho.matrix, n))) < 1e-10


class TestDensityFromStokes:
    def test_single_identity(self):
        rho = stokes.density_from_stokes(stokes.StokesTensor(1, [1, 0, 0, 0]))
        assert np.allclose(rho.matrix, np.eye(2) / 2)

    def test_bell_roundtrip(self):
        rho = bell()
        back = stokes.density_from_stokes(stokes.stokes_tensor(rho))
        assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-12
        assert back.psd_ok

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_random_roundtrip(self, n):
        rho = qstate.random_mixed(n, min(4, 2**n), 200 + n)
        back = stokes.density_from_stokes(stokes.stokes_tensor(rho))
        assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-10

    def test_unphysical_tensor_flags_psd(self):
        rho = stokes.density_from_stokes(stokes.StokesTensor(1, [1, 0, 0, 1.2]))
        vals = np.linalg.eigvalsh(rho.matrix)
        assert np.allclose(sorted(vals), [(1 - 1.2) / 2, (1 + 1.2) / 2])
        assert not rho.psd_ok

    def test_bad_length(self):
        with pytest.raises(BadLength):
            stokes.StokesTensor(2, [1, 0, 0])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("scale", [1.0, 1.5, 3.0])
    def test_psd_ok_matches_eager_reference(self, n, scale):
        # scale > 1 stretches every non-identity component: Bloch vectors
        # past the unit ball, mostly unphysical tensors
        rho = qstate.random_mixed(n, min(4, 2**n), 300 + n)
        s = stokes.stokes_tensor(rho)
        values = s.values * scale
        values[0] = 1.0
        back = stokes.density_from_stokes(stokes.StokesTensor(n, values))
        assert back.psd_ok == psd_ok_reference(back.matrix)
        if scale == 1.0:
            assert back.psd_ok

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_product_past_unit_ball_is_not_psd(self, n):
        one = np.array([1.0, 0.72, 0.96, 0.0])  # |r| = 1.2
        values = qstate.kron_all([one] * n)
        back = stokes.density_from_stokes(stokes.StokesTensor(n, values))
        assert not back.psd_ok
        assert not psd_ok_reference(back.matrix)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_no_eigendecomposition(self, n, monkeypatch):
        rho = qstate.random_mixed(n, min(4, 2**n), 400 + n)
        s = stokes.stokes_tensor(rho)

        def refuse(*args, **kwargs):
            raise AssertionError("density_from_stokes ran an eigendecomposition")

        for name in ("eigvalsh", "eigh", "eig"):
            monkeypatch.setattr(np.linalg, name, refuse)
        back = stokes.density_from_stokes(s)
        assert np.max(np.abs(back.matrix - rho.matrix)) < 1e-10
        assert back.normalized


class TestMinkowskiInvariant:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_maximally_mixed(self, n):
        s = stokes.stokes_tensor(qstate.maximally_mixed(n))
        assert stokes.minkowski_invariant(s) == pytest.approx(2.0**-n, abs=1e-12)

    def test_bell_term_by_term(self):
        s = stokes.stokes_tensor(bell())
        got = stokes.minkowski_invariant(s)
        assert got == pytest.approx(minkowski_bruteforce(s.values, 2), abs=1e-12)
        # weights (0,2,2,2) all carry +: (1 + 1 + 1 + 1)/4 = 1
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_product_pure_zero(self):
        s = stokes.stokes_tensor(qstate.basis_state("00").to_density())
        assert stokes.minkowski_invariant(s) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_matches_bruteforce(self, n):
        s = stokes.stokes_tensor(qstate.random_mixed(n, 2, 300 + n))
        assert stokes.minkowski_invariant(s) == pytest.approx(
            minkowski_bruteforce(s.values, n), abs=1e-12
        )


class TestEuclideanPurity:
    def test_maximally_mixed(self):
        s = stokes.stokes_tensor(qstate.maximally_mixed(2))
        assert stokes.euclidean_purity(s) == pytest.approx(0.25, abs=1e-12)

    def test_pure_state(self):
        s = stokes.stokes_tensor(qstate.random_pure(3, 4).to_density())
        assert stokes.euclidean_purity(s) == pytest.approx(1.0, abs=1e-9)

    def test_equal_mixture(self):
        # rho = 0.5|0><0| + 0.5|+><+|; direct Tr(rho^2) oracle gives 0.75
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        m = 0.5 * np.diag([1.0, 0.0]).astype(complex) + 0.5 * np.outer(plus, plus)
        rho = qstate.DensityMatrix(1, m)
        assert float(np.trace(m @ m).real) == pytest.approx(0.75, abs=1e-12)
        s = stokes.stokes_tensor(rho)
        assert stokes.euclidean_purity(s) == pytest.approx(0.75, abs=1e-9)


class TestSpinFlip:
    def test_zero_ket(self):
        out = stokes.spin_flip(qstate.basis_state("0").to_density())
        assert np.allclose(out.matrix, np.diag([0.0, 1.0]))

    def test_bell_invariant(self):
        rho = bell()
        out = stokes.spin_flip(rho)
        want = spin_flip_bruteforce(rho.matrix, 2)
        assert np.max(np.abs(out.matrix - want)) < 1e-12
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-12

    def test_maximally_mixed_fixed(self):
        rho = qstate.maximally_mixed(2)
        assert np.max(np.abs(stokes.spin_flip(rho).matrix - rho.matrix)) < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_bruteforce_exactly(self, n):
        rho = qstate.random_mixed(n, 2, 420 + n)
        want = spin_flip_bruteforce(rho.matrix, n)
        assert np.array_equal(stokes.spin_flip(rho).matrix, want)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_involution_and_hermiticity(self, n):
        rho = qstate.random_mixed(n, 2, 400 + n)
        once = stokes.spin_flip(rho)
        twice = stokes.spin_flip(once)
        assert np.max(np.abs(once.matrix - once.matrix.conj().T)) < 1e-12
        assert np.max(np.abs(twice.matrix - rho.matrix)) < 1e-12


class TestInvariantViaSpinflip:
    def test_pure_single_qubit(self):
        assert stokes.invariant_via_spinflip(
            qstate.random_pure(1, 3).to_density()
        ) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_single(self):
        assert stokes.invariant_via_spinflip(qstate.maximally_mixed(1)) == pytest.approx(
            0.5, abs=1e-12
        )

    def test_w_pair(self):
        rho = qstate.partial_trace(qstate.w_state(3).to_density(), [1, 2])
        assert stokes.invariant_via_spinflip(rho) == pytest.approx(4 / 9, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_minkowski(self, n):
        for seed in range(20):
            rho = qstate.random_mixed(n, min(3, 2**n), 1000 * n + seed)
            lhs = stokes.minkowski_invariant(stokes.stokes_tensor(rho))
            rhs = stokes.invariant_via_spinflip(rho)
            assert abs(lhs - rhs) < 1e-9


class TestHsOverlap:
    def test_self_pure(self):
        rho = qstate.random_pure(2, 8).to_density()
        assert stokes.hs_overlap(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        a = qstate.basis_state("01").to_density()
        b = qstate.basis_state("10").to_density()
        assert stokes.hs_overlap(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_bell_vs_flip(self):
        rho = bell()
        assert stokes.hs_overlap(rho, stokes.spin_flip(rho)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            stokes.hs_overlap(qstate.maximally_mixed(1), qstate.maximally_mixed(2))


class TestSingleQubitRelations:
    def test_purity_and_polarization(self):
        for seed in range(30):
            rho = qstate.random_mixed(1, 2, seed)
            s = stokes.stokes_tensor(rho)
            s2 = stokes.minkowski_invariant(s)
            assert abs(rho.purity() - (1.0 - s2)) < 1e-10
            p2 = float(np.sum(s.values[1:] ** 2))
            assert abs(p2 - (1.0 - 2.0 * s2)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_euclidean_matches_purity(self, n):
        for seed in range(20):
            rho = qstate.random_mixed(n, min(4, 2**n), 2000 * n + seed)
            s = stokes.stokes_tensor(rho)
            assert abs(stokes.euclidean_purity(s) - rho.purity()) < 1e-9
