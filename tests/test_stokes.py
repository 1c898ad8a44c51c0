import itertools
import re
import tracemalloc

import numpy as np
import pytest

from stokesinv import errors, estimator, qstate, stokes
from stokesinv.errors import BadStateName, DimensionMismatch, NonHermitianInput

from oracles import (
    apply_legs_reference,
    density_complex_copy_reference,
    density_per_qubit_reference,
    minkowski_bruteforce,
    psd_ok_reference,
    spin_flip_bruteforce,
    stokes_per_qubit_reference,
    stokes_tensor_bruteforce,
)


EPS = np.finfo(float).eps


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
        assert stokes._FWD2.flags.c_contiguous and stokes._BWD2.flags.c_contiguous

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
        eps = errors.TOLERANCES["imag_residue"] / 2**n
        with pytest.raises(NonHermitianInput):
            stokes.stokes_tensor(qstate.DensityMatrix(rho + 2j * eps * np.eye(2**n)))
        shifted = rho + 0.5j * eps * np.eye(2**n)
        stokes.stokes_tensor(qstate.DensityMatrix(shifted))
        # with no tolerance left the error names the residue: the per-qubit one
        resid = np.max(np.abs(stokes_per_qubit_reference(shifted, n).imag))
        monkeypatch.setitem(errors.TOLERANCES, "imag_residue", 0.0)
        message = re.escape("residue %g" % resid) + "$"
        with pytest.raises(NonHermitianInput, match=message):
            stokes.stokes_tensor(qstate.DensityMatrix(shifted))


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
        for i, s_ii in enumerate([1.0, 1.0, -1.0, 1.0]):
            assert s.values[4 * i + i] == pytest.approx(s_ii)
        assert np.sum(np.abs(s.values) > 1e-12) == 4

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_random_matches_bruteforce(self, n):
        rho = qstate.random_mixed(n, 2**n, 100 + n)
        s = stokes.stokes_tensor(rho)
        assert np.max(np.abs(s.values - stokes_tensor_bruteforce(rho.matrix, n))) < 1e-10


class TestDensityFromStokes:
    def test_single_identity(self):
        rho = stokes.density_from_stokes(stokes.StokesTensor([1, 0, 0, 0]))
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
        rho = stokes.density_from_stokes(stokes.StokesTensor([1, 0, 0, 1.2]))
        vals = np.linalg.eigvalsh(rho.matrix)
        assert np.allclose(sorted(vals), [(1 - 1.2) / 2, (1 + 1.2) / 2])
        assert not rho.psd_ok

    def test_bad_length(self):
        with pytest.raises(BadStateName):
            stokes.StokesTensor([1, 0, 0])

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("scale", [1.0, 1.5, 3.0])
    def test_psd_ok_matches_eager_reference(self, n, scale):
        # scale > 1 stretches every non-identity component: Bloch vectors
        # past the unit ball, mostly unphysical tensors
        rho = qstate.random_mixed(n, min(4, 2**n), 300 + n)
        s = stokes.stokes_tensor(rho)
        values = s.values * scale
        values[0] = 1.0
        back = stokes.density_from_stokes(stokes.StokesTensor(values))
        assert back.psd_ok == psd_ok_reference(back.matrix)
        if scale == 1.0:
            assert back.psd_ok

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_product_past_unit_ball_is_not_psd(self, n):
        one = np.array([1.0, 0.72, 0.96, 0.0])  # |r| = 1.2
        values = qstate.kron_all([one] * n)
        back = stokes.density_from_stokes(stokes.StokesTensor(values))
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

    @pytest.mark.parametrize("n", range(1, 9))
    def test_bits_of_the_complex_copy_route(self, n):
        values = np.random.default_rng(500 + n).standard_normal(4**n)
        back = stokes.density_from_stokes(stokes.StokesTensor(values))
        assert np.array_equal(back.matrix, density_complex_copy_reference(values, n))

    def test_two_buffers_at_most(self):
        n = 8
        s = stokes.stokes_tensor(qstate.random_mixed(n, 2, 428))
        peak = _traced_peak(stokes.density_from_stokes, s)
        # a pass's input and output, then the last output and the result
        # without the block layout; a buffer kept across passes makes three
        assert peak <= 2.05 * 16 * 4**n


def _traced_peak(f, *args):
    """Bytes `f(*args)` allocates at its peak, its result included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


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

    def test_sign_vector_cache_is_bounded(self):
        for n in range(1, 9):
            stokes.minkowski_invariant(stokes.stokes_tensor(qstate.maximally_mixed(n)))
        assert stokes._kron_power.cache_info().currsize <= 8


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
        rho = qstate.DensityMatrix(m)
        assert float(np.trace(m @ m).real) == pytest.approx(0.75, abs=1e-12)
        s = stokes.stokes_tensor(rho)
        assert stokes.euclidean_purity(s) == pytest.approx(0.75, abs=1e-9)


class TestParitySigns:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_kron_power(self, n):
        want = qstate.kron_all([np.array([1.0, -1.0])] * n)
        got = stokes._kron_power((1.0, -1.0), n)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestKronPower:
    """The one cached table rule: each leg's n-th Kronecker power, read-only."""

    @pytest.mark.parametrize("leg", [(1.0, -1.0, -1.0, -1.0), (1.0, -1.0), (3.0, 1.0, 1.0, 1.0)])
    def test_bits_of_the_kron_power(self, leg):
        for n in range(1, 13):
            want = qstate.kron_all([np.array(list(leg))] * n)
            got = stokes._kron_power(leg, n)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            del want, got
            stokes._kron_power.cache_clear()  # 128 MB tables at n = 12: keep none

    def test_tables_are_read_only(self):
        table = stokes._kron_power((1.0, -1.0), 3)
        with pytest.raises(ValueError):
            table[0] = 2.0
        with pytest.raises(ValueError):
            table *= -1.0
        assert np.array_equal(stokes._kron_power((1.0, -1.0), 3), [1, -1, -1, 1, -1, 1, 1, -1])

    def test_shared_and_bounded(self):
        first = stokes._kron_power((1.0, -1.0, -1.0, -1.0), 2)
        assert stokes._kron_power((1.0, -1.0, -1.0, -1.0), 2) is first
        assert stokes._kron_power.cache_info().maxsize == 8


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

    def test_one_allocation(self):
        n = 8
        rho = qstate.random_mixed(n, 2, 428)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = stokes.spin_flip(rho)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the result itself; the margin holds numpy's broadcasting buffer
        # (8192 elements), the 2^n sign vector and small objects, not a
        # second 4^n array
        assert out.matrix.nbytes == 16 * 4**n
        assert 16 * 4**n <= peak <= 1.25 * 16 * 4**n

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

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_odd_pure_states_have_zero_invariant(self, n):
        """(sigma_y)^xn is antisymmetric for odd n, so psi^T (sigma_y)^xn psi
        and with it S^2 = |<psi|psi~>|^2 vanish on both routes."""
        for seed in range(3):
            psi = qstate.random_pure(n, 1100 * n + seed)
            assert abs(stokes.minkowski_invariant(stokes.stokes_tensor(psi))) <= n * EPS
            assert abs(stokes.invariant_via_spinflip(psi)) <= n * EPS

    def test_half_matrix_product_only(self):
        n = 8
        rho = qstate.random_mixed(n, 2, 428)
        # the top half's products, 8*4^n bytes; the flipped matrix alone
        # would be 16*4^n
        assert _traced_peak(stokes.invariant_via_spinflip, rho) <= 0.55 * 16 * 4**n


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
