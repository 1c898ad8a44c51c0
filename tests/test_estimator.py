import numpy as np
import pytest

from stokesinv import estimator, qstate, stokes
from stokesinv.errors import DimensionMismatch, ZeroShots

from oracles import tomography_bruteforce


def bell():
    return qstate.bell_state("phi+").to_density()


class TestSwapNetwork:
    def test_self_overlap_pure(self):
        rho = qstate.random_pure(2, 5).to_density()
        rep = estimator.swap_network_estimate(rho, rho, 1000, 0)
        assert rep.estimate == pytest.approx(1.0)
        assert rep.std_error == 0.0
        assert rep.exact == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_states(self):
        a = qstate.basis_state("01").to_density()
        b = qstate.basis_state("10").to_density()
        rep = estimator.swap_network_estimate(a, b, 10**5, 3)
        assert rep.exact == pytest.approx(0.0, abs=1e-15)
        assert abs(rep.estimate) < 4 * rep.std_error + 1e-9

    def test_mixed_concentration(self):
        rho = qstate.maximally_mixed(2)
        hits = 0
        for seed in range(50):
            rep = estimator.swap_network_estimate(rho, rho, 10**6, seed)
            if abs(rep.estimate - 0.25) <= 3 * rep.std_error:
                hits += 1
        assert hits >= 48

    def test_determinism(self):
        rho = qstate.maximally_mixed(2)
        a = estimator.swap_network_estimate(rho, rho, 10**4, 9)
        b = estimator.swap_network_estimate(rho, rho, 10**4, 9)
        assert a.estimate == b.estimate and a.std_error == b.std_error

    def test_errors(self):
        with pytest.raises(DimensionMismatch):
            estimator.swap_network_estimate(
                qstate.maximally_mixed(1), qstate.maximally_mixed(2), 10, 0
            )
        with pytest.raises(ZeroShots):
            estimator.swap_network_estimate(bell(), bell(), 0, 0)

    def test_unbiased(self):
        rho = qstate.random_mixed(2, 2, 13)
        flip = stokes.spin_flip(rho)
        exact = stokes.hs_overlap(rho, flip)
        reps = [
            estimator.swap_network_estimate(rho, flip, 10**4, seed)
            for seed in range(200)
        ]
        mean = np.mean([r.estimate for r in reps])
        typical_se = np.mean([r.std_error for r in reps])
        assert abs(mean - exact) < 4 * typical_se / np.sqrt(200)


class TestTomography:
    def test_infinite_mode_exact(self):
        for state in (bell(), qstate.random_mixed(2, 3, 21), qstate.maximally_mixed(1)):
            res = estimator.tomography_simulate(state, 0, 0, infinite=True)
            exact = stokes.stokes_tensor(state)
            assert np.max(np.abs(res.stokes_hat.values - exact.values)) < 1e-10
            assert res.invariant_hat == pytest.approx(
                stokes.minkowski_invariant(exact), abs=1e-10
            )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_bruteforce(self, n):
        for rank, seed, shots in ((1, 3, 1), (2, 8, 250), (2**n, 21, 4000)):
            rho = qstate.random_mixed(n, rank, 900 + seed)
            res = estimator.tomography_simulate(rho, shots, seed)
            want = tomography_bruteforce(rho.matrix, n, shots, seed)
            assert np.array_equal(res.stokes_hat.values, want)
            assert res.invariant_hat == stokes.minkowski_invariant(
                stokes.StokesTensor(n, want)
            )
            assert res.psd_ok == stokes.density_from_stokes(
                stokes.StokesTensor(n, want)
            ).psd_ok
            inf = estimator.tomography_simulate(rho, 0, seed, infinite=True)
            want = tomography_bruteforce(rho.matrix, n, 0, seed, infinite=True)
            assert np.max(np.abs(inf.stokes_hat.values - want)) <= 1e-15

    def test_matches_bruteforce_with_a_lone_leg(self):
        # n = 5: two fused pairs of legs and a lone one; integer counts keep
        # every sum exact, so finite shots agree bit for bit
        n, seed = 5, 31
        rho = qstate.random_mixed(n, 3, 930)
        res = estimator.tomography_simulate(rho, 200, seed)
        want = tomography_bruteforce(rho.matrix, n, 200, seed)
        assert np.array_equal(res.stokes_hat.values, want)
        inf = estimator.tomography_simulate(rho, 0, seed, infinite=True)
        want = tomography_bruteforce(rho.matrix, n, 0, seed, infinite=True)
        assert np.max(np.abs(inf.stokes_hat.values - want)) <= 1e-15

    def test_bell_finite_shots(self):
        res = estimator.tomography_simulate(bell(), 10**4, 42)
        assert abs(res.invariant_hat - 1.0) <= 0.05
        assert res.stokes_hat.values[0] == 1.0
        assert np.max(np.abs(res.stokes_hat.values[1:])) <= 1.0

    def test_zero_ket_deterministic_z(self):
        res = estimator.tomography_simulate(qstate.basis_state("0").to_density(), 1000, 7)
        assert res.stokes_hat[(3,)] == 1.0
        assert abs(res.stokes_hat[(1,)]) <= 3 / np.sqrt(1000)
        assert abs(res.stokes_hat[(2,)]) <= 3 / np.sqrt(1000)

    def test_determinism(self):
        a = estimator.tomography_simulate(bell(), 500, 11)
        b = estimator.tomography_simulate(bell(), 500, 11)
        assert np.array_equal(a.stokes_hat.values, b.stokes_hat.values)

    @staticmethod
    def _mean_abs_error(state, shots, n_seeds=60):
        exact = stokes.minkowski_invariant(stokes.stokes_tensor(state))
        return np.mean(
            [
                abs(estimator.tomography_simulate(state, shots, s).invariant_hat - exact)
                for s in range(n_seeds)
            ]
        )

    def test_error_shrinks_as_shots_quadruple(self):
        # Bell/GHZ have every nonzero component sampled deterministically, so
        # their error is quadratic in the shot noise and quarters under a 4x
        # shot increase; a generic mixed state is shot-noise dominated and
        # halves.
        for state in (bell(), qstate.ghz_state(3).to_density()):
            ratio = self._mean_abs_error(state, 4000) / self._mean_abs_error(state, 1000)
            assert 0.25 * 0.6 <= ratio <= 0.25 * 1.6
        mixed = qstate.random_mixed(2, 3, 13)
        ratio = self._mean_abs_error(mixed, 4000) / self._mean_abs_error(mixed, 1000)
        assert 0.5 * 0.7 <= ratio <= 0.5 * 1.3

    def test_zero_shots_rejected(self):
        with pytest.raises(ZeroShots):
            estimator.tomography_simulate(bell(), 0, 0)
        with pytest.raises(ZeroShots):
            estimator.tomography_simulate(bell(), 5, 0, infinite=True)


class TestEstimatorCompare:
    def test_bell_budget(self):
        out = estimator.estimator_compare(bell(), 9 * 10**4, 3)
        assert out["tomo"].shots_per_setting == 10**4
        assert abs(out["direct"].estimate - 1.0) <= 3 * out["direct"].std_error + 1e-9
        assert abs(out["tomo"].invariant_hat - 1.0) <= 0.05
        assert out["exact"] == pytest.approx(1.0, abs=1e-10)

    def test_product_near_zero(self):
        out = estimator.estimator_compare(qstate.basis_state("01").to_density(), 10**4, 5)
        assert abs(out["direct"].estimate) < 0.05
        assert abs(out["tomo"].invariant_hat) < 0.1
        assert out["exact"] == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        out = estimator.estimator_compare(qstate.maximally_mixed(2), 9 * 10**4, 1)
        assert abs(out["direct"].estimate - 0.25) < 0.02
        assert abs(out["tomo"].invariant_hat - 0.25) < 0.02
