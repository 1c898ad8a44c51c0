import itertools
import math
import tracemalloc

import numpy as np
import pytest

from stokesinv import estimator, qstate, stokes
from stokesinv.errors import TOLERANCES, DimensionMismatch, EnsembleAnnihilated, OutOfRange

from oracles import EIGBASIS, tomography_bruteforce


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
        with pytest.raises(OutOfRange):
            estimator.swap_network_estimate(bell(), bell(), 0, 0)

    def test_shot_count_beyond_the_sampler(self):
        rho = bell()
        with pytest.raises(OutOfRange):
            estimator.swap_network_estimate(rho, rho, 2**63, 0)
        rep = estimator.swap_network_estimate(rho, rho, 2**63 - 1, 0)
        assert rep.shots == 2**63 - 1
        assert rep.estimate == pytest.approx(1.0, abs=1e-12)

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

    def test_probability_maps_match_explicit_loop(self):
        # _PROBS[(a, o), (r, c)] = conj(U_a[r, o]) U_a[c, o]; _PROBS2 on a
        # (r1 r2 c1 c2) block
        probs = np.zeros((3, 2, 2, 2), dtype=complex)
        for a, o, r, c in itertools.product(range(3), *[range(2)] * 3):
            u = EIGBASIS[a + 1]
            probs[a, o, r, c] = np.conj(u[r, o]) * u[c, o]
        probs = probs.reshape(6, 4)
        assert np.array_equal(estimator._PROBS, probs)
        probs2 = np.zeros((36, 16), dtype=complex)
        for i, j, r1, r2, c1, c2 in itertools.product(range(6), range(6), *[range(2)] * 4):
            block = 8 * r1 + 4 * r2 + 2 * c1 + c2
            probs2[6 * i + j, block] = probs[i, 2 * r1 + c1] * probs[j, 2 * r2 + c2]
        assert np.array_equal(estimator._PROBS2, probs2)
        assert estimator._PROBS2.flags.c_contiguous

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_bruteforce(self, n):
        for rank, seed, shots in ((1, 3, 1), (2, 8, 250), (2**n, 21, 4000)):
            rho = qstate.random_mixed(n, rank, 900 + seed)
            res = estimator.tomography_simulate(rho, shots, seed)
            want = tomography_bruteforce(rho.matrix, n, shots, seed)
            assert np.array_equal(res.stokes_hat.values, want)
            assert res.invariant_hat == stokes.minkowski_invariant(
                stokes.StokesTensor(want)
            )
            assert res.psd_ok == stokes.density_from_stokes(
                stokes.StokesTensor(want)
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
        assert res.stokes_hat.values[3] == 1.0
        assert abs(res.stokes_hat.values[1]) <= 3 / np.sqrt(1000)
        assert abs(res.stokes_hat.values[2]) <= 3 / np.sqrt(1000)

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

    @pytest.mark.parametrize("n, want", [(2, 0.2675), (3, 0.10125), (4, 0.094097)])
    def test_plug_in_bias_on_the_maximally_mixed_state(self, n, want):
        # every S_i, i != 0, is 0, and a weight-w component pools 100 * 3^(n-w)
        # +-1 outcomes, so E[S_i hat^2] = 1 / (100 * 3^(n-w)) over C(n,w) 3^w
        # components: the bias the unbiased estimate must remove
        closed = 2.0**-n * (
            1 + sum(math.comb(n, w) * (-1) ** w * 3**w / (100 * 3 ** (n - w)) for w in range(1, n + 1))
        )
        assert closed == pytest.approx(want, abs=5e-6)
        state = qstate.maximally_mixed(n)
        hats = [estimator.tomography_simulate(state, 100, seed).invariant_hat for seed in range(400)]
        assert abs(np.mean(hats) - closed) <= 3 * np.std(hats, ddof=1) / np.sqrt(len(hats))

    def test_shot_count_beyond_the_sampler(self):
        with pytest.raises(OutOfRange):
            estimator.tomography_simulate(bell(), 2**63, 0)
        res = estimator.tomography_simulate(bell(), 2**63 - 1, 0)
        assert res.invariant_hat == pytest.approx(1.0, abs=1e-6)

    def test_peak_memory_is_what_the_size_guard_charges(self):
        n = 6
        rho = qstate.random_mixed(n, 2, 950)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            estimator.tomography_simulate(rho, 0, 0, infinite=True)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 24 * 6**n

    @pytest.mark.parametrize("shots, infinite", [(0, True), (1000, False)])
    def test_settings_with_no_outcome_total_refused(self, monkeypatch, shots, infinite):
        # the trace 4e-17 clears a lowered floor, but each outcome probability
        # 1e-17 snaps to 0, so no setting has a total to normalise by
        monkeypatch.setitem(TOLERANCES, "annihilation", 1e-20)
        rho = qstate.DensityMatrix(np.eye(4) * 1e-17)
        with pytest.raises(EnsembleAnnihilated, match="least outcome total"):
            estimator.tomography_simulate(rho, shots, 0, infinite=infinite)

    def test_pooled_counts_come_from_the_cached_table(self):
        stokes._kron_power.cache_clear()
        rho = qstate.random_mixed(3, 2, 77)
        for _ in range(2):
            estimator.tomography_simulate(rho, 0, 0, infinite=True)
        info = stokes._kron_power.cache_info()
        # the pooled counts and minkowski_invariant's sign vector, each built once
        assert (info.misses, info.hits) == (2, 2)
        assert not hasattr(estimator, "kron_all")

    def test_zero_shots_rejected(self):
        with pytest.raises(OutOfRange):
            estimator.tomography_simulate(bell(), 0, 0)
        with pytest.raises(OutOfRange):
            estimator.tomography_simulate(bell(), 5, 0, infinite=True)
