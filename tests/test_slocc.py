import numpy as np
import pytest

from stokesinv import measures, qstate, slocc, stokes
from stokesinv.errors import (
    DimensionMismatch,
    NotUnimodular,
    OutOfRange,
    ParseError,
)

from oracles import apply_legs_reference, apply_local_bruteforce, lorentz_bruteforce, random_su2

G = np.diag([1.0, -1.0, -1.0, -1.0])


def schmidt09():
    return qstate.schmidt_pair(float(np.arccos(np.sqrt(0.9))))


def boost_op():
    return np.diag([3**-0.5, 3**0.5]).astype(complex)


class TestLorentzOf:
    def test_identity(self):
        assert np.allclose(slocc.lorentz_of(np.eye(2, dtype=complex)), np.eye(4))

    def test_diagonal_boost(self):
        alpha = 1.7
        a = np.diag([alpha, 1 / alpha]).astype(complex)
        l = slocc.lorentz_of(a)
        assert np.max(np.abs(l - lorentz_bruteforce(a))) < 1e-12
        c, s = np.cosh(2 * np.log(alpha)), np.sinh(2 * np.log(alpha))
        want = np.diag([c, 1.0, 1.0, c])
        want[0, 3] = want[3, 0] = s
        assert np.max(np.abs(l - want)) < 1e-12

    def test_i_sigma_x(self):
        a = 1j * np.array([[0, 1], [1, 0]], dtype=complex)
        l = slocc.lorentz_of(a)
        assert np.max(np.abs(l - lorentz_bruteforce(a))) < 1e-12
        assert np.allclose(l, np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_matches_bruteforce(self):
        for seed in range(50):
            a = qstate.random_sl2c(seed)
            assert np.max(np.abs(slocc.lorentz_of(a) - lorentz_bruteforce(a))) <= 1e-14

    def test_metric_preserved(self):
        for seed in range(50):
            l = slocc.lorentz_of(qstate.random_sl2c(seed))
            assert np.max(np.abs(l.T @ G @ l - G)) < 1e-8
            assert l[0, 0] >= 1.0 - 1e-10

    def test_homomorphism(self):
        for seed in range(20):
            a = qstate.random_sl2c(2 * seed)
            b = qstate.random_sl2c(2 * seed + 1)
            lhs = slocc.lorentz_of(a @ b)
            rhs = slocc.lorentz_of(a) @ slocc.lorentz_of(b)
            assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_unitary_gives_rotation_block(self):
        for seed in range(20):
            l = slocc.lorentz_of(random_su2(seed))
            assert np.max(np.abs(l[0] - [1, 0, 0, 0])) < 1e-10
            assert np.max(np.abs(l[:, 0] - [1, 0, 0, 0])) < 1e-10
            r = l[1:, 1:]
            assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-10

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodular):
            slocc.lorentz_of(2.0 * np.eye(2, dtype=complex))


class TestApplyLocalToDensity:
    def test_identity_noop(self):
        rho = qstate.random_mixed(2, 3, 1)
        op = slocc.LocalOperation([np.eye(2)] * 2)
        out = slocc.apply_local_to_density(rho, op)
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-15

    def test_unitary_preserves_trace(self):
        rho = qstate.random_mixed(3, 4, 2)
        op = slocc.LocalOperation([random_su2(s) for s in (5, 6, 7)])
        out = slocc.apply_local_to_density(rho, op)
        assert out.trace == pytest.approx(1.0, abs=1e-10)

    def test_schmidt_filter_gives_bell(self):
        # amplitude bookkeeping: (cos/sqrt3, sqrt3 sin) has norm 0.3+0.3=0.6
        rho = schmidt09().to_density()
        op = slocc.LocalOperation([boost_op(), np.eye(2)])
        out = slocc.apply_local_to_density(rho, op)
        assert out.trace == pytest.approx(0.6, abs=1e-12)
        bell = qstate.bell_state("phi+").to_density().matrix
        assert np.max(np.abs(out.matrix / out.trace - bell)) < 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            slocc.apply_local_to_density(
                qstate.maximally_mixed(2), slocc.LocalOperation([np.eye(2)])
            )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_matches_full_operator(self, n):
        rho = qstate.random_mixed(n, 2, 700 + n)
        ops = [qstate.random_sl2c(710 + 10 * n + k) for k in range(n)]
        out = slocc.apply_local_to_density(rho, slocc.LocalOperation(ops)).matrix
        want = apply_local_bruteforce(rho.matrix, ops)
        assert np.max(np.abs(out - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_single_boost_bit_identical(self, n):
        # the `filter` CLI case: one diagonal boost, identity elsewhere
        rho = qstate.random_mixed(n, 2, 730 + n)
        for k in range(n):
            ops = [np.eye(2, dtype=complex)] * n
            ops[k] = boost_op()
            out = slocc.apply_local_to_density(rho, slocc.LocalOperation(ops))
            assert np.array_equal(out.matrix, apply_local_bruteforce(rho.matrix, ops))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_operator(self, bad):
        with pytest.raises(ParseError):
            slocc.LocalOperation([np.array([[bad, 0], [0, 1]], dtype=complex)])


class TestApplyLorentzToStokes:
    def test_identity_noop(self):
        s = stokes.stokes_tensor(qstate.random_mixed(2, 2, 3))
        out = slocc.apply_lorentz_to_stokes(s, [np.eye(4)] * 2)
        assert np.max(np.abs(out.values - s.values)) < 1e-15

    def test_dim_mismatch(self):
        s = stokes.stokes_tensor(qstate.random_mixed(2, 2, 3))
        with pytest.raises(DimensionMismatch):
            slocc.apply_lorentz_to_stokes(s, [np.eye(4)])

    def test_cross_picture_bell_boost(self):
        rho = qstate.bell_state("phi+").to_density()
        a = np.diag([1.4, 1 / 1.4]).astype(complex)
        via_density = stokes.stokes_tensor(
            slocc.apply_local_to_density(rho, slocc.LocalOperation([a, np.eye(2)]))
        )
        via_lorentz = slocc.apply_lorentz_to_stokes(
            stokes.stokes_tensor(rho), [slocc.lorentz_of(a), np.eye(4)]
        )
        assert np.max(np.abs(via_density.values - via_lorentz.values)) < 1e-10

    def test_rotations_fix_intensity(self):
        s = stokes.stokes_tensor(qstate.random_mixed(3, 3, 4))
        ls = [slocc.lorentz_of(random_su2(s_)) for s_ in (8, 9, 10)]
        out = slocc.apply_lorentz_to_stokes(s, ls)
        assert out.values[0] == pytest.approx(s.values[0], abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_cross_picture_random(self, n):
        for trial in range(10):
            rho = qstate.random_mixed(n, 2, 5000 + 10 * n + trial)
            ops = [qstate.random_sl2c(777 * n + 13 * trial + k) for k in range(n)]
            lhs = stokes.stokes_tensor(
                slocc.apply_local_to_density(rho, slocc.LocalOperation(ops))
            )
            rhs = slocc.apply_lorentz_to_stokes(
                stokes.stokes_tensor(rho), [slocc.lorentz_of(o) for o in ops]
            )
            assert np.max(np.abs(lhs.values - rhs.values)) < 1e-8

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_per_qubit_route(self, n):
        s = stokes.stokes_tensor(qstate.random_mixed(n, min(4, 2**n), 760 + n))
        ls = [slocc.lorentz_of(qstate.random_sl2c(780 + 10 * n + k)) for k in range(n)]
        want = apply_legs_reference(s.values, ls)
        got = slocc.apply_lorentz_to_stokes(s, ls).values
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


class TestFilterState:
    def test_unitary_gain_one(self):
        rho = qstate.random_mixed(2, 2, 8)
        op = slocc.LocalOperation([random_su2(20), random_su2(21)])
        rep = slocc.filter_state(rho, op)
        assert rep.attenuation == pytest.approx(1.0, abs=1e-10)
        assert rep.gain == pytest.approx(1.0, abs=1e-9)

    def test_schmidt_boost(self):
        rep = slocc.filter_state(
            schmidt09(), slocc.LocalOperation([boost_op(), np.eye(2)])
        )
        assert rep.invariant_before == pytest.approx(0.36, abs=1e-10)
        assert rep.attenuation == pytest.approx(0.6, abs=1e-10)
        assert rep.invariant_after_renorm == pytest.approx(1.0, abs=1e-9)
        assert rep.invariant_after_renorm == pytest.approx(
            rep.invariant_before / rep.attenuation**2, abs=1e-10
        )

    def test_bell_boost_decreases(self):
        # boosting a maximally entangled state has attenuation (a^2+a^-2)/2 = 5/3
        rep = slocc.filter_state(
            qstate.bell_state("phi+"),
            slocc.LocalOperation([boost_op(), np.eye(2)]),
        )
        assert rep.attenuation == pytest.approx(5 / 3, abs=1e-10)
        assert rep.gain == pytest.approx(9 / 25, abs=1e-10)
        assert rep.invariant_after_renorm < rep.invariant_before

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodular):
            slocc.filter_state(
                qstate.maximally_mixed(1),
                slocc.LocalOperation([0.5 * np.eye(2, dtype=complex)]),
            )

    def test_operator_count_refused_before_any_4n_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("4^n work before the operator count was checked")

        monkeypatch.setattr(slocc, "stokes_tensor", refuse)
        monkeypatch.setattr(slocc, "as_density", refuse)
        op = slocc.LocalOperation([np.eye(2)] * 9)
        with pytest.raises(DimensionMismatch):
            slocc.filter_state(qstate.ghz_state(10), op)

    @pytest.mark.parametrize("a2", [1e-300, 1e-320])
    def test_attenuation_beyond_float_range(self, a2):
        # 1e-300: the attenuation 5e299 is finite but its square is not;
        # 1e-320: the filtered state itself overflows
        a = np.diag([a2**0.5, a2**-0.5]).astype(complex)
        with pytest.raises(OutOfRange):
            slocc.filter_state(
                qstate.bell_state("phi+"), slocc.LocalOperation([a, np.eye(2)])
            )

    def test_conditional_monotonicity(self):
        kept = 0
        seed = 0
        while kept < 100:
            seed += 1
            rho = qstate.random_mixed(2, 3, 10000 + seed)
            op = slocc.LocalOperation(
                [qstate.random_sl2c(20000 + seed), qstate.random_sl2c(30000 + seed)]
            )
            rep = slocc.filter_state(rho, op)
            if rep.attenuation > 1.0:
                continue
            kept += 1
            assert rep.invariant_after_renorm >= rep.invariant_before - 1e-12

    def test_single_qubit_filter_raises_scalar(self):
        kept = 0
        seed = 0
        while kept < 50:
            seed += 1
            rho = qstate.random_mixed(1, 2, 40000 + seed)
            op = slocc.LocalOperation([qstate.random_sl2c(50000 + seed)])
            rep = slocc.filter_state(rho, op)
            if rep.attenuation > 1.0:
                continue
            kept += 1
            assert rep.invariant_after_renorm >= rep.invariant_before - 1e-12


class TestTwoQubitCovariance:
    """The paper's purification claim at n = 2: a det-1 local filter leaves the
    concurrence and the spin-flip invariant of the unnormalised state as they
    were, so renormalising by the attenuation t is the filter's whole effect."""

    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_concurrence_and_invariant_survive_a_det1_filter(self, rank):
        for seed in range(50):
            rho = qstate.random_mixed(2, rank, 7000 + 100 * rank + seed)
            key = 2 * (100 * rank + seed)
            op = slocc.LocalOperation([qstate.random_sl2c(key), qstate.random_sl2c(key + 1)])
            out = slocc.apply_local_to_density(rho, op)
            t = out.trace
            scale = max(1.0, t)
            assert abs(measures.concurrence(out) - measures.concurrence(rho)) <= 1e-12 * scale
            s2 = stokes.invariant_via_spinflip(out)
            assert abs(s2 - stokes.invariant_via_spinflip(rho)) <= 1e-12 * scale**2
            renorm = slocc.filter_state(rho, op).invariant_after_renorm
            assert abs(renorm - s2 / t**2) <= 1e-12 * (scale / t) ** 2
