"""The draw rule of the two estimators: `estimator.check_draws` refuses a bad
shot count or a negative seed, `swapnet` and `tomo` apply it before any state
is read, and every non-negative seed seeds the draws as given."""

import hashlib
import json

import numpy as np
import pytest

from stokesinv import cli, estimator, qstate, stokes
from stokesinv.errors import OutOfRange

from oracles import tomography_bruteforce


def _tomo(seed):
    return estimator.tomography_simulate(qstate.w_state(3), 50, seed)


def _swap(seed):
    rho = qstate.random_mixed(2, 2, 11)
    return estimator.swap_network_estimate(rho, stokes.spin_flip(rho), 1000, seed)


def _digest(values):
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()[:16]


class TestCheckDraws:
    def test_negative_seed_refused_by_both_estimators(self):
        rho = qstate.bell_state("phi+").to_density()
        with pytest.raises(OutOfRange, match="seed -1 is negative"):
            estimator.swap_network_estimate(rho, rho, 100, -1)
        with pytest.raises(OutOfRange, match="seed -1 is negative"):
            estimator.tomography_simulate(rho, 100, -1)
        with pytest.raises(OutOfRange, match="seed -1 is negative"):
            estimator.tomography_simulate(rho, 0, -1, infinite=True)
        with pytest.raises(OutOfRange, match="seed -5 is negative"):
            estimator.check_draws(10, np.int64(-5), infinite=False)

    def test_shot_messages_unchanged(self):
        with pytest.raises(OutOfRange, match=r"^shot count 0 outside 1\.\.9223372036854775807$"):
            estimator.check_draws(0, 0, infinite=False)
        with pytest.raises(OutOfRange, match=r"^shot count 5 outside 0\.\.0 in infinite mode$"):
            estimator.check_draws(5, 0, infinite=True)

    def test_no_upper_bound_on_the_seed(self):
        estimator.check_draws(1, 10**40, infinite=False)
        assert _tomo(10**40).seed == 10**40

    def test_one_check_for_shots_and_seeds(self):
        assert not hasattr(estimator, "check_shot_range")


# Values the draws gave before the seed was taken as given (it was masked to
# 63 bits then), for w:3 tomography at 50 shots and a two-qubit swap network.
_PINNED = {
    0: ("0.0014716049382716145", "0.1379999999999999"),
    7: ("-0.1432", "0.17999999999999994"),
    2**63 - 1: ("0.005837037037037002", "0.19399999999999995"),
}


class TestSeedsKeepTheirDraws:
    @pytest.mark.parametrize("seed", sorted(_PINNED))
    def test_pinned_values(self, seed):
        tomo, swap = _PINNED[seed]
        assert repr(_tomo(seed).invariant_hat) == tomo
        assert repr(_swap(seed).estimate) == swap

    @pytest.mark.parametrize("seed", [np.int64(7), np.uint32(7)])
    def test_numpy_integer_seeds_draw_as_python_ints(self, seed):
        assert _digest(_tomo(seed).stokes_hat.values) == _digest(_tomo(7).stokes_hat.values)
        assert _swap(seed).estimate == _swap(7).estimate
        assert type(_tomo(seed).seed) is int

    def test_seed_2_to_the_63_has_its_own_stream(self):
        zero, big = _tomo(0), _tomo(2**63)
        assert not np.array_equal(zero.stokes_hat.values, big.stokes_hat.values)
        assert repr(big.invariant_hat) == "-0.04420740740740736"

    def test_oracle_seeds_as_given(self):
        rho = qstate.random_mixed(2, 2, 40)
        for seed in (0, 2**63, 10**40):
            res = estimator.tomography_simulate(rho, 300, seed)
            want = tomography_bruteforce(rho.matrix, 2, 300, seed)
            assert np.array_equal(res.stokes_hat.values, want)
        assert not np.array_equal(
            tomography_bruteforce(rho.matrix, 2, 300, 0),
            tomography_bruteforce(rho.matrix, 2, 300, 2**63),
        )


_REFUSED = [
    (["swapnet", "--seed", "-1"], "seed -1 is negative"),
    (["swapnet", "--shots", "-1"], "shot count -1 outside 1..9223372036854775807"),
    (["swapnet", "--shots", "0"], "shot count 0 outside 1..9223372036854775807"),
    (["tomo", "--seed", "-1"], "seed -1 is negative"),
    (["tomo", "--shots", "0", "--seed", "-1"], "seed -1 is negative"),
    (["tomo", "--shots", "-1"], "shot count -1 outside 1..9223372036854775807"),
]


@pytest.mark.parametrize("argv, message", _REFUSED, ids=[" ".join(a) for a, _ in _REFUSED])
def test_draw_inputs_refused_before_any_state_is_read(capsys, monkeypatch, argv, message):
    def refuse(spec):
        raise AssertionError("state %r read before the draw inputs were checked" % spec)

    monkeypatch.setattr(cli, "parse_state", refuse)
    code = cli.main(argv + ["--state", "mixed:max:12"])
    out, err = capsys.readouterr()
    assert (code, out, err.count("\n")) == (3, "", 1)
    assert json.loads(err) == {"error": "OutOfRange", "message": message, "code": 3}
