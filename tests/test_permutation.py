"""Relabelling the qubits commutes with every map of the package: the Stokes
map and its inverse, `measure_report`, local filtering in both pictures and
infinite-shot tomography. Each pair of routes agrees within 4 n eps of the
largest entry it compares, or of the trace for `measure_report`'s numbers
(of four times it for the concurrence)."""

import numpy as np
import pytest

from stokesinv import estimator, measures, qstate, slocc, stokes

EPS = np.finfo(float).eps


def _perms(n: int) -> list:
    """The reversal, a cyclic shift and one seeded permutation of n qubits."""
    rng = np.random.default_rng(40 + n)
    found = {tuple(range(n))[::-1], tuple(np.roll(range(n), 1)), tuple(rng.permutation(n))}
    return sorted(found)


def _permute_density(m: np.ndarray, perm) -> np.ndarray:
    """m with its qubit k + 1 taken from qubit perm[k] + 1, rows and columns alike."""
    n = len(perm)
    axes = list(perm) + [n + p for p in perm]
    return m.reshape((2,) * (2 * n)).transpose(axes).reshape(2**n, 2**n)


def _permute_legs(values: np.ndarray, perm) -> np.ndarray:
    """A Stokes tensor with its leg k taken from leg perm[k]."""
    return values.reshape((4,) * len(perm)).transpose(perm).reshape(-1)


def _assert_close(got, want, n, scale=None):
    """max |got - want| within 4 n eps of `scale`, by default want's largest entry."""
    want = np.asarray(want)
    scale = np.max(np.abs(want)) if scale is None else scale
    assert np.max(np.abs(np.asarray(got) - want)) <= 4 * n * EPS * scale


def _cases(max_n: int):
    return [(n, perm) for n in range(1, max_n + 1) for perm in _perms(n)]


def _state(n):
    return qstate.random_mixed(n, min(2**n, 3), 4100 * n)


def _ops(n):
    return [qstate.random_sl2c(4200 * n + k) for k in range(n)]


@pytest.mark.parametrize("n, perm", _cases(7))
def test_stokes_map_and_inverse(n, perm):
    rho = _state(n)
    moved = qstate.DensityMatrix(_permute_density(rho.matrix, perm))
    s = stokes.stokes_tensor(rho)
    _assert_close(stokes.stokes_tensor(moved).values, _permute_legs(s.values, perm), n)
    back = stokes.density_from_stokes(stokes.StokesTensor(_permute_legs(s.values, perm)))
    _assert_close(back.matrix, _permute_density(stokes.density_from_stokes(s).matrix, perm), n)


@pytest.mark.parametrize("n, perm", _cases(7))
def test_measure_report(n, perm):
    rho = _state(n)
    rep = measures.measure_report(rho)
    moved = measures.measure_report(qstate.DensityMatrix(_permute_density(rho.matrix, perm)))
    # each measure is scaled by the state's trace, 1
    want = [rep.per_qubit_polarization_sq[p] for p in perm]
    _assert_close(moved.per_qubit_polarization_sq, want, n, scale=1.0)
    _assert_close(moved.purity, rep.purity, n, scale=1.0)
    _assert_close(moved.stokes_scalar, rep.stokes_scalar, n, scale=1.0)
    if n == 2:
        # an eigensolver and an SVD: up to 19 eps over 3000 swapped random states
        _assert_close(moved.concurrence, rep.concurrence, n, scale=4.0)


@pytest.mark.parametrize("n, perm", _cases(7))
def test_local_filter_in_both_pictures(n, perm):
    rho, ops = _state(n), _ops(n)
    moved_ops = [ops[p] for p in perm]
    out = slocc.apply_local_to_density(rho, slocc.LocalOperation(ops))
    moved = slocc.apply_local_to_density(
        qstate.DensityMatrix(_permute_density(rho.matrix, perm)), slocc.LocalOperation(moved_ops)
    )
    _assert_close(moved.matrix, _permute_density(out.matrix, perm), n)
    s = stokes.stokes_tensor(rho)
    ls = [slocc.lorentz_of(a) for a in ops]
    boosted = slocc.apply_lorentz_to_stokes(s, ls)
    moved_s = stokes.StokesTensor(_permute_legs(s.values, perm))
    got = slocc.apply_lorentz_to_stokes(moved_s, [ls[p] for p in perm])
    _assert_close(got.values, _permute_legs(boosted.values, perm), n)


@pytest.mark.parametrize("n, perm", _cases(5))
def test_infinite_shot_tomography(n, perm):
    rho = _state(n)
    moved = qstate.DensityMatrix(_permute_density(rho.matrix, perm))
    want = estimator.tomography_simulate(rho, 0, 0, infinite=True).stokes_hat.values
    got = estimator.tomography_simulate(moved, 0, 0, infinite=True).stokes_hat.values
    _assert_close(got, _permute_legs(want, perm), n)
