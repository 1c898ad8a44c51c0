"""The Stokes-picture identities at n = 5..10 against bounds that scale with
the state: a det-1 filter A on every qubit takes rho to rho' = A rho A^dagger,
and each residual is held to c * n * eps times the size of the terms that
cancel (Higham 2002, ch. 3). S^2 is a difference of sums of squares, so its
terms add up to the filtered purity P_f = sum |rho'_ij|^2; the Lorentz route
is held entrywise against the largest Stokes component of rho'. The seeded
draws take ranks 1 to 4 in turn."""

import numpy as np
import pytest

from stokesinv import qstate, slocc, stokes

EPS = np.finfo(float).eps
# Draws per qubit count: one draw at n = 10 costs about 0.1 s.
DRAWS = {5: 20, 6: 20, 7: 20, 8: 20, 9: 4, 10: 4}


def _filtered(n, k):
    rho = qstate.random_mixed(n, 1 + k % 4, [n, k])
    ops = [qstate.random_sl2c([n, k, q]) for q in range(n)]
    return rho, ops, slocc.apply_local_to_density(rho, slocc.LocalOperation(ops))


@pytest.mark.parametrize("n", sorted(DRAWS))
def test_identities_within_scaled_bounds(n):
    for k in range(DRAWS[n]):
        rho, ops, after = _filtered(n, k)
        p_f = float(np.sum(np.abs(after.matrix) ** 2))
        s_after = stokes.stokes_tensor(after)
        s2 = stokes.minkowski_invariant(s_after)
        # SLOCC invariance and the spin-flip identity: worst over these draws
        # 0.044 and 0.032 n eps P_f
        assert abs(s2 - stokes.minkowski_invariant(stokes.stokes_tensor(rho))) <= n * EPS * p_f
        assert abs(s2 - stokes.invariant_via_spinflip(after)) <= n * EPS * p_f
        # the Lorentz correspondence: worst over these draws 0.91 n eps max|S'|
        via = slocc.apply_lorentz_to_stokes(stokes.stokes_tensor(rho), [slocc.lorentz_of(a) for a in ops])
        largest = np.max(np.abs(s_after.values))
        assert np.max(np.abs(via.values - s_after.values)) <= 8 * n * EPS * largest
