"""Property tests of the Stokes-picture identities on random mixed states of
1 to 7 qubits, so both the even and the odd (lone first qubit) pair layouts
are drawn. The example count and derandomization come from conftest.py."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from stokesinv import estimator, qstate, stokes  # noqa: E402

from oracles import stokes_per_qubit_reference  # noqa: E402


@st.composite
def mixed_states(draw):
    n = draw(st.integers(1, 7))
    rank = draw(st.integers(1, min(4, 2**n)))
    return qstate.random_mixed(n, rank, draw(st.integers(0, 2**32 - 1)))


@hypothesis.given(mixed_states())
def test_round_trip(rho):
    back = stokes.density_from_stokes(stokes.stokes_tensor(rho))
    assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-13
    assert back.normalized


@hypothesis.given(mixed_states())
def test_matches_per_qubit_route(rho):
    s = stokes.stokes_tensor(rho)
    want = stokes_per_qubit_reference(rho.matrix, rho.n_qubits).real
    assert np.max(np.abs(s.values - want)) <= 1e-15 * np.max(np.abs(want))


@hypothesis.given(mixed_states())
def test_infinite_tomography_is_the_stokes_tensor(rho):
    res = estimator.tomography_simulate(rho, 0, 0, infinite=True)
    exact = stokes.stokes_tensor(rho)
    assert np.max(np.abs(res.stokes_hat.values - exact.values)) <= 1e-13
    assert res.invariant_hat == pytest.approx(
        stokes.minkowski_invariant(exact), abs=1e-13
    )


@hypothesis.given(mixed_states())
def test_minkowski_is_spin_flip(rho):
    lhs = stokes.minkowski_invariant(stokes.stokes_tensor(rho))
    assert stokes.invariant_via_spinflip(rho) == pytest.approx(lhs, abs=1e-13)
