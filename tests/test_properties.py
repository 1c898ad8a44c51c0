"""Property tests of the Stokes-picture identities on random mixed states of
1 to 7 qubits, so both the even and the odd (lone first qubit) pair layouts
are drawn, on indefinite Hermitian matrices of the same sizes, and of the
CKW residuals on random pure three-qubit states. The example count and
derandomization come from conftest.py."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from stokesinv import estimator, measures, qstate, slocc, stokes  # noqa: E402
from stokesinv.errors import TOLERANCES  # noqa: E402

from oracles import stokes_per_qubit_reference  # noqa: E402


@st.composite
def mixed_states(draw):
    n = draw(st.integers(1, 7))
    rank = draw(st.integers(1, min(4, 2**n)))
    return qstate.random_mixed(n, rank, draw(st.integers(0, 2**32 - 1)))


@st.composite
def indefinite_hermitian(draw):
    """A Hermitian matrix of 1 to 7 qubits with unit-variance complex Gaussian
    entries and its first diagonal entry pushed below minus its Frobenius
    norm, so it is never PSD."""
    n = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.standard_normal((2**n, 2**n)) + 1j * rng.standard_normal((2**n, 2**n))
    h = 0.5 * (g + g.conj().T)
    h[0, 0] -= np.linalg.norm(h) + 1.0
    return qstate.DensityMatrix(h)


@st.composite
def filtered_states(draw):
    """A random mixed state and one seeded random SL(2,C) operator per qubit."""
    rho = draw(mixed_states())
    seed = draw(st.integers(0, 2**32 - 1))
    ops = [qstate.random_sl2c([seed, k]) for k in range(rho.n_qubits)]
    return rho, slocc.LocalOperation(ops)


@hypothesis.given(mixed_states())
def test_round_trip(rho):
    back = stokes.density_from_stokes(stokes.stokes_tensor(rho))
    assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-13


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


@hypothesis.given(indefinite_hermitian())
def test_spin_flip_sum_is_the_overlap_off_the_psd_cone(rho):
    want = stokes.hs_overlap(rho, stokes.spin_flip(rho))
    scale = max(1.0, float(np.linalg.norm(rho.matrix)) ** 2)
    assert abs(stokes.invariant_via_spinflip(rho) - want) <= 1e-13 * scale


@hypothesis.given(indefinite_hermitian())
def test_round_trip_off_the_psd_cone(rho):
    back = stokes.density_from_stokes(stokes.stokes_tensor(rho))
    scale = max(1.0, float(np.max(np.abs(rho.matrix))))
    assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-13 * scale
    assert not back.psd_ok


@hypothesis.given(filtered_states())
def test_slocc_invariance_of_the_minkowski_norm(case):
    rho, op = case
    before = stokes.minkowski_invariant(stokes.stokes_tensor(rho))
    after = stokes.stokes_tensor(slocc.apply_local_to_density(rho, op))
    scale = max(1.0, stokes.euclidean_purity(after))
    assert abs(stokes.minkowski_invariant(after) - before) <= 1e-13 * scale


@hypothesis.given(mixed_states())
def test_euclidean_norm_is_purity(rho):
    s = stokes.stokes_tensor(rho)
    assert stokes.euclidean_purity(s) == pytest.approx(rho.purity(), abs=1e-13)


@hypothesis.given(filtered_states())
def test_lorentz_density_correspondence(case):
    rho, op = case
    via_lorentz = slocc.apply_lorentz_to_stokes(
        stokes.stokes_tensor(rho), [slocc.lorentz_of(a) for a in op.ops]
    )
    want = stokes.stokes_tensor(slocc.apply_local_to_density(rho, op)).values
    assert np.max(np.abs(via_lorentz.values - want)) <= 1e-13 * np.max(np.abs(want))


@hypothesis.given(st.integers(0, 2**32 - 1))
def test_ckw_residuals_within_the_monogamy_tolerance(seed):
    rep = measures.ckw_report(qstate.random_pure(3, seed))
    worst = max(abs(v) for k, v in rep.items() if k.startswith("residual_"))
    assert worst <= TOLERANCES["monogamy"]
