"""The paper's inequalities between the Stokes scalar S^2 = Tr(rho rho~), the
purity Tr rho^2 and the concurrence, on fixed seeds, each within 1e-12:
C^2 <= S^2 <= Tr rho^2 for two qubits, S^2 <= Tr rho^2 for n = 3..6, and the
Osborne-Verstraete monogamy bound 2 (1 - Tr rho_k^2) >= sum_(j != k) C^2(rho_kj)
for pure states of n = 3..6 qubits, which the W state saturates. The Werner
family pins the two-qubit comparison in closed form, within 1e-14."""

import itertools

import numpy as np
import pytest

from stokesinv import measures, qstate, stokes

TOL = 1e-12


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_two_qubit_concurrence_invariant_purity_chain(rank):
    for seed in range(50):
        rep = measures.measure_report(qstate.random_mixed(2, rank, 1000 * rank + seed))
        assert rep.concurrence**2 <= rep.stokes_scalar + TOL
        assert rep.stokes_scalar <= rep.purity + TOL


@pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3, 0.5, 0.9, 1.0])
def test_werner_family(p):
    """p |psi-><psi-| + (1 - p) I/4 has C = max(0, (3p - 1)/2) and
    S^2 = Tr rho^2 = (1 + 3p^2)/4: C = 0 on the separable range p <= 1/3,
    where S^2 stays at least 1/4."""
    singlet = qstate.bell_state("psi-").to_density().matrix
    rho = qstate.DensityMatrix(p * singlet + (1.0 - p) * np.eye(4) / 4.0)
    assert measures.concurrence(rho) == pytest.approx(max(0.0, (3.0 * p - 1.0) / 2.0), abs=1e-14)
    want = (1.0 + 3.0 * p**2) / 4.0
    assert stokes.minkowski_invariant(stokes.stokes_tensor(rho)) == pytest.approx(want, abs=1e-14)
    assert stokes.invariant_via_spinflip(rho) == pytest.approx(want, abs=1e-14)
    assert rho.purity() == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_invariant_at_most_purity(n):
    for seed in range(10):
        rho = qstate.random_mixed(n, 1 + seed % 4, 2000 * n + seed)
        rep = measures.measure_report(rho)
        assert rep.stokes_scalar <= rep.purity + TOL


def _monogamy_residuals(psi) -> list:
    """2 (1 - Tr rho_k^2) - sum_(j != k) C^2(rho_kj) for each qubit k."""
    rho = psi.to_density()
    n = psi.n_qubits
    residuals = []
    for k in range(1, n + 1):
        one_vs_rest = 2.0 * (1.0 - qstate.partial_trace(rho, [k]).purity())
        pairs = sum(
            measures.concurrence(qstate.partial_trace(rho, [k, j])) ** 2
            for j in range(1, n + 1)
            if j != k
        )
        residuals.append(one_vs_rest - pairs)
    return residuals


@pytest.mark.parametrize(
    "n, kind", list(itertools.product([3, 4, 5, 6], ["random", "ghz", "w"]))
)
def test_osborne_verstraete_bound(n, kind):
    if kind == "random":
        states = [qstate.random_pure(n, 3000 * n + seed) for seed in range(3)]
    else:
        states = [{"ghz": qstate.ghz_state, "w": qstate.w_state}[kind](n)]
    for psi in states:
        residuals = _monogamy_residuals(psi)
        assert min(residuals) >= -TOL
        if kind == "w":
            assert max(residuals) <= TOL
