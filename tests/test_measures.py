import numpy as np
import pytest

from stokesinv import measures, qstate, slocc, stokes
from stokesinv.errors import NegativeTangle, OutOfRange, WrongQubitCount

from oracles import concurrence_bruteforce, random_su2, three_tangle_hyperdeterminant


def w_pair():
    return qstate.partial_trace(qstate.w_state(3).to_density(), [1, 2])


class TestPolarizationSq:
    def test_basis_leg(self):
        rep = measures.measure_report(qstate.basis_state("0").to_density())
        assert rep.per_qubit_polarization_sq[0] == pytest.approx(1.0, abs=1e-12)

    def test_bell_marginals_unpolarized(self):
        rep = measures.measure_report(qstate.bell_state("phi+").to_density())
        for k in (1, 2):
            assert rep.per_qubit_polarization_sq[k - 1] == pytest.approx(0.0, abs=1e-12)

    def test_w3_first_qubit(self):
        # rho_A = diag(2/3, 1/3) so P^2 = (1/3)^2
        rep = measures.measure_report(qstate.w_state(3).to_density())
        assert rep.per_qubit_polarization_sq[0] == pytest.approx(1 / 9, abs=1e-12)

    def test_matches_reduced_purity(self):
        rho = qstate.random_mixed(3, 4, 77)
        rep = measures.measure_report(rho)
        for k in (1, 2, 3):
            reduced = qstate.partial_trace(rho, [k])
            want = 2.0 * reduced.purity() - 1.0
            assert rep.per_qubit_polarization_sq[k - 1] == pytest.approx(want, abs=1e-9)


class TestLinearizedEntropy:
    def test_pure(self):
        assert measures.measure_report(
            qstate.random_pure(2, 1).to_density()
        ).linearized_entropy == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed(self):
        for n, want in ((1, 0.5), (2, 0.75)):
            rep = measures.measure_report(qstate.maximally_mixed(n))
            assert rep.linearized_entropy == pytest.approx(want)


class TestConcurrence:
    def test_bell(self):
        rho = qstate.bell_state("phi+").to_density()
        assert measures.concurrence(rho) == pytest.approx(1.0, abs=1e-10)
        assert concurrence_bruteforce(rho.matrix) == pytest.approx(1.0, abs=1e-8)

    def test_maximally_mixed(self):
        # all four lambdas are 1/4: max(0, -1/2) = 0
        assert measures.concurrence(qstate.maximally_mixed(2)) == 0.0

    def test_w_pair(self):
        assert measures.concurrence(w_pair()) == pytest.approx(2 / 3, abs=1e-10)

    def test_matches_bruteforce(self):
        # the non-Hermitian eigvals route is itself only ~1e-8 accurate
        for seed in range(30):
            rho = qstate.random_mixed(2, 3, 600 + seed)
            assert measures.concurrence(rho) == pytest.approx(
                concurrence_bruteforce(rho.matrix), abs=5e-8
            )

    def test_spin_flip_symmetric(self):
        for seed in range(20):
            rho = qstate.random_mixed(2, 2, 700 + seed)
            assert measures.concurrence(rho) == pytest.approx(
                measures.concurrence(stokes.spin_flip(rho)), abs=1e-9
            )

    def test_wrong_size(self):
        with pytest.raises(WrongQubitCount):
            measures.concurrence(qstate.maximally_mixed(3))


class TestTanglePure2:
    def test_bell(self):
        assert measures.measure_report(qstate.bell_state("phi+")).tangle == pytest.approx(
            1.0, abs=1e-10
        )

    def test_product(self):
        assert measures.measure_report(qstate.basis_state("01")).tangle == pytest.approx(
            0.0, abs=1e-12
        )

    def test_schmidt(self):
        psi = qstate.schmidt_pair(float(np.arccos(np.sqrt(0.9))))
        assert measures.measure_report(psi).tangle == pytest.approx(0.36, abs=1e-9)

    def test_equals_invariant(self):
        for seed in range(50):
            psi = qstate.random_pure(2, 800 + seed)
            s2 = stokes.minkowski_invariant(stokes.stokes_tensor(psi.to_density()))
            assert abs(measures.measure_report(psi).tangle - s2) < 1e-8


class TestEofFromTangle:
    def test_endpoints(self):
        assert measures.eof_from_tangle(0.0) == 0.0
        assert measures.eof_from_tangle(1.0) == pytest.approx(1.0)

    def test_known_value(self):
        # h(0.9) computed directly from the binary entropy
        assert measures.eof_from_tangle(0.36) == pytest.approx(0.4689955935892812, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            measures.eof_from_tangle(1.5)

    @pytest.mark.parametrize("tau", [1.0 + 2e-8, -2e-8])
    def test_just_outside_the_tangle_tolerance(self, tau):
        with pytest.raises(OutOfRange, match="tangle_range"):
            measures.eof_from_tangle(tau)

    def test_inside_the_tangle_tolerance_is_clamped(self):
        assert measures.eof_from_tangle(1.0 + 2e-9) == 1.0
        assert measures.eof_from_tangle(-2e-9) == 0.0

    def test_strictly_increasing(self):
        grid = np.linspace(0.0, 1.0, 1001)
        vals = [measures.eof_from_tangle(t) for t in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestBipartiteTangle:
    """The one-vs-rest tangles C2_A(BC), C2_B(AC), C2_C(AB) of `ckw_report`."""

    def test_ghz_any_cut(self):
        rep = measures.ckw_report(qstate.ghz_state(3))
        for cut in ("A(BC)", "B(AC)", "C(AB)"):
            assert rep["C2_" + cut] == pytest.approx(1.0, abs=1e-12)

    def test_product(self):
        assert measures.ckw_report(qstate.basis_state("000"))["C2_A(BC)"] == pytest.approx(
            0.0, abs=1e-12
        )

    def test_w_cut_a(self):
        assert measures.ckw_report(qstate.w_state(3))["C2_A(BC)"] == pytest.approx(
            8 / 9, abs=1e-12
        )

    def test_report_builds_one_density_matrix(self, monkeypatch):
        to_density = qstate.PureState.to_density
        calls = []

        def counted(psi):
            calls.append(psi)
            return to_density(psi)

        monkeypatch.setattr(qstate.PureState, "to_density", counted)
        measures.ckw_report(qstate.random_pure(3, 5))
        assert len(calls) == 1


class TestThreeTangle:
    def test_ghz(self):
        assert measures.ckw_report(qstate.ghz_state(3))["tau_ABC"] == pytest.approx(1.0, abs=1e-9)

    def test_w(self):
        assert measures.ckw_report(qstate.w_state(3))["tau_ABC"] == pytest.approx(0.0, abs=1e-8)

    def test_product(self):
        assert measures.ckw_report(qstate.basis_state("000"))["tau_ABC"] == pytest.approx(
            0.0, abs=1e-10
        )

    def test_relabeling_invariance(self):
        # which qubit plays the special role must not matter
        for seed in range(20):
            psi = qstate.random_pure(3, 900 + seed)
            rho = psi.to_density()
            taus = []
            for a, b, c in ((1, 2, 3), (2, 1, 3), (3, 1, 2)):
                red_a = qstate.partial_trace(rho, [a])
                tau = (
                    2.0 * (1.0 - red_a.purity())
                    - measures.concurrence(qstate.partial_trace(rho, sorted([a, b]))) ** 2
                    - measures.concurrence(qstate.partial_trace(rho, sorted([a, c]))) ** 2
                )
                taus.append(tau)
            assert max(taus) - min(taus) < 1e-8

    def test_negative_three_tangle_bound(self, monkeypatch):
        """GHZ has C2_A(BC) = 1 and S2_AB = S2_AC = 1/2; pair concurrences with
        C2_AB = C2_AC = (1 - tau) / 2 make the three-tangle tau. Inside
        "tangle_range" it is clamped to 0, and outside it is refused."""
        for tau, refused in ((-0.99e-8, False), (-1.01e-8, True)):
            monkeypatch.setattr(measures, "concurrence", lambda rho: np.sqrt(0.5 * (1.0 - tau)))
            if refused:
                with pytest.raises(NegativeTangle, match="tangle_range tolerance 1e-08"):
                    measures.ckw_report(qstate.ghz_state(3))
            else:
                assert measures.ckw_report(qstate.ghz_state(3))["tau_ABC"] == 0.0

    def test_matches_hyperdeterminant(self):
        states = [qstate.ghz_state(3), qstate.w_state(3), qstate.basis_state("000")]
        states += [qstate.random_pure(3, 1600 + seed) for seed in range(20)]
        for psi in states:
            want = three_tangle_hyperdeterminant(psi.amplitudes)
            assert abs(measures.ckw_report(psi)["tau_ABC"] - want) < 1e-12


class TestPurityDecomposition:
    """Tr(rho^2) of a two-qubit state splits into the average squared
    single-qubit polarization and the Stokes scalar."""

    @staticmethod
    def split(rho):
        rep = measures.measure_report(rho)
        return 0.5 * sum(rep.per_qubit_polarization_sq), rep.stokes_scalar

    def test_maximally_mixed(self):
        avg, scalar = self.split(qstate.maximally_mixed(2))
        assert avg == pytest.approx(0.0, abs=1e-12)
        assert scalar == pytest.approx(0.25, abs=1e-12)

    def test_bell(self):
        avg, scalar = self.split(qstate.bell_state("phi+").to_density())
        assert avg == pytest.approx(0.0, abs=1e-12)
        assert scalar == pytest.approx(1.0, abs=1e-12)

    def test_product(self):
        avg, scalar = self.split(qstate.basis_state("00").to_density())
        assert avg == pytest.approx(1.0, abs=1e-12)
        assert scalar == pytest.approx(0.0, abs=1e-12)

    def test_sums_to_purity(self):
        for seed in range(30):
            rho = qstate.random_mixed(2, 3, 1100 + seed)
            avg, scalar = self.split(rho)
            assert abs(avg + scalar - rho.purity()) < 1e-9


class TestCkwReport:
    def test_ghz(self):
        rep = measures.ckw_report(qstate.ghz_state(3))
        assert rep["S2_AB"] == pytest.approx(0.5, abs=1e-9)
        assert rep["C2_AB"] == pytest.approx(0.0, abs=1e-9)
        assert rep["tau_ABC"] == pytest.approx(1.0, abs=1e-9)
        assert abs(rep["residual_AB"]) < 1e-9

    def test_w(self):
        rep = measures.ckw_report(qstate.w_state(3))
        assert rep["S2_AB"] == pytest.approx(4 / 9, abs=1e-9)
        assert rep["C2_AB"] == pytest.approx(4 / 9, abs=1e-9)
        assert rep["tau_ABC"] == pytest.approx(0.0, abs=1e-8)

    def test_random_residuals(self):
        for seed in range(30):
            rep = measures.ckw_report(qstate.random_pure(3, 1200 + seed))
            for key in ("A", "B", "C", "AB", "AC", "BC"):
                assert abs(rep["residual_" + key]) < 1e-8


class TestSharedIntermediates:
    """Reports that reuse one Stokes tensor or one set of pair concurrences
    give bit for bit the numbers of the standalone functions."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_measure_report_matches_standalone(self, n):
        rho = qstate.random_mixed(n, 2, 1500 + n)
        rep = measures.measure_report(rho)
        s = stokes.stokes_tensor(rho)
        assert rep.per_qubit_polarization_sq == [
            sum(s.values[i * 4 ** (n - k)] ** 2 for i in (1, 2, 3)) for k in range(1, n + 1)
        ]
        assert rep.purity == stokes.euclidean_purity(s)
        assert rep.stokes_scalar == stokes.minkowski_invariant(s)

    @pytest.mark.parametrize("spec", ["phi+", "psi-", "random"])
    def test_pure_two_qubit_report_takes_one_concurrence(self, spec, monkeypatch):
        psi = qstate.random_pure(2, 1700) if spec == "random" else qstate.bell_state(spec)
        want = measures.concurrence(psi) ** 2
        calls = []
        concurrence = measures.concurrence

        def counted(rho):
            calls.append(rho)
            return concurrence(rho)

        monkeypatch.setattr(measures, "concurrence", counted)
        rep = measures.measure_report(psi)
        assert len(calls) == 1
        assert rep.tangle == want == rep.concurrence**2

    @pytest.mark.parametrize(
        "make", [qstate.ghz_state, qstate.w_state, lambda n: qstate.random_pure(n, 1800)],
        ids=["ghz", "w", "random"],
    )
    def test_pure_three_qubit_report_takes_the_three_tangle(self, make):
        psi = make(3)
        assert measures.measure_report(psi).three_tangle == measures.ckw_report(psi)["tau_ABC"]


class TestWithoutTheMaterialisedRoutes:
    """The spin-flip invariant and the report's purity are read without a
    flipped matrix, an overlap or a second Tr rho^2."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_no_spin_flip_overlap_or_purity(self, n, monkeypatch):
        rho = qstate.random_mixed(n, min(4, 2**n), 600 + n)
        invariant = stokes.hs_overlap(rho, stokes.spin_flip(rho))
        purity = rho.purity()

        def refuse(*args, **kwargs):
            raise AssertionError("a 4^n route ran")

        monkeypatch.setattr(stokes, "spin_flip", refuse)
        monkeypatch.setattr(stokes, "hs_overlap", refuse)
        monkeypatch.setattr(qstate.DensityMatrix, "purity", refuse)
        assert stokes.invariant_via_spinflip(rho) == pytest.approx(invariant, abs=1e-13)
        rep = measures.measure_report(rho)
        assert rep.purity == pytest.approx(purity, abs=1e-13)
        assert rep.linearized_entropy == 1.0 - rep.purity


class TestLocalUnitaryInvariance:
    def test_all_measures(self):
        for seed in range(20):
            psi = qstate.random_pure(3, 1300 + seed)
            rho = psi.to_density()
            us = [random_su2(1400 + 3 * seed + k) for k in range(3)]
            rot = slocc.apply_local_to_density(rho, slocc.LocalOperation(us))
            rot = qstate.DensityMatrix(3, rot.matrix)
            full = qstate.kron_all(us)
            rot_psi = qstate.PureState(3, full @ psi.amplitudes)
            s = stokes.stokes_tensor(rho)
            s_rot = stokes.stokes_tensor(rot)
            assert abs(
                stokes.minkowski_invariant(s) - stokes.minkowski_invariant(s_rot)
            ) < 1e-8
            assert abs(
                measures.ckw_report(psi)["tau_ABC"] - measures.ckw_report(rot_psi)["tau_ABC"]
            ) < 1e-8
            pair = qstate.partial_trace(rho, [1, 2])
            pair_rot = qstate.partial_trace(rot, [1, 2])
            assert abs(
                measures.concurrence(pair) - measures.concurrence(pair_rot)
            ) < 1e-8


class TestRefusals:
    @pytest.mark.parametrize(
        "measure, state",
        [
            (lambda psi: measures.ckw_report(psi)["tau_ABC"], qstate.ghz_state(4)),
            (measures.ckw_report, qstate.bell_state("phi+")),
            (measures.concurrence, qstate.w_state(3)),
        ],
        ids=["three_tangle", "ckw_report", "concurrence"],
    )
    def test_wrong_qubit_count(self, measure, state, monkeypatch):
        def refuse(psi):
            raise AssertionError("a density matrix built before the qubit count was checked")

        monkeypatch.setattr(qstate.PureState, "to_density", refuse)
        with pytest.raises(WrongQubitCount):
            measure(state)
