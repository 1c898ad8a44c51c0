"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is fixed here, not tuned at runtime.
"""

import numpy as np

from stokesinv import estimator, measures, qstate, slocc, stokes

from oracles import random_su2


def report(num, desc, ok):
    print("%s criterion %d: %s" % ("PASS" if ok else "FAIL", num, desc))
    assert ok, "criterion %d failed: %s" % (num, desc)


def random_state_and_ops(n, seed):
    rho = qstate.random_mixed(n, 1 + seed % (2**n), seed)
    ops = [qstate.random_sl2c(100000 + 97 * seed + k) for k in range(n)]
    return rho, ops


def test_criterion_1_slocc_invariance():
    worst = 0.0
    for n in (1, 2, 3, 4):
        for trial in range(200):
            rho, ops = random_state_and_ops(n, 1000 * n + trial)
            s = stokes.stokes_tensor(rho)
            sp = stokes.stokes_tensor(
                slocc.apply_local_to_density(rho, slocc.LocalOperation(ops))
            )
            worst = max(
                worst,
                abs(stokes.minkowski_invariant(sp) - stokes.minkowski_invariant(s)),
            )
    report(1, "SLOCC invariance of the Stokes scalar (worst %.2e)" % worst, worst < 1e-8)


def test_criterion_2_spinflip_identity():
    worst = 0.0
    for n in (1, 2, 3, 4):
        for trial in range(200):
            rho, _ = random_state_and_ops(n, 1000 * n + trial)
            lhs = stokes.minkowski_invariant(stokes.stokes_tensor(rho))
            rhs = stokes.invariant_via_spinflip(rho)
            worst = max(worst, abs(lhs - rhs))
    report(2, "spin-flip overlap equals Minkowski norm (worst %.2e)" % worst, worst < 1e-9)


def test_criterion_3_purity_identities():
    worst = 0.0
    for trial in range(200):
        n = 1 + trial % 4
        rho = qstate.random_mixed(n, 1 + trial % (2**n), 5000 + trial)
        s = stokes.stokes_tensor(rho)
        worst = max(worst, abs(stokes.euclidean_purity(s) - rho.purity()))
    for trial in range(200):
        rho = qstate.random_mixed(1, 1 + trial % 2, 6000 + trial)
        s = stokes.stokes_tensor(rho)
        s2 = stokes.minkowski_invariant(s)
        worst = max(worst, abs(rho.purity() - (1.0 - s2)))
        worst = max(worst, abs(measures.measure_report(rho).linearized_entropy - s2))
        p2 = float(np.sum(s.values[1:] ** 2))
        worst = max(worst, abs(p2 - (1.0 - 2.0 * s2)))
    for trial in range(200):
        rho = qstate.random_mixed(2, 1 + trial % 4, 7000 + trial)
        rep = measures.measure_report(rho)
        avg = 0.5 * sum(rep.per_qubit_polarization_sq)
        worst = max(worst, abs(avg + rep.stokes_scalar - rho.purity()))
    report(3, "purity identities (Euclidean norm, n=1, n=2) (worst %.2e)" % worst, worst < 1e-9)


def test_criterion_4_tangle_identity():
    worst = 0.0
    for trial in range(500):
        psi = qstate.random_pure(2, 8000 + trial)
        s2 = stokes.minkowski_invariant(stokes.stokes_tensor(psi.to_density()))
        worst = max(worst, abs(measures.measure_report(psi).tangle - s2))
    ok = worst < 1e-8
    bell = abs(measures.measure_report(qstate.bell_state("phi+")).tangle - 1.0)
    prod = abs(measures.measure_report(qstate.basis_state("01")).tangle)
    ok = ok and bell < 1e-10 and prod < 1e-10
    report(4, "tangle equals the two-qubit invariant (worst %.2e)" % worst, ok)


def test_criterion_5_ckw_identities():
    worst = 0.0
    min_tau = 0.0
    for trial in range(500):
        psi = qstate.random_pure(3, 9000 + trial)
        rep = measures.ckw_report(psi)
        for key in ("A", "B", "C", "AB", "AC", "BC"):
            worst = max(worst, abs(rep["residual_" + key]))
        raw = (
            rep["C2_A(BC)"] - rep["C2_AB"] - rep["C2_AC"]
        )
        min_tau = min(min_tau, raw)
    ok = worst < 1e-8 and min_tau >= -1e-8
    report(5, "CKW monogamy identities (worst %.2e, min tau %.1e)" % (worst, min_tau), ok)


def test_criterion_6_named_state_table():
    ghz = measures.ckw_report(qstate.ghz_state(3))
    w = measures.ckw_report(qstate.w_state(3))
    checks = [
        abs(ghz["tau_ABC"] - 1.0) < 1e-9,
        abs(ghz["C2_AB"]) < 1e-9,
        abs(ghz["S2_AB"] - 0.5) < 1e-9,
        abs(w["tau_ABC"]) < 1e-8,
        abs(np.sqrt(w["C2_AB"]) - 2 / 3) < 1e-9,
        abs(w["S2_AB"] - 4 / 9) < 1e-9,
    ]
    report(6, "GHZ/W named-state table", all(checks))


def test_criterion_7_lorentz_correspondence():
    g = np.diag([1.0, -1.0, -1.0, -1.0])
    worst = 0.0
    for trial in range(200):
        n = 1 + trial % 4
        rho, ops = random_state_and_ops(n, 20000 + trial)
        lhs = stokes.stokes_tensor(
            slocc.apply_local_to_density(rho, slocc.LocalOperation(ops))
        )
        rhs = slocc.apply_lorentz_to_stokes(
            stokes.stokes_tensor(rho), [slocc.lorentz_of(o) for o in ops]
        )
        worst = max(worst, float(np.max(np.abs(lhs.values - rhs.values))))
    for trial in range(100):
        a = qstate.random_sl2c(30000 + 2 * trial)
        b = qstate.random_sl2c(30000 + 2 * trial + 1)
        la, lb = slocc.lorentz_of(a), slocc.lorentz_of(b)
        worst = max(worst, float(np.max(np.abs(slocc.lorentz_of(a @ b) - la @ lb))))
        worst = max(worst, float(np.max(np.abs(la.T @ g @ la - g))))
    report(7, "density/Stokes picture consistency (worst %.2e)" % worst, worst < 1e-8)


def test_criterion_8_filtering():
    psi = qstate.schmidt_pair(float(np.arccos(np.sqrt(0.9))))
    op = slocc.LocalOperation([np.diag([3**-0.5, 3**0.5]), np.eye(2)])
    rep = slocc.filter_state(psi, op)
    ok = abs(rep.attenuation - 0.6) < 1e-9 and abs(rep.invariant_after_renorm - 1.0) < 1e-9
    kept = 0
    seed = 0
    while kept < 500:
        seed += 1
        n = 1 + seed % 3
        rho, ops = random_state_and_ops(n, 40000 + seed)
        frep = slocc.filter_state(rho, slocc.LocalOperation(ops))
        if frep.attenuation > 1.0:
            continue
        kept += 1
        ok = ok and frep.invariant_after_renorm >= frep.invariant_before - 1e-12
    report(8, "Procrustean filtering and conditional monotonicity", ok)


def test_criterion_9_estimators():
    mm = qstate.maximally_mixed(2)
    hits = 0
    for seed in range(200):
        r = estimator.swap_network_estimate(mm, mm, 10**6, seed)
        if abs(r.estimate - 0.25) <= 3 * r.std_error:
            hits += 1
    swap_ok = hits >= 195

    bell = qstate.bell_state("phi+").to_density()
    tomo_hits = 0
    for seed in range(200):
        if abs(estimator.tomography_simulate(bell, 10**4, seed).invariant_hat - 1.0) <= 0.05:
            tomo_hits += 1
    tomo_ok = tomo_hits >= 195

    inf_ok = True
    for state in (bell, mm, qstate.ghz_state(3).to_density()):
        res = estimator.tomography_simulate(state, 0, 0, infinite=True)
        exact = stokes.stokes_tensor(state)
        inf_ok = inf_ok and float(np.max(np.abs(res.stokes_hat.values - exact.values))) < 1e-10
    report(
        9,
        "estimators (swap %d/200, tomo %d/200, exact infinite mode)" % (hits, tomo_hits),
        swap_ok and tomo_ok and inf_ok,
    )


def test_criterion_10_local_unitary_invariance():
    worst = 0.0
    for trial in range(200):
        psi = qstate.random_pure(3, 50000 + trial)
        rho = psi.to_density()
        us = [random_su2(60000 + 3 * trial + k) for k in range(3)]
        full = qstate.kron_all(us)
        rot_psi = qstate.PureState(full @ psi.amplitudes)
        rot = rot_psi.to_density()

        worst = max(
            worst,
            abs(
                stokes.minkowski_invariant(stokes.stokes_tensor(rho))
                - stokes.minkowski_invariant(stokes.stokes_tensor(rot))
            ),
        )
        worst = max(worst, abs(rho.purity() - rot.purity()))
        ckw, rot_ckw = measures.ckw_report(psi), measures.ckw_report(rot_psi)
        for key in ("tau_ABC", "C2_A(BC)", "C2_B(AC)", "C2_C(AB)"):
            worst = max(worst, abs(ckw[key] - rot_ckw[key]))
        pair, pair_rot = (
            qstate.partial_trace(rho, [1, 2]),
            qstate.partial_trace(rot, [1, 2]),
        )
        worst = max(
            worst, abs(measures.concurrence(pair) - measures.concurrence(pair_rot))
        )
        worst = max(
            worst,
            abs(
                stokes.invariant_via_spinflip(pair)
                - stokes.invariant_via_spinflip(pair_rot)
            ),
        )
    for trial in range(200):
        psi = qstate.random_pure(2, 70000 + trial)
        us = [random_su2(80000 + 2 * trial + k) for k in range(2)]
        rot_psi = qstate.PureState(qstate.kron_all(us) @ psi.amplitudes)
        rep, rot_rep = measures.measure_report(psi), measures.measure_report(rot_psi)
        worst = max(worst, abs(rep.tangle - rot_rep.tangle))
        a1 = 0.5 * sum(rep.per_qubit_polarization_sq)
        a2 = 0.5 * sum(rot_rep.per_qubit_polarization_sq)
        # per-qubit polarization is rotated, its average square is invariant
        worst = max(worst, abs(a1 - a2))
    report(10, "local-unitary invariance of all measures (worst %.2e)" % worst, worst < 1e-8)
