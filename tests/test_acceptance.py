"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria use pinned seeds; the Monte Carlo tolerances below were
sized from the binomial/Frobenius error at the stated ensemble sizes plus a
weak order-1 discretization allowance (see README).  Run with

    pytest tests/test_acceptance.py -v
"""

import time

import numpy as np
import pytest

import qunravel as q
from qunravel import lindblad, observables, sde, verify
from qunravel.hilbert import SIGMA_X, SIGMA_Y, SIGMA_Z, outer, trace_distance
from qunravel.lindblad import GKSForm, LindbladModel
from qunravel.unraveling import UnitaryFreedom, Unraveling

DEPHASING = LindbladModel(np.zeros((2, 2)), (SIGMA_Z,))
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
PSI_37 = np.array([np.sqrt(0.3), np.sqrt(0.7)])


def report(number, name, passed, detail):
    print(f"[criterion {number:2d}] {'PASS' if passed else 'FAIL'} "
          f"{name}: {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_01_generator_identity():
    """1000 random (model, freedom, state) triples; max-entry deviation of
    the drift/diffusion generator from the Lindblad RHS <= 1e-10."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        model = verify.random_model(rng, d)
        freedom = verify.random_freedom(rng, model.n_ops)
        u = Unraveling(model, freedom)
        psi = verify.random_state(rng, d)
        worst = max(worst, verify.generator_deviation(u, psi))
    elapsed = time.perf_counter() - t0
    report(1, "generator-identity", worst <= 1e-10,
           f"max deviation {worst:.3e} (tol 1e-10) over 1000 triples, "
           f"{elapsed:.1f}s")


def test_criterion_02_decoherence_oracle():
    """H=0, L=sz dephasing: exact coherence decay rho01(t) = e^{-2t}/2 within
    1e-10, and a 10^4-trajectory ensemble within trace distance 0.03 of the
    exact propagator at t in {0.5, 1}."""
    rho0 = outer(PLUS, PLUS)
    worst_exact = max(
        abs(lindblad.propagate_exact(DEPHASING, rho0, t)[0, 1]
            - 0.5 * np.exp(-2.0 * t))
        for t in (0.1, 0.5, 1.0, 2.0))
    u = Unraveling(DEPHASING, "standard")
    cfg = q.IntegrationConfig(dt=1e-3, t_final=1.0, seed=2025)
    est = q.simulate_ensemble(u, PLUS, cfg, 10_000, threads=4,
                              record_steps=[500, 1000])
    worst_mc = max(
        trace_distance(est.rho_hat[r],
                       lindblad.propagate_exact(DEPHASING, rho0, t))
        for r, t in enumerate(est.times))
    passed = worst_exact <= 1e-10 and worst_mc <= 0.03
    report(2, "decoherence-oracle", passed,
           f"analytic vs exact {worst_exact:.2e} (tol 1e-10), "
           f"ensemble vs exact {worst_mc:.4f} (tol 0.03, M=10^4)")


def test_criterion_03_unraveling_equivalence_and_no_collapse():
    """Standard, complex-noise, and linear-potential unravelings agree
    pairwise and with the exact propagator within 0.05 at t=1 (M=10^4); the
    linear-potential run shows no collapse at t=10 (>90% unclassified) while
    the standard run collapses (<1% unclassified)."""
    freedoms = ["standard", "diosi-complex", "linear-potential"]
    rho0 = outer(PLUS, PLUS)
    exact = lindblad.propagate_exact(DEPHASING, rho0, 1.0)
    rhos, finals = [], {}
    for i, spec in enumerate(freedoms):
        u = Unraveling(DEPHASING, spec)
        cfg = q.IntegrationConfig(dt=1e-3, t_final=10.0, seed=101 + i)
        est = q.simulate_ensemble(u, PLUS, cfg, 10_000, threads=4,
                                  record_steps=[1000, 10_000])
        rhos.append(est.rho_hat[0])
        finals[spec] = est.final_states
    pairwise = max(trace_distance(rhos[i], rhos[j])
                   for i in range(3) for j in range(i + 1, 3))
    vs_exact = max(trace_distance(r, exact) for r in rhos)
    std_frac = observables.born_statistics(
        finals["standard"], SIGMA_Z).unclassified_fraction
    lin_frac = observables.born_statistics(
        finals["linear-potential"], SIGMA_Z).unclassified_fraction
    passed = (pairwise <= 0.05 and vs_exact <= 0.05
              and std_frac < 0.01 and lin_frac > 0.90)
    report(3, "unraveling-equivalence", passed,
           f"pairwise {pairwise:.4f}, vs exact {vs_exact:.4f} (tol 0.05); "
           f"unclassified at t=10: standard {std_frac:.4f} (<0.01), "
           f"linear-potential {lin_frac:.4f} (>0.90)")


def test_criterion_04_born_rule_and_martingale():
    """psi0 = (sqrt(0.3), sqrt(0.7)), t_final=10: the +1 sector frequency is
    within 3 sqrt(0.21/M) ~ 0.014 of 0.30, and the ensemble mean of
    <psi, P_+ psi> stays within 0.02 of 0.30 at every checkpoint."""
    u = Unraveling(DEPHASING, "standard")
    cfg = q.IntegrationConfig(dt=1e-3, t_final=10.0, seed=404,
                              record_stride=1000)
    est = q.simulate_ensemble(u, PSI_37, cfg, 10_000, threads=4,
                              keep_states=True)
    rep = observables.born_statistics(est.final_states, SIGMA_Z, psi0=PSI_37)
    # outcomes are sorted ascending, so index 1 is the +1 sector (= |0>)
    assert rep.outcomes == pytest.approx([-1.0, 1.0])
    freq_err = abs(rep.frequencies[1] - 0.30)
    tol_freq = 3.0 * np.sqrt(0.3 * 0.7 / 10_000)
    # martingale property: E<P_+> is conserved at 0.30 along the flow
    p_plus = np.abs(est.states[:, :, 0]) ** 2
    martingale_err = float(np.max(np.abs(p_plus.mean(axis=0) - 0.30)))
    passed = freq_err <= tol_freq and martingale_err <= 0.02
    report(4, "born-rule", passed,
           f"+1 frequency {rep.frequencies[1]:.4f} "
           f"(|err| {freq_err:.4f} <= {tol_freq:.4f}), "
           f"max martingale deviation {martingale_err:.4f} (tol 0.02), "
           f"unclassified {rep.unclassified}")


def test_criterion_05_variance_drift_law():
    """Regression of the empirical ensemble dV/dt on -4 cos^2(f) V^2 gives
    slope 1 +- 0.1 for f in {0, pi/4}; for f = pi/2 the drift estimate is
    0 +- 0.02."""
    details, passed = [], True
    for f in (0.0, np.pi / 4, np.pi / 2):
        u = Unraveling(DEPHASING, f"phase:{f}")
        cfg = q.IntegrationConfig(dt=1e-3, t_final=0.2, seed=17,
                                  record_stride=10)
        est = q.simulate_ensemble(u, PSI_37, cfg, 10_000, threads=4,
                                  keep_states=True)
        V = observables.variance(est.states, SIGMA_Z)     # (M, R)
        v_bar = V.mean(axis=0)
        pred = (-4.0 * np.cos(f) ** 2 * V ** 2).mean(axis=0)
        dt_rec = est.times[1] - est.times[0]
        y = np.diff(v_bar) / dt_rec
        x = 0.5 * (pred[1:] + pred[:-1])     # trapezoid midpoint
        if f < np.pi / 2:
            slope = float(np.sum(x * y) / np.sum(x * x))
            passed = passed and abs(slope - 1.0) <= 0.1
            details.append(f"f={f:.3f} slope {slope:.4f}")
        else:
            drift = float(np.max(np.abs(y)))
            passed = passed and drift <= 0.02
            details.append(f"f=pi/2 drift {drift:.2e}")
    report(5, "variance-drift-law", passed,
           "; ".join(details) + " (slope tol 0.1, pi/2 tol 0.02)")


def test_criterion_06_complete_positivity():
    """50 random PSD Kossakowski matrices give PSD Choi matrices at t in
    {0.1, 1}; the hand-built c = diag(1, -0.5) generator is flagged non-CP
    at t = 0.05."""
    rng = np.random.default_rng(606)
    worst = 0.0
    all_cp = True
    for _ in range(50):
        A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        g = GKSForm(np.zeros((2, 2)), A @ np.conj(A).T / 3.0)
        rep = verify.check_complete_positivity(g, [0.1, 1.0])
        all_cp = all_cp and rep.passed
        worst = min(worst, min(rep.measured["choi_min_eig"].values()))
    bad = GKSForm(np.zeros((2, 2)), np.diag([1.0, -0.5]).astype(complex),
                  basis_ops=(SIGMA_X / np.sqrt(2), SIGMA_Y / np.sqrt(2)))
    rep_bad = verify.check_complete_positivity(bad, [0.05])
    neg_eig = rep_bad.measured["choi_min_eig"]["0.05"]
    passed = all_cp and worst >= -1e-10 and rep_bad.passed and neg_eig < -1e-6
    report(6, "complete-positivity", passed,
           f"50 PSD cases min Choi eig {worst:.2e} (>= -1e-10); "
           f"diag(1,-0.5) Choi eig {neg_eig:.2e} (< -1e-6)")


def test_criterion_07_gks_round_trip():
    """Diagonalizing 50 random Hermitian Kossakowski matrices and rebuilding
    the generator from the (rate, operator) pairs reproduces the GKS
    superoperator within 1e-10."""
    rng = np.random.default_rng(707)
    worst = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 4))
        n = d * d - 1
        C = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        H = verify.random_hermitian(rng, d)
        H = H - np.trace(H) * np.eye(d) / d
        g = GKSForm(H, 0.5 * (C + np.conj(C).T))
        rates, ops = lindblad.gks_to_lindblad(g)
        rebuilt = lindblad._liouvillian_matrix(g.hamiltonian, ops, rates)
        worst = max(worst, float(np.max(np.abs(
            rebuilt - lindblad.gks_liouvillian(g)))))
    report(7, "gks-round-trip", worst <= 1e-10,
           f"max superoperator deviation {worst:.3e} (tol 1e-10) "
           f"over 50 random Hermitian inputs")


def test_criterion_08_diffusion_matrix_invariance():
    """D(u, psi) = D(o u, psi) within 1e-12 for 100 random real orthogonal o;
    a genuinely complex mixing (u = iI for Hermitian L) changes D by more
    than 1e-3."""
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 5))
        model = verify.random_model(rng, d)
        base = verify.random_unitary(rng, model.n_ops)
        o, _ = np.linalg.qr(rng.normal(size=(model.n_ops, model.n_ops)))
        u1 = Unraveling(model, UnitaryFreedom(matrix=base))
        u2 = Unraveling(model, UnitaryFreedom(matrix=o @ base))
        psi = verify.random_state(rng, d)
        gap = np.max(np.abs(observables.diffusion_matrix(u1, psi).matrix
                            - observables.diffusion_matrix(u2, psi).matrix))
        worst = max(worst, float(gap))
    # existence part: u = iI on Hermitian L rotates the noise into the
    # imaginary direction and changes the diffusion matrix
    u_std = Unraveling(DEPHASING, "standard")
    u_img = Unraveling(DEPHASING, "linear-potential")
    complex_gap = float(np.max(np.abs(
        observables.diffusion_matrix(u_std, PLUS).matrix
        - observables.diffusion_matrix(u_img, PLUS).matrix)))
    passed = worst <= 1e-12 and complex_gap > 1e-3
    report(8, "diffusion-invariance", passed,
           f"orthogonal max gap {worst:.3e} (tol 1e-12, 100 draws); "
           f"complex mixing gap {complex_gap:.3f} (> 1e-3)")


def test_criterion_09_reproducibility():
    """Identical configuration => bitwise-identical ensembles, serial vs
    4 threads and across repeated runs, with matching config hashes."""
    u = Unraveling(DEPHASING, "diosi-complex")
    cfg = q.IntegrationConfig(dt=1e-3, t_final=0.5, seed=909,
                              record_stride=100)
    config = {"model": "dephasing", "freedom": "diosi-complex",
              "dt": cfg.dt, "t_final": cfg.t_final, "seed": cfg.seed}
    h1, h2 = verify.config_hash(config), verify.config_hash(dict(config))
    runs = [q.simulate_ensemble(u, PLUS, cfg, 2000, threads=th)
            for th in (1, 4, 1)]
    bitwise = all(
        np.array_equal(runs[0].rho_hat, r.rho_hat)
        and np.array_equal(runs[0].final_states, r.final_states)
        and np.array_equal(runs[0].norm_drift, r.norm_drift)
        for r in runs[1:])
    passed = bitwise and h1 == h2
    report(9, "reproducibility", passed,
           f"hash match {h1 == h2}, bitwise serial/parallel/rerun {bitwise}")


def test_criterion_10_order_consistency():
    """Halving dt halves the mean pre-renormalization norm drift (ratio
    2 +- 0.3) and, on Brownian paths coupled across refinement levels, the
    ensemble bias against the exact propagator is non-increasing in dt."""
    # part 1: norm-drift scaling
    u = Unraveling(DEPHASING, "standard")
    drifts = []
    for dt in (1e-3, 5e-4):
        cfg = q.IntegrationConfig(dt=dt, t_final=0.5, seed=3,
                                  record_stride=10 ** 9)
        est = q.simulate_ensemble(u, PLUS, cfg, 400, threads=4)
        drifts.append(float(np.mean(est.norm_drift_mean)))
    ratio = drifts[0] / drifts[1]

    # part 2: coupled-path bias comparison at dt in {0.2, 0.1, 0.05}; the
    # coarse increments are pairwise sums of the fine ones, so the three
    # ensembles see the same Brownian paths and the Monte Carlo error cancels
    # from the comparison
    model = LindbladModel(SIGMA_X, (SIGMA_Z,))
    u2 = Unraveling(model, "standard")
    M, chunk, dt_fine, seed = 60_000, 2000, 0.025, 11
    n_fine = int(round(1.0 / dt_fine))
    fine_chunks = []
    lo = 0
    while lo < M:
        count = min(chunk, M - lo)
        dW = np.empty((count, n_fine, 1))
        for i in range(count):
            rng = sde.trajectory_rng(seed, lo + i)
            dW[i] = rng.normal(0.0, np.sqrt(dt_fine), size=(n_fine, 1))
        fine_chunks.append(dW)
        lo += count
    exact = lindblad.propagate_exact(model, outer(PLUS, PLUS), 1.0)
    distances = []
    for level in (8, 4, 2):
        dt = dt_fine * level
        chunks = [c.reshape(c.shape[0], -1, level, 1).sum(axis=2)
                  for c in fine_chunks]
        cfg = q.IntegrationConfig(dt=dt, t_final=1.0, seed=seed,
                                  record_stride=10 ** 9)
        est = q.simulate_ensemble(u2, PLUS, cfg, M, threads=4,
                                  chunk_size=chunk, dW_chunks=chunks)
        distances.append(trace_distance(est.rho_hat[-1], exact))
    monotone = all(distances[i] >= distances[i + 1] - 1e-12
                   for i in range(len(distances) - 1))
    passed = abs(ratio - 2.0) <= 0.3 and monotone
    report(10, "order-consistency", passed,
           f"norm-drift ratio {ratio:.3f} (tol 2 +- 0.3); bias at "
           f"dt=(0.2,0.1,0.05): " + ", ".join(f"{d:.5f}" for d in distances)
           + " non-increasing")
