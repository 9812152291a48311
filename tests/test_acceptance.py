"""Acceptance suite: one test per release criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion alongside the timing. Each test asserts its criterion exactly; a
failure message carries the measured values.

One criterion is corrected rather than taken as first written. Criterion 6
first asked GPGM to reach 1% of the median random-allocation (RAM) energy on
the karate variance instance, a 100x gap. No schematic can: by Schur's
inequality for Hadamard products (Horn & Johnson, Topics in Matrix Analysis,
1991, sec. 5.3) every schematic needs energy at least eta / ((m + eps) g_max)
= 0.4985, the Fiedler-aligned schematic attains it, and the median RAM energy
is 19.16, so the largest reachable gap is 38.4x. The test now asserts that
GPGM lands within 0.5% of that proven optimum, which implies a gap over RAM of
at least 38.2x, and checks that the optimum is attained.
"""

import time

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.stats import spearmanr

import fluxcontrol as fc

from _oracles import (
    brute_force_min_drivers,
    gramian_quadrature,
    kkt_mean_oracle,
    random_stable_system,
    schur_variance_energy_bound,
    variance_energy_eigenbasis,
)


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}: {detail}", flush=True)


def _random_controllable(rng, n, t_star):
    """Stable dynamics with a full random schematic; redraw until W is PD."""
    while True:
        a = random_stable_system(rng, n)
        b = rng.standard_normal((n, n))
        bundle = fc.GramianEvaluator(fc.LinearSystem(a), t_star).bundle(b)
        if bundle.lam_min > 1e-9 * bundle.lam_max:
            return fc.LinearSystem(a), fc.InputSchematic(b), bundle


def test_criterion_1_mean_closed_form_vs_kkt_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        t_star = float(rng.uniform(0.5, 2.0))
        _, _, bundle = _random_controllable(rng, n, t_star)
        v = rng.standard_normal(n)
        z = rng.standard_normal(n)
        c = float(v @ z) + float(rng.uniform(0.1, 2.0))
        sel = fc.select_state(bundle, z, fc.LinearGoal(v, c))
        x_ref, _, e_ref = kkt_mean_oracle(bundle.W, z, v, c)
        x_err = np.linalg.norm(sel.x_star - x_ref) / (1.0 + np.linalg.norm(x_ref))
        e_err = abs(sel.energy - e_ref) / (1.0 + abs(e_ref))
        worst = max(worst, x_err, e_err)
        assert x_err <= 1e-6, f"state mismatch {x_err} vs KKT oracle"
        assert e_err <= 1e-6, f"energy mismatch {e_err} vs KKT oracle"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, True, f"50 systems, worst relative deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_flux_placement_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    a = random_stable_system(rng, 4)
    system = fc.LinearSystem(a)
    m, t_star = 2, 1.3
    fm = fc.flux_matrix(system, np.ones(4), t_star)
    placed = fc.place_mean_optimal(system, np.ones(4), t_star, m)
    kappa_star = fc.GramianEvaluator(system, t_star).bundle(placed.B_star.B).kappa
    cap = m * fm.lam_max
    rel_gap = abs(kappa_star - cap) / cap
    assert rel_gap <= 1e-8, f"kappa(B*)={kappa_star} vs m*lam_max={cap}"
    worst_excess = -np.inf
    for _ in range(1000):
        b = fc.project_sphere(rng.standard_normal((4, m)))
        kappa_b = fc.GramianEvaluator(system, t_star).bundle(b).kappa
        worst_excess = max(worst_excess, kappa_b - cap)
        assert kappa_b <= cap + 1e-8, f"random schematic beat the cap by {kappa_b - cap}"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(
        2,
        True,
        f"kappa gap {rel_gap:.2e}, max random excess {worst_excess:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_repulsion_energy_formula():
    start = time.perf_counter()
    system = fc.LinearSystem([[0.0]])
    w = fc.GramianEvaluator(system, 1.0).bundle([[1.0]])
    sel = fc.select_state(w, np.zeros(1), fc.RepulsionGoal(np.zeros(1), 4.0))
    # eta * lam_min(W^{-1}) = 4 * 1, not sqrt(eta) * lam_min = 2.
    assert sel.energy == pytest.approx(4.0, rel=1e-12), sel.energy
    rng = np.random.default_rng(303)
    for _ in range(6):
        n = int(rng.integers(2, 5))
        _, _, bundle = _random_controllable(rng, n, 1.0)
        z = rng.standard_normal(n)
        eta = float(rng.uniform(0.5, 4.0))
        sel = fc.select_state(bundle, z, fc.RepulsionGoal(z, eta))
        assert sel.energy == pytest.approx(eta / bundle.lam_max, rel=1e-10)
        w_inv = np.linalg.inv(bundle.W)
        for _ in range(1000):
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            x = z + np.sqrt(eta) * u
            sampled = float((x - z) @ w_inv @ (x - z))
            assert sampled >= sel.energy - 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(3, True, f"scalar energy 4.0 exact; 6x1000 boundary samples beaten, {elapsed:.2f}s")


def test_criterion_4_variance_bound_never_violated():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    checked = 0
    worst_margin = -np.inf
    while checked < 100:
        n = int(rng.integers(2, 7))
        _, _, bundle = _random_controllable(rng, n, float(rng.uniform(0.5, 2.0)))
        z = 0.3 * rng.standard_normal(n)
        eta = float(rng.uniform(0.2, 3.0))
        if not fc.binding_check(fc.VarianceGoal(eta), z):
            continue
        sel = fc.select_state(bundle, z, fc.VarianceGoal(eta))
        bound = fc.variance_energy_bound(bundle, z, eta)
        margin = (sel.energy - bound) / (1.0 + bound)
        worst_margin = max(worst_margin, margin)
        assert sel.energy <= bound * (1.0 + 1e-8), (sel.energy, bound)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(4, True, f"100 instances, worst relative margin {worst_margin:.2e}, {elapsed:.2f}s")


def test_criterion_5_single_input_threshold_feasibility():
    start = time.perf_counter()
    rng = np.random.default_rng(505)
    cases = []
    for n in (2, 3, 4, 5):
        cases.append(np.ones(n))
        cases.append(np.arange(1.0, n + 1.0))
    while len(cases) < 50:
        n = int(rng.integers(2, 6))
        d = rng.standard_normal(n)
        d[int(np.argmax(np.abs(d)))] *= 1.5
        cases.append(d)
    infeasible_checked = 0
    for d in cases:
        eta_min = fc.repulsion_min_threshold(d)
        k = int(np.argmax(np.abs(d)))
        b = np.sqrt(1.7) * np.eye(len(d))[:, k]
        roots = fc.single_input_scales(b, d, eta_min)
        assert roots is not None, f"construction failed at its own threshold for d={d}"
        for scale in roots:
            x = scale * b
            reached = float((x - d) @ (x - d))
            assert reached == pytest.approx(eta_min, abs=1e-8 * (1.0 + eta_min))
        if eta_min > 1e-6:
            assert fc.single_input_scales(b, d, 0.9 * eta_min) is None, (
                f"discriminant failed to flag infeasibility below threshold for d={d}"
            )
            infeasible_checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(
        5,
        True,
        f"50 thresholds reached, {infeasible_checked} sub-threshold rejections, {elapsed:.2f}s",
    )


def test_criterion_6_gpgm_vs_ram_on_karate_club():
    start = time.perf_counter()
    adj = fc.karate_club_adjacency()
    system = fc.laplacian_system(adj)
    goal = fc.VarianceGoal(1.0)
    x0 = np.zeros(34)
    t_star, m = 3.0, 2

    ram_energies = []
    for seed in range(20):
        schematic = fc.ram_baseline(34, m, seed=seed)
        bundle = fc.GramianEvaluator(system, t_star).bundle(schematic.B)
        ram_energies.append(fc.select_state(bundle, x0, goal).energy)
    median_ram = float(np.median(ram_energies))

    cfg = fc.GpgmConfig(sigma=0.1, max_iters=300, seed=0)
    evaluator = fc.GramianEvaluator(system, t_star)
    best = fc.gpgm_multistart(evaluator, x0, goal, m, config=cfg, n_starts=5)

    # Global optimum over the sphere tr(B^T B) = m + eps: Schur's inequality
    # bounds every schematic's energy below, and both columns on the Fiedler
    # vector attain the bound, so it is the optimum rather than a mere bound.
    optimum = schur_variance_energy_bound(system.A, t_star, goal.eta, m + cfg.epsilon)
    fiedler = np.linalg.eigh(-system.A)[1][:, 1]
    b_fiedler = fc.project_sphere(np.column_stack([fiedler] * m), epsilon=cfg.epsilon)
    e_fiedler = variance_energy_eigenbasis(system.A, b_fiedler, t_star, goal.eta)
    assert abs(e_fiedler - optimum) <= 1e-9 * optimum, (e_fiedler, optimum)

    elapsed = time.perf_counter() - start
    ratio = median_ram / best.energy
    ceiling = median_ram / optimum
    gap = best.energy / optimum - 1.0
    detail = (
        f"gpgm best-of-5 {best.energy:.6f}, optimum {optimum:.6f} (gap {gap:.3%}), "
        f"median RAM {median_ram:.3f}, gap over RAM {ratio:.1f}x of a "
        f"{ceiling:.1f}x ceiling, {elapsed:.1f}s"
    )
    ok = optimum * (1.0 - 1e-9) <= best.energy <= 1.005 * optimum
    _report(6, ok, detail)
    assert elapsed < 600.0
    assert best.energy >= optimum * (1.0 - 1e-9)
    assert best.energy <= 1.005 * optimum, (
        f"required gpgm energy <= {1.005 * optimum:.6f} (within 0.5% of the provable "
        f"optimum {optimum:.6f}), got {best.energy:.6f} (gap {gap:.3%}); median RAM "
        f"{median_ram:.3f}, achieved gap over RAM {ratio:.1f}x of the {ceiling:.1f}x "
        f"that any schematic can reach"
    )


def test_criterion_7_trajectory_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    worst_endpoint = 0.0
    worst_energy = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        t_star = float(rng.uniform(0.6, 1.5))
        system, schematic, bundle = _random_controllable(rng, n, t_star)
        x0 = rng.standard_normal(n)
        z = expm(t_star * system.A) @ x0
        goal = fc.LinearGoal(np.ones(n), float(np.ones(n) @ z) + 1.0)
        sel = fc.select_state(bundle, z, goal)
        controller = fc.min_energy_controller(
            fc.GramianEvaluator(system, t_star), schematic, sel.p, 2000
        )
        traj = fc.simulate(system, schematic, controller, x0, t_star, 2000)
        endpoint_err = np.linalg.norm(traj.endpoint - sel.x_star) / (
            1.0 + np.linalg.norm(sel.x_star)
        )
        energy_err = abs(traj.total_energy - sel.energy) / (1.0 + abs(sel.energy))
        worst_endpoint = max(worst_endpoint, endpoint_err)
        worst_energy = max(worst_energy, energy_err)
        assert endpoint_err <= 1e-6, endpoint_err
        assert abs(traj.total_energy - sel.energy) <= 1e-4 * abs(sel.energy), (
            traj.total_energy,
            sel.energy,
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(
        7,
        True,
        f"20 systems, endpoint err {worst_endpoint:.2e}, energy err {worst_energy:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_flux_rankings_change_with_horizon():
    start = time.perf_counter()
    adj = fc.karate_club_adjacency()
    system = fc.LinearSystem(adj)
    phi_short = fc.flux_centrality(system, 0.015)
    phi_long = fc.flux_centrality(system, 1.5)
    corr = float(spearmanr(phi_short, phi_long).statistic)
    assert corr < 1.0, corr

    control = fc.LinearSystem(np.zeros((34, 34)))
    c_short = fc.flux_centrality(control, 0.015)
    c_long = fc.flux_centrality(control, 1.5)
    # Identical score vectors mean identical rankings: correlation exactly 1.
    assert np.allclose(c_short, c_long, rtol=0.0, atol=1e-12)
    control_corr = 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(
        8,
        True,
        f"karate correlation {corr:.4f} < 1, zero-dynamics control {control_corr}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_9_gramian_integrator_cross_check():
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        a = random_stable_system(rng, n)
        b = rng.standard_normal((n, int(rng.integers(1, 4))))
        t_star = float(rng.uniform(0.5, 3.0))
        system = fc.LinearSystem(a)
        schematic = fc.InputSchematic(b)
        w_block = fc.GramianEvaluator(system, t_star).bundle(schematic.B).W
        w_simpson = gramian_quadrature(system, schematic, t_star, steps=512)
        rel = np.linalg.norm(w_block - w_simpson) / np.linalg.norm(w_block)
        worst = max(worst, rel)
        assert rel <= 1e-8, rel
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(9, True, f"20 systems, worst relative gap {worst:.2e}, {elapsed:.2f}s")


def test_criterion_10_min_drivers_matches_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(1010)
    cases = []
    for _ in range(70):
        n = int(rng.integers(2, 7))
        cases.append(rng.standard_normal((n, n)))
    for k in (2, 3, 4, 5):
        cases.append(np.eye(k))  # identity: one eigenvalue, k eigenvectors
    for k in (2, 3, 4):
        rest = np.diag(rng.uniform(3.0, 9.0, size=3))
        cases.append(
            np.block(
                [
                    [2.0 * np.eye(k), np.zeros((k, 3))],
                    [np.zeros((3, k)), rest],
                ]
            )
        )
    while len(cases) < 100:
        n = int(rng.integers(2, 6))
        jordan = np.diag(rng.uniform(1.0, 5.0, size=n))
        jordan[0, 1 % n] += 1.0
        cases.append(jordan)
    assert len(cases) == 100
    for a in cases:
        n = a.shape[0]
        report = fc.controllability_report(fc.LinearSystem(a), fc.InputSchematic.identity(n))
        expected = brute_force_min_drivers(a)
        assert report.min_drivers == expected, (report.min_drivers, expected, a)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(10, True, f"100 matrices incl. repeated-eigenvalue constructions, {elapsed:.2f}s")
