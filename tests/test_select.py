import numpy as np
import numpy.testing as npt
import pytest

import fluxcontrol as fc
from fluxcontrol.errors import GoalUncontrollableError, InfeasibleGoalError, InvalidInputError

from _oracles import (
    kkt_mean_oracle,
    mean_zero_basis,
    random_stable_system,
    range_qcls_grid,
    scalar_min_energy,
    sphere_grid_min_energy,
    variance_grid_min_energy,
)


def _bundle_from(w_mat, t_star=1.0):
    return fc.GramianBundle.from_matrix(np.asarray(w_mat, dtype=float), t_star)


def _low_rank_factors(rng):
    """``diag(1, 0)``'s factor, then random n x r factors, n = 2-4 and r < n."""
    yield np.array([[1.0], [0.0]])
    for n in (2, 3, 3, 4, 4):
        yield rng.standard_normal((n, int(rng.integers(1, min(n, 3)))))


def _assert_in_range(g, dx):
    # x* - z must lie in range(W) = range(G).
    q, _ = np.linalg.qr(g)
    assert np.linalg.norm(dx - q @ (q.T @ dx)) <= 1e-9 * (1.0 + np.linalg.norm(dx))


def _random_pd_bundle(rng, n, t_star=1.0):
    a = random_stable_system(rng, n)
    b = rng.standard_normal((n, n))
    return fc.reachability_gramian(
        fc.LinearSystem(a), fc.InputSchematic(b), t_star
    ), fc.LinearSystem(a)


class TestBindingCheck:
    def test_linear_binding(self):
        assert fc.binding_check(fc.LinearGoal(np.ones(2), 2.0), np.zeros(2))

    def test_linear_already_satisfied(self):
        assert not fc.binding_check(fc.LinearGoal(np.ones(2), -1.0), np.zeros(2))

    def test_variance_already_spread(self):
        assert not fc.binding_check(fc.VarianceGoal(1.0), np.array([3.0, -3.0]))

    def test_repulsion_senses(self):
        z = np.zeros(2)
        goal = fc.RepulsionGoal(d=np.zeros(2), eta=1.0, sense="expand")
        assert fc.binding_check(goal, z)
        goal = fc.RepulsionGoal(d=np.zeros(2), eta=1.0, sense="contract")
        assert not fc.binding_check(goal, z)


class TestSelectMeanState:
    def test_scalar_matches_minimum_energy_oracle(self):
        system = fc.LinearSystem([[0.0]])
        w = fc.reachability_gramian(system, fc.InputSchematic([[1.0]]), 1.0)
        sel = fc.select_mean_state(w, np.zeros(1), fc.LinearGoal(np.ones(1), 1.0))
        npt.assert_allclose(sel.x_star, [1.0], rtol=1e-12)
        assert sel.energy == pytest.approx(scalar_min_energy(1.0, 1.0), rel=1e-12)
        assert sel.binding

    def test_single_driver_compensates_uncontrolled_node(self):
        system = fc.LinearSystem(np.zeros((2, 2)))
        w = fc.reachability_gramian(system, fc.InputSchematic.single_node(2, 0), 1.0)
        sel = fc.select_mean_state(w, np.zeros(2), fc.mean_goal(2, 1.0))
        npt.assert_allclose(sel.x_star, [2.0, 0.0], atol=1e-12)
        assert sel.energy == pytest.approx(scalar_min_energy(2.0, 1.0), rel=1e-12)

    def test_constraint_already_met_is_free(self):
        w = _bundle_from(np.eye(2))
        z = np.array([1.0, 1.0])
        sel = fc.select_mean_state(w, z, fc.LinearGoal(np.ones(2), 2.0))
        npt.assert_array_equal(sel.x_star, z)
        assert sel.energy == 0.0
        assert not sel.binding

    def test_matches_kkt_oracle_on_random_systems(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            bundle, _ = _random_pd_bundle(rng, n, t_star=float(rng.uniform(0.5, 2.0)))
            v = rng.standard_normal(n)
            z = rng.standard_normal(n)
            c = float(v @ z) + float(rng.uniform(0.1, 2.0))
            goal = fc.LinearGoal(v, c)
            sel = fc.select_mean_state(bundle, z, goal)
            x_ref, psi_ref, e_ref = kkt_mean_oracle(bundle.W, z, v, c)
            npt.assert_allclose(sel.x_star, x_ref, rtol=1e-6, atol=1e-9)
            assert sel.energy == pytest.approx(e_ref, rel=1e-6)
            assert sel.multiplier == pytest.approx(psi_ref, rel=1e-6)

    def test_energy_times_kappa_is_gap_squared(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            bundle, _ = _random_pd_bundle(rng, n)
            v = rng.standard_normal(n)
            z = rng.standard_normal(n)
            c = float(v @ z) + 1.0
            sel = fc.select_mean_state(bundle, z, fc.LinearGoal(v, c))
            kap = float(v @ bundle.W @ v)
            alpha = float(v @ z) - c
            assert sel.energy * kap == pytest.approx(alpha**2, rel=1e-10)

    def test_constraint_holds_at_solution(self, rng):
        bundle, _ = _random_pd_bundle(rng, 4)
        v = rng.standard_normal(4)
        z = rng.standard_normal(4)
        c = float(v @ z) + 0.7
        sel = fc.select_mean_state(bundle, z, fc.LinearGoal(v, c))
        assert abs(float(v @ sel.x_star) - c) <= 1e-8 * (1.0 + abs(c))

    def test_unmovable_observer_raises(self):
        # Equal-and-opposite column: the average is genuinely uncontrollable.
        system = fc.LinearSystem(np.zeros((2, 2)))
        schematic = fc.InputSchematic(np.array([[1.0], [-1.0]]))
        w = fc.reachability_gramian(system, schematic, 1.0)
        with pytest.raises(GoalUncontrollableError):
            fc.select_mean_state(w, np.zeros(2), fc.mean_goal(2, 1.0))

    def test_valid_with_singular_gramian_when_kappa_positive(self):
        w = _bundle_from(np.diag([1.0, 0.0]))
        sel = fc.select_mean_state(w, np.zeros(2), fc.mean_goal(2, 0.5))
        npt.assert_allclose(sel.x_star, [1.0, 0.0], atol=1e-12)
        assert sel.energy == pytest.approx(1.0, rel=1e-12)


class TestSelectRepulsionState:
    def test_scalar_oracle(self):
        system = fc.LinearSystem([[0.0]])
        w = fc.reachability_gramian(system, fc.InputSchematic([[1.0]]), 1.0)
        sel = fc.select_repulsion_state(w, np.zeros(1), 4.0)
        assert abs(sel.x_star[0]) == pytest.approx(2.0, rel=1e-12)
        assert sel.energy == pytest.approx(4.0, rel=1e-12)
        assert sel.energy == pytest.approx(scalar_min_energy(2.0, 1.0), rel=1e-12)

    def test_diagonal_against_grid_search(self):
        w_mat = np.diag([4.0, 1.0])
        w = _bundle_from(w_mat)
        sel = fc.select_repulsion_state(w, np.zeros(2), 9.0)
        npt.assert_allclose(np.abs(sel.x_star), [3.0, 0.0], atol=1e-10)
        assert sel.energy == pytest.approx(9.0 / 4.0, rel=1e-12)
        grid = sphere_grid_min_energy(w_mat, np.zeros(2), np.zeros(2), 9.0)
        assert sel.energy <= grid + 1e-8

    def test_degenerate_threshold(self):
        w = _bundle_from(np.eye(2))
        z = np.array([0.3, -0.2])
        sel = fc.select_repulsion_state(w, z, 0.0)
        npt.assert_array_equal(sel.x_star, z)
        assert sel.energy == 0.0
        assert not sel.binding

    def test_sign_points_along_endpoint(self, rng):
        w = _bundle_from(np.diag([4.0, 1.0]))
        z = np.array([1.0, 1.0])
        sel = fc.select_repulsion_state(w, z, 9.0)
        npt.assert_allclose(sel.x_star, [4.0, 1.0], atol=1e-10)

    def test_beats_random_directions(self, rng):
        for _ in range(3):
            n = int(rng.integers(2, 5))
            bundle, _ = _random_pd_bundle(rng, n)
            z = rng.standard_normal(n)
            eta = float(rng.uniform(0.5, 4.0))
            sel = fc.select_repulsion_state(bundle, z, eta)
            w_inv = np.linalg.inv(bundle.W)
            for _ in range(1000):
                u = rng.standard_normal(n)
                u /= np.linalg.norm(u)
                x = z + np.sqrt(eta) * u
                energy = float((x - z) @ w_inv @ (x - z))
                assert energy >= sel.energy - 1e-8

    def test_singular_gramian_matches_range_oracle(self, rng):
        # A singular W = G G^T reaches only z + range(G): the selection is the
        # cheapest point of the sphere there, energy eta / lam_max. diag(1, 0)
        # moves only the first coordinate.
        sel = fc.select_repulsion_state(_bundle_from(np.diag([1.0, 0.0])), np.zeros(2), 1.0)
        npt.assert_allclose(np.abs(sel.x_star), [1.0, 0.0], atol=1e-12)
        assert sel.energy == pytest.approx(1.0, rel=1e-12)
        for g in _low_rank_factors(rng):
            n = g.shape[0]
            z = rng.standard_normal(n)
            eta = float(rng.uniform(0.5, 3.0))
            sel = fc.select_repulsion_state(_bundle_from(g @ g.T), z, eta)
            energy, _ = range_qcls_grid(g, z, np.eye(n), z, eta)
            assert sel.energy == pytest.approx(energy, rel=1e-6)
            assert float((sel.x_star - z) @ (sel.x_star - z)) == pytest.approx(eta, rel=1e-10)
            _assert_in_range(g, sel.x_star - z)

    def test_multiplier_is_inverse_top_eigenvalue(self, rng):
        bundle, _ = _random_pd_bundle(rng, 3)
        sel = fc.select_repulsion_state(bundle, np.zeros(3), 2.0)
        assert sel.multiplier == pytest.approx(1.0 / bundle.lam_max, rel=1e-12)


class TestSolveQcls:
    def test_matches_repulsion_when_centered_on_endpoint(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 5))
            bundle, _ = _random_pd_bundle(rng, n)
            z = rng.standard_normal(n)
            eta = float(rng.uniform(0.5, 3.0))
            rep = fc.select_repulsion_state(bundle, z, eta)
            qcls = fc.solve_qcls(bundle, z, np.eye(n), z, eta, sense="expand")
            assert qcls.energy == pytest.approx(rep.energy, rel=1e-8, abs=1e-10)
            npt.assert_allclose(qcls.x_star, rep.x_star, rtol=1e-6, atol=1e-8)

    def test_secular_value_at_zero_is_initial_residual(self, rng):
        # lam = 0 reproduces the autonomous endpoint, so the residual there is
        # ||Oz - d||^2 and a target barely above it roots just past zero.
        bundle, _ = _random_pd_bundle(rng, 3)
        z = rng.standard_normal(3)
        d = rng.standard_normal(3)
        eta = float(np.linalg.norm(z - d) ** 2)
        sel = fc.solve_qcls(bundle, z, np.eye(3), d, eta * 1.0000001, sense="expand")
        assert sel.multiplier >= 0.0
        assert sel.multiplier < 1e-4

    def test_contract_to_exact_point(self):
        bundle = _bundle_from(np.eye(2))
        z = np.array([2.0, 0.0])
        sel = fc.solve_qcls(bundle, z, np.eye(2), np.zeros(2), 0.0, sense="contract")
        npt.assert_allclose(sel.x_star, np.zeros(2), atol=1e-10)
        assert sel.energy == pytest.approx(4.0, rel=1e-10)
        assert sel.multiplier == -np.inf

    def test_expand_against_grid_search(self):
        w_mat = np.diag([1.0, 4.0])
        bundle = _bundle_from(w_mat)
        d = np.array([1.0, 0.0])
        sel = fc.solve_qcls(bundle, np.zeros(2), np.eye(2), d, 4.0, sense="expand")
        grid = sphere_grid_min_energy(w_mat, np.zeros(2), d, 4.0)
        assert sel.energy == pytest.approx(grid, rel=1e-3)
        r = sel.x_star - d
        assert float(r @ r) == pytest.approx(4.0, rel=1e-8)

    def test_contract_projects_onto_ellipsoid(self):
        bundle = _bundle_from(np.eye(2))
        z = np.array([2.0, 0.0])
        sel = fc.solve_qcls(bundle, z, np.eye(2), np.zeros(2), 1.0, sense="contract")
        npt.assert_allclose(sel.x_star, [1.0, 0.0], atol=1e-8)
        assert sel.energy == pytest.approx(1.0, rel=1e-8)
        assert sel.multiplier == pytest.approx(-1.0, rel=1e-6)

    def test_contract_against_grid_search(self, rng):
        w_mat = np.array([[2.0, 0.4], [0.4, 1.0]])
        bundle = _bundle_from(w_mat)
        z = np.array([3.0, -2.0])
        d = np.array([0.5, 0.5])
        sel = fc.solve_qcls(bundle, z, np.eye(2), d, 1.5, sense="contract")
        grid = sphere_grid_min_energy(w_mat, z, d, 1.5)
        assert sel.energy == pytest.approx(grid, rel=1e-3)

    def test_secular_function_monotone_and_root_accurate(self, rng):
        bundle, _ = _random_pd_bundle(rng, 4)
        z = rng.standard_normal(4)
        d = z + 0.1 * rng.standard_normal(4)
        o = np.eye(4)
        eta = float(np.linalg.norm(z - d) ** 2) + 1.5
        sel = fc.solve_qcls(bundle, z, o, d, eta, sense="expand")
        r = sel.x_star - d
        assert abs(float(r @ r) - eta) <= 1e-8 * (1.0 + eta)
        # Monotone on (0, pole): probe the multiplier-parameterized residual.
        w = bundle.W
        pole = 1.0 / np.linalg.eigvalsh(w)[-1]
        lams = np.linspace(0.0, pole * 0.999, 40)
        vals = []
        for lam in lams:
            x = np.linalg.solve(np.eye(4) - lam * w, z - lam * (w @ d))
            vals.append(float((x - d) @ (x - d)))
        assert np.all(np.diff(vals) >= -1e-9)

    def test_infeasible_contract_reports_minimum(self):
        bundle = _bundle_from(np.eye(2))
        o = np.diag([1.0, 0.0])
        d = np.array([0.0, 1.0])
        z = np.array([3.0, 0.0])
        # ||O x - d||^2 = x1^2 + 1 >= 1, so eta = 0.5 is unreachable.
        with pytest.raises(InfeasibleGoalError) as exc:
            fc.solve_qcls(bundle, z, o, d, 0.5, sense="contract")
        assert exc.value.min_eta == pytest.approx(1.0, rel=1e-10)

    def test_contract_on_singular_karate_gramians_is_steerable_or_typed(self, karate):
        # One to four random inputs leave W numerically singular. Eigenvalues
        # below sqrt(eps) lam_max form the theta = 0 block; a cut at
        # n eps lam_max would count roundoff-sized ones as reachable and
        # return selections (energies up to 1e12) that steering misses.
        system = karate["system"]
        evaluator = fc.GramianEvaluator(system, 3.0)
        n = system.n
        returned = old_cut_returned = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            schematic = fc.ram_baseline(n, int(rng.integers(1, 5)), seed=seed)
            x0, d = rng.standard_normal(n), rng.standard_normal(n)
            z = evaluator.propagate(x0)
            eta = float(rng.uniform(0.2, 0.95)) * float((z - d) @ (z - d))
            bundle = evaluator.bundle(schematic.B)
            try:
                sel = fc.solve_qcls(bundle, z, np.eye(n), d, eta, sense="contract")
            except InfeasibleGoalError as exc:
                assert exc.min_eta > eta
                theta, u = np.linalg.eigh(0.5 * (bundle.W + bundle.W.T))
                c = u.T @ (z - d)
                old_null = theta <= n * np.finfo(float).eps * theta[-1]
                old_cut_returned += float(c[old_null] @ c[old_null]) < eta
                continue
            returned += 1
            u_fn = fc.min_energy_controller(evaluator, schematic, sel.p, 2000)
            traj = fc.simulate(system, schematic, u_fn, x0, 3.0, 2000)
            miss = np.linalg.norm(traj.endpoint - sel.x_star)
            assert miss <= 1e-5 * (1.0 + np.linalg.norm(sel.x_star - z))
            r = sel.x_star - d
            assert float(r @ r) == pytest.approx(eta, rel=1e-9)
        assert returned >= 3 and old_cut_returned >= 3

    def test_non_binding_returns_corner(self):
        bundle = _bundle_from(np.eye(2))
        z = np.array([2.0, 0.0])
        sel = fc.solve_qcls(bundle, z, np.eye(2), np.zeros(2), 1.0, sense="expand")
        npt.assert_array_equal(sel.x_star, z)
        assert not sel.binding

    def test_singular_gramian_matches_range_oracle(self, rng):
        # On W = G G^T both senses select over z + range(G); a contract target
        # below min_y ||O (z + G y) - d||^2 is infeasible and reports that floor.
        for g in _low_rank_factors(rng):
            n = g.shape[0]
            z = np.zeros(n)
            o, d = (np.eye(2), np.ones(2)) if n == 2 else (
                rng.standard_normal((n, n)), rng.standard_normal(n))
            a = o @ z - d
            og = o @ g
            floor = float(np.sum((a - og @ np.linalg.lstsq(og, a, rcond=None)[0]) ** 2))
            f0 = float(a @ a)
            bundle = _bundle_from(g @ g.T)
            for sense, eta in (("expand", f0 + 2.0), ("contract", 0.5 * (floor + f0))):
                sel = fc.solve_qcls(bundle, z, o, d, eta, sense=sense)
                energy, _ = range_qcls_grid(g, z, o, d, eta)
                assert sel.energy == pytest.approx(energy, rel=1e-6)
                r = o @ sel.x_star - d
                assert float(r @ r) == pytest.approx(eta, rel=1e-9)
                _assert_in_range(g, sel.x_star - z)
            assert range_qcls_grid(g, z, o, d, 0.5 * floor)[0] == np.inf
            with pytest.raises(InfeasibleGoalError) as exc:
                fc.solve_qcls(bundle, z, o, d, 0.5 * floor, sense="contract")
            assert exc.value.min_eta == pytest.approx(floor, rel=1e-9)


class TestSelectVarianceState:
    def test_identity_gramian_mean_zero_solution(self):
        bundle = _bundle_from(np.eye(2))
        sel = fc.select_variance_state(bundle, np.zeros(2), 2.0)
        assert sel.energy == pytest.approx(2.0, rel=1e-10)
        npt.assert_allclose(np.abs(sel.x_star), [1.0, 1.0], atol=1e-10)
        assert sel.x_star[0] * sel.x_star[1] < 0  # mean-zero, opposite signs
        dx = sel.x_star - sel.x_star.mean()
        assert float(dx @ dx) == pytest.approx(2.0, rel=1e-10)

    def test_non_binding_returns_corner(self):
        bundle = _bundle_from(np.eye(2))
        z = np.array([1.0, -1.0])  # ||Dz||^2 = 2 >= eta
        sel = fc.select_variance_state(bundle, z, 2.0)
        npt.assert_array_equal(sel.x_star, z)
        assert sel.energy == 0.0
        assert not sel.binding

    def test_single_node_rejected(self):
        bundle = _bundle_from(np.eye(1))
        with pytest.raises(InvalidInputError):
            fc.select_variance_state(bundle, np.zeros(1), 1.0)

    def test_against_grid_oracle_n2(self, rng):
        for _ in range(5):
            bundle, _ = _random_pd_bundle(rng, 2)
            z = 0.1 * rng.standard_normal(2)
            eta = float(rng.uniform(0.5, 3.0))
            if not fc.binding_check(fc.VarianceGoal(eta), z):
                continue
            sel = fc.select_variance_state(bundle, z, eta)
            grid = variance_grid_min_energy(bundle.W, z, eta)
            assert sel.energy == pytest.approx(grid, rel=1e-6)

    def test_against_grid_oracle_n3(self, rng):
        for _ in range(5):
            bundle, _ = _random_pd_bundle(rng, 3)
            z = 0.2 * rng.standard_normal(3)
            eta = float(rng.uniform(0.5, 3.0))
            if not fc.binding_check(fc.VarianceGoal(eta), z):
                continue
            sel = fc.select_variance_state(bundle, z, eta)
            grid = variance_grid_min_energy(bundle.W, z, eta, samples=6000)
            assert sel.energy <= grid + 1e-8
            assert sel.energy == pytest.approx(grid, rel=2e-3)

    def test_constraint_holds_at_solution(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 7))
            bundle, _ = _random_pd_bundle(rng, n)
            z = 0.2 * rng.standard_normal(n)
            eta = float(rng.uniform(0.5, 2.0))
            if not fc.binding_check(fc.VarianceGoal(eta), z):
                continue
            sel = fc.select_variance_state(bundle, z, eta)
            dx = sel.x_star - sel.x_star.mean()
            assert abs(float(dx @ dx) - eta) <= 1e-8 * (1.0 + eta)

    def test_multiplier_within_generalized_eigenvalue_cap(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 6))
            bundle, _ = _random_pd_bundle(rng, n)
            z = 0.3 * rng.standard_normal(n)
            eta = float(rng.uniform(0.5, 2.0))
            if not fc.binding_check(fc.VarianceGoal(eta), z):
                continue
            sel = fc.select_variance_state(bundle, z, eta)
            q = mean_zero_basis(n)
            lam_cap = 1.0 / np.linalg.eigvalsh(q.T @ bundle.W @ q)[-1]
            assert 0.0 < sel.multiplier <= lam_cap * (1.0 + 1e-10)

    @pytest.mark.parametrize("alpha, beta, ratio", [(0.5, 0.3, 4.0), (0.2, -1.0, 6.0)])
    def test_hard_case_matches_grid_and_qcls(self, alpha, beta, ratio):
        # Dz is orthogonal to the top eigenvector of D W D, and eta is so far
        # above ||Dz||^2 that no multiplier below the pole reaches it.
        w_mat = np.array([[3.0, 1.0, 0.0], [1.0, 2.0, 0.5], [0.0, 0.5, 1.0]])
        d_mat = np.eye(3) - 1.0 / 3.0
        theta, u = np.linalg.eigh(d_mat @ w_mat @ d_mat)
        z = alpha * u[:, 1] + beta * np.ones(3)
        dz = d_mat @ z
        assert abs(float(dz @ u[:, 2])) < 1e-12 and float(dz @ dz) > 0.01
        eta = ratio * float(dz @ dz)
        bundle = _bundle_from(w_mat)
        sel = fc.select_variance_state(bundle, z, eta)
        assert sel.multiplier == pytest.approx(1.0 / theta[-1], rel=1e-12)
        assert sel.energy <= variance_grid_min_energy(w_mat, z, eta, samples=6000) + 1e-8
        qcls = fc.solve_qcls(bundle, z, d_mat, np.zeros(3), eta)
        assert sel.energy == pytest.approx(qcls.energy, rel=1e-10)
        npt.assert_allclose(sel.x_star, qcls.x_star, rtol=1e-10, atol=1e-12)
        dx = d_mat @ sel.x_star
        assert float(dx @ dx) == pytest.approx(eta, rel=1e-10)

    def test_energy_matches_quadratic_form(self, rng):
        # Reported energy equals the defining form (z - x)^T W^{-1} (z - x).
        for _ in range(5):
            n = int(rng.integers(2, 6))
            bundle, _ = _random_pd_bundle(rng, n)
            z = 0.2 * rng.standard_normal(n)
            eta = 1.0
            if not fc.binding_check(fc.VarianceGoal(eta), z):
                continue
            sel = fc.select_variance_state(bundle, z, eta)
            dx = sel.x_star - z
            direct = float(dx @ np.linalg.solve(bundle.W, dx))
            assert sel.energy == pytest.approx(direct, rel=1e-8)


class TestVarianceEnergyBound:
    def test_identity_two_nodes(self):
        bundle = _bundle_from(np.eye(2))
        assert fc.variance_energy_bound(bundle, np.zeros(2), 2.0) == pytest.approx(2.0)

    def test_zero_eta_mean_zero_endpoint(self):
        bundle = _bundle_from(np.eye(2))
        z = np.array([1.0, -1.0])
        bound = fc.variance_energy_bound(bundle, z, 0.0)
        assert bound == pytest.approx(2.0, rel=1e-12)
        assert bound > 0.0

    def test_never_violated_by_solver(self, rng):
        checked = 0
        while checked < 100:
            n = int(rng.integers(2, 7))
            bundle, _ = _random_pd_bundle(rng, n)
            z = 0.3 * rng.standard_normal(n)
            eta = float(rng.uniform(0.2, 3.0))
            if not fc.binding_check(fc.VarianceGoal(eta), z):
                continue
            sel = fc.select_variance_state(bundle, z, eta)
            bound = fc.variance_energy_bound(bundle, z, eta)
            assert sel.energy <= bound * (1.0 + 1e-8)
            checked += 1


class TestRepulsionMinThreshold:
    def test_canonical_basis_vector(self):
        assert fc.repulsion_min_threshold(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_two_ones(self):
        assert fc.repulsion_min_threshold(np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_zero_vector(self):
        assert fc.repulsion_min_threshold(np.zeros(3)) == 0.0


class TestSingleInputScales:
    def test_feasible_at_threshold(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            d = rng.standard_normal(n)
            eta = fc.repulsion_min_threshold(d)
            k = int(np.argmax(np.abs(d)))
            b = np.sqrt(2.0) * np.eye(n)[:, k]
            roots = fc.single_input_scales(b, d, eta)
            assert roots is not None
            for scale in roots:
                x = scale * b
                assert float((x - d) @ (x - d)) == pytest.approx(eta, abs=1e-8)

    def test_infeasible_below_threshold(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 6))
            d = rng.standard_normal(n)
            d[int(np.argmax(np.abs(d)))] *= 1.5  # keep a clear gap to the threshold
            eta = fc.repulsion_min_threshold(d)
            if eta < 0.05:
                continue
            k = int(np.argmax(np.abs(d)))
            b = np.eye(n)[:, k]
            assert fc.single_input_scales(b, d, 0.5 * eta) is None

    def test_aligned_column_reaches_everything(self, rng):
        d = rng.standard_normal(4)
        roots = fc.single_input_scales(d, d, 0.25)
        assert roots is not None


class TestSelectStateDispatch:
    def test_linear_dispatch(self, rng):
        bundle, _ = _random_pd_bundle(rng, 3)
        z = np.zeros(3)
        goal = fc.mean_goal(3, 1.0)
        a = fc.select_state(bundle, z, goal)
        b = fc.select_mean_state(bundle, z, goal)
        npt.assert_array_equal(a.x_star, b.x_star)

    def test_repulsion_dispatch_to_eigen_solver(self, rng):
        bundle, _ = _random_pd_bundle(rng, 3)
        z = rng.standard_normal(3)
        goal = fc.RepulsionGoal(d=z, eta=1.0)
        a = fc.select_state(bundle, z, goal)
        b = fc.select_repulsion_state(bundle, z, 1.0)
        npt.assert_array_equal(a.x_star, b.x_star)

    def test_repulsion_dispatch_general(self, rng):
        bundle, _ = _random_pd_bundle(rng, 3)
        z = rng.standard_normal(3)
        d = z + np.array([0.5, 0.0, 0.0])
        goal = fc.RepulsionGoal(d=d, eta=2.0)
        a = fc.select_state(bundle, z, goal)
        b = fc.solve_qcls(bundle, z, np.eye(3), d, 2.0)
        npt.assert_array_equal(a.x_star, b.x_star)

    def test_variance_dispatch(self, rng):
        bundle, _ = _random_pd_bundle(rng, 3)
        goal = fc.VarianceGoal(1.0)
        a = fc.select_state(bundle, np.zeros(3), goal)
        b = fc.select_variance_state(bundle, np.zeros(3), 1.0)
        npt.assert_array_equal(a.x_star, b.x_star)


_NON_FINITE = [np.nan, np.inf, -np.inf]


class TestNonFiniteThresholds:
    @pytest.mark.parametrize("value", _NON_FINITE)
    @pytest.mark.parametrize("make", [
        lambda v: fc.VarianceGoal(v),
        lambda v: fc.RepulsionGoal(d=np.zeros(3), eta=v),
        lambda v: fc.LinearGoal(np.ones(3), v),
        lambda v: fc.mean_goal(3, v),
    ], ids=["variance", "repulsion", "linear", "mean"])
    def test_goals_reject(self, make, value):
        # nan < 0 is False, so a sign check alone would let NaN through.
        with pytest.raises(InvalidInputError):
            make(value)

    @pytest.mark.parametrize("value", _NON_FINITE)
    @pytest.mark.parametrize("solve", [
        lambda w, z, v: fc.solve_qcls(w, z, np.eye(3), z, v),
        lambda w, z, v: fc.solve_qcls(w, z, np.eye(3), z + 1.0, v, sense="contract"),
        fc.select_repulsion_state,
        fc.select_variance_state,
        fc.variance_energy_bound,
        lambda w, z, v: fc.single_input_scales(np.ones(3), z, v),
    ], ids=["qcls-expand", "qcls-contract", "repulsion", "variance", "variance-bound",
            "single-input"])
    def test_solvers_reject(self, rng, solve, value):
        bundle, _ = _random_pd_bundle(rng, 3)
        with pytest.raises(InvalidInputError):
            solve(bundle, rng.standard_normal(3), value)
