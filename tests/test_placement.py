import functools
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import fluxcontrol as fc
import fluxcontrol.placement as placement
import fluxcontrol.select as select
from fluxcontrol.errors import InfeasibleGoalError, InvalidInputError, PlacementAbortError
from fluxcontrol.placement import _MAX_HALVINGS, _tangent

from _oracles import random_stable_system, schur_variance_energy_bound


def _counting(calls, name, fn):
    """``fn``, counting its calls in ``calls[name]``."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _flux_closed_form(system, t_star, m, x0, goal):
    """Flux-optimal schematic and the goal's selection energy on it."""
    placed = fc.place_mean_optimal(system, np.ones(system.n), t_star, m=m)
    evaluator = fc.GramianEvaluator(system, t_star)
    z = evaluator.propagate(x0)
    return placed.B_star, fc.select_state(evaluator.bundle(placed.B_star), z, goal).energy


class TestSphereOps:
    def test_projection_hits_trace_target(self, rng):
        b = rng.standard_normal((5, 3))
        proj = fc.project_sphere(b, epsilon=1e-6)
        assert float(np.sum(proj * proj)) == pytest.approx(3.0 + 1e-6, abs=1e-10 * 3)

    def test_zero_matrix_rejected(self):
        with pytest.raises(InvalidInputError):
            fc.project_sphere(np.zeros((3, 2)))

    def test_tangent_projection_orthogonal_to_norm_gradient(self, rng):
        for _ in range(10):
            b = fc.project_sphere(rng.standard_normal((4, 2)), epsilon=1e-6)
            v = rng.standard_normal((4, 2))
            # Gradient of the squared sphere defect (tr(B^T B) - m)^2.
            g = 2.0 * (float(np.sum(b * b)) - 2) * b
            out = _tangent(v, b)
            assert abs(float(np.sum(out * g))) <= 1e-8 * np.linalg.norm(v) * np.linalg.norm(g)

    @pytest.mark.parametrize("m", [1, 3])
    def test_every_placement_returns_a_schematic_on_its_sphere(self, karate, m):
        # The sphere is a guarantee of the placement functions, not a flag on
        # the array: tr(B^T B) = m + epsilon, and m for the closed form.
        system, cfg = karate["system"], fc.GpgmConfig(sigma=0.1, epsilon=1e-3, max_iters=5)
        evaluator, goal = fc.GramianEvaluator(system, 2.0), fc.VarianceGoal(1.0)
        z = np.zeros(34)
        placed = {
            "gpgm": (fc.gpgm(evaluator, z, goal, m, config=cfg).B_star, cfg.epsilon),
            "gpgm_multistart": (fc.gpgm_multistart(evaluator, z, goal, m, config=cfg,
                                                   n_starts=2).B_star, cfg.epsilon),
            "ram_baseline": (fc.ram_baseline(34, m, seed=5, epsilon=cfg.epsilon), cfg.epsilon),
            "place_mean_optimal": (fc.place_mean_optimal(system, np.ones(34), 2.0, m).B_star, 0.0),
        }
        for name, (b, eps) in placed.items():
            assert b.shape == (34, m), name
            assert abs(float(np.trace(b.T @ b)) - (m + eps)) <= 1e-10 * m, name


class TestPlaceMeanOptimal:
    def test_zero_dynamics_uniform_vector(self):
        system = fc.LinearSystem(np.zeros((3, 3)))
        result = fc.place_mean_optimal(system, np.ones(3), 1.0, m=1)
        npt.assert_allclose(result.B_star[:, 0], np.full(3, 1.0 / np.sqrt(3.0)), rtol=1e-12)
        lam = fc.flux_matrix(system, np.ones(3), 1.0).lam_max
        assert lam == pytest.approx(3.0, rel=1e-12)
        assert result.energy == pytest.approx(1.0 / 3.0, rel=1e-12)
        w = fc.GramianEvaluator(system, 1.0).bundle(result.B_star)
        assert w.kappa == pytest.approx(3.0, rel=1e-10)

    def test_one_dimensional(self):
        system = fc.LinearSystem([[0.5]])
        result = fc.place_mean_optimal(system, np.ones(1), 1.0, m=1)
        assert abs(result.B_star[0, 0]) == pytest.approx(1.0, rel=1e-12)
        w = fc.GramianEvaluator(system, 1.0).bundle(result.B_star)
        lam = fc.flux_matrix(system, np.ones(1), 1.0).lam_max
        assert w.kappa == pytest.approx(lam, rel=1e-10)

    def test_rayleigh_bound_over_random_schematics(self, rng):
        a = random_stable_system(rng, 4)
        system = fc.LinearSystem(a)
        m, t_star = 2, 1.3
        fm = fc.flux_matrix(system, np.ones(4), t_star)
        cap = m * fm.lam_max
        for _ in range(1000):
            b = fc.project_sphere(rng.standard_normal((4, m)))
            w = fc.GramianEvaluator(system, t_star).bundle(b)
            assert w.kappa <= cap + 1e-8

    def test_stationarity_residual(self, rng):
        a = random_stable_system(rng, 5)
        system = fc.LinearSystem(a)
        result = fc.place_mean_optimal(system, np.ones(5), 1.0, m=2)
        fm = fc.flux_matrix(system, np.ones(5), 1.0)
        b = result.B_star
        residual = np.linalg.norm(fm.Phi @ b - fm.lam_max * b)
        assert residual <= 1e-8 * fm.lam_max

    def test_scale_equivariance_of_weighting(self, rng):
        a = random_stable_system(rng, 4)
        system = fc.LinearSystem(a)
        v = rng.standard_normal(4)
        f1 = fc.flux_matrix(system, v, 1.0)
        f2 = fc.flux_matrix(system, 2.0 * v, 1.0)
        assert f2.lam_max == pytest.approx(4.0 * f1.lam_max, rel=1e-10)
        assert min(
            np.linalg.norm(f1.top_vector - f2.top_vector),
            np.linalg.norm(f1.top_vector + f2.top_vector),
        ) <= 1e-8

    def test_energy_with_gap(self):
        system = fc.LinearSystem(np.zeros((3, 3)))
        _, energy = _flux_closed_form(system, 1.0, 1, np.zeros(3), fc.LinearGoal(np.ones(3), 3.0))
        # alpha = -3, lam = 3: energy = 9 / 3.
        assert energy == pytest.approx(3.0, rel=1e-12)


class TestGpgm:
    def test_mean_goal_approaches_closed_form(self, rng):
        a = random_stable_system(rng, 5)
        system = fc.LinearSystem(a)
        x0 = rng.standard_normal(5)
        t_star = 1.0
        goal = fc.mean_goal(5, float(np.ones(5) @ x0) / 5 + 1.0)
        _, closed_energy = _flux_closed_form(system, t_star, 1, x0, goal)
        cfg = fc.GpgmConfig(sigma=0.05, max_iters=400, seed=3)
        evaluator = fc.GramianEvaluator(system, t_star)
        result = fc.gpgm_multistart(evaluator, evaluator.propagate(x0), goal, m=1, config=cfg,
                                    n_starts=3)
        assert result.energy <= closed_energy * 1.01

    def test_stationary_at_flux_optimum(self, rng):
        a = random_stable_system(rng, 4)
        system = fc.LinearSystem(a)
        x0 = rng.standard_normal(4)
        goal = fc.mean_goal(4, float(np.ones(4) @ x0) / 4 + 0.5)
        closed, closed_energy = _flux_closed_form(system, 1.0, 1, x0, goal)
        cfg = fc.GpgmConfig(max_iters=50)
        evaluator = fc.GramianEvaluator(system, 1.0)
        result = fc.gpgm(evaluator, evaluator.propagate(x0), goal, m=1, config=cfg,
                         B_init=closed)
        assert result.iterations <= 2
        assert result.converged
        # Unchanged across iterations; the epsilon-shrunk sphere shifts the
        # closed-form value by epsilon/m relative, no more.
        assert abs(result.energy - result.energy_trace[0]) <= 1e-8 * (1.0 + result.energy)
        assert result.energy <= closed_energy * (1.0 + 2.0 * cfg.epsilon)

    def test_trace_non_increasing_and_iterates_on_sphere(self, rng):
        a = random_stable_system(rng, 4)
        system = fc.LinearSystem(a)
        goal = fc.VarianceGoal(0.5)
        cfg = fc.GpgmConfig(sigma=0.05, max_iters=40, seed=1)
        result = fc.gpgm(fc.GramianEvaluator(system, 1.5), np.zeros(4), goal, m=2, config=cfg)
        trace = result.energy_trace
        assert np.all(np.diff(trace) <= 1e-8 * (1.0 + np.abs(trace[:-1])))
        tr = float(np.sum(result.B_star ** 2))
        assert abs(tr - (2.0 + cfg.epsilon)) <= 1e-10 * 2.0

    def test_random_start_is_the_ram_baseline(self, karate):
        evaluator = fc.GramianEvaluator(karate["system"], 1.0)
        z = evaluator.propagate(np.arange(34.0))
        goal = fc.VarianceGoal(1.0)
        cfg = fc.GpgmConfig(max_iters=1, seed=3)
        result = fc.gpgm(evaluator, z, goal, m=2, config=cfg)
        start = fc.ram_baseline(34, 2, cfg.seed, cfg.epsilon)
        assert result.energy_trace[0] == fc.select_state(
            evaluator.bundle(start), z, goal).energy

    def test_negative_seed_is_an_input_error(self):
        evaluator = fc.GramianEvaluator(fc.LinearSystem(np.zeros((3, 3))), 1.0)
        with pytest.raises(InvalidInputError, match="seed"):
            fc.gpgm(evaluator, np.zeros(3), fc.VarianceGoal(1.0), m=1,
                    config=fc.GpgmConfig(seed=-1))

    def test_non_binding_goal_returns_zero_energy(self, rng):
        system = fc.LinearSystem(np.zeros((3, 3)))
        goal = fc.mean_goal(3, -5.0)
        result = fc.gpgm(fc.GramianEvaluator(system, 1.0), np.zeros(3), goal, m=1)
        assert result.energy == 0.0
        assert result.converged
        assert result.iterations == 0

    def test_karate_variance_reaches_spectral_optimum(self, karate):
        # The optimal schematic puts both columns on the slowest mean-zero
        # mode; the Schur product theorem caps every schematic's restricted
        # top eigenvalue at (m + eps) * max_i G_ii, which lower-bounds the
        # energy. One descent should land within a percent of that bound and
        # far below the random-allocation baseline.
        system = karate["system"]
        goal = fc.VarianceGoal(1.0)
        x0 = np.zeros(34)
        t_star, m = 3.0, 2
        cfg = fc.GpgmConfig(sigma=0.1, max_iters=200, seed=0)
        evaluator = fc.GramianEvaluator(system, t_star)
        result = fc.gpgm(evaluator, x0, goal, m, config=cfg)
        optimum = schur_variance_energy_bound(system.A, t_star, goal.eta, m + cfg.epsilon)
        assert result.energy >= optimum * (1.0 - 1e-9)
        assert result.energy <= optimum * 1.01
        ram = [
            fc.select_state(
                evaluator.bundle(fc.ram_baseline(34, m, seed=s)), x0, goal
            ).energy
            for s in range(20)
        ]
        assert result.energy <= np.median(ram) / 20.0

    def test_karate_repulsion_from_the_endpoint_reaches_the_provable_optimum(self, karate):
        # Repulsion from z = 0 costs eta / lam_max(W(B)). In the Laplacian
        # eigenbasis Schur's inequality caps lam_max(W(B)) at
        # (m + eps) max_i K_ii = (m + eps) t*, the zero mode's weight, and
        # columns along 1 attain it. Every two-input W(B) here is singular.
        t_star, m = 3.0, 2
        evaluator = fc.GramianEvaluator(karate["system"], t_star)
        goal = fc.RepulsionGoal(d=np.zeros(34), eta=2.0)
        cfg = fc.GpgmConfig(sigma=0.1, max_iters=200, seed=0)
        result = fc.gpgm(evaluator, np.zeros(34), goal, m, config=cfg)
        optimum = goal.eta / ((m + cfg.epsilon) * t_star)
        assert optimum * (1.0 - 1e-9) <= result.energy <= optimum * (1.0 + 1e-6)
        along_ones = np.full((34, m), np.sqrt((m + cfg.epsilon) / (34 * m)))
        attained = fc.select_state(evaluator.bundle(along_ones), np.zeros(34), goal).energy
        assert attained == pytest.approx(optimum, rel=1e-9)

    def test_one_eigh_and_no_eigvalsh_per_candidate(self, karate, monkeypatch):
        # The evaluator's eigenbasis bundles are not re-validated, and the
        # selectors' uncontrollability test reads no eigenvalues of W, so a
        # candidate's one spectral call is the selector's: the top pairs of
        # O W O^T (dsyevr) when the goal starts on its target (O z = d), else
        # the full eigh. The variance goal from z = 0 and the repulsion goal
        # with d = z = 0 start on target, on the same singular two-input
        # Gramians; the variance goal from z != 0 does not.
        evaluator = fc.GramianEvaluator(karate["system"], 3.0)
        calls = {}
        counting = functools.partial(_counting, calls)
        monkeypatch.setattr(evaluator, "bundle", counting("bundle", evaluator.bundle))
        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
        monkeypatch.setattr(select, "dsyevr", counting("dsyevr", select.dsyevr))
        cfg = fc.GpgmConfig(sigma=0.1, max_iters=20, seed=0)
        off_target = np.random.default_rng(11).standard_normal(34)
        for goal, z, on_target in (
            (fc.VarianceGoal(1.0), np.zeros(34), True),
            (fc.RepulsionGoal(d=np.zeros(34), eta=2.0), np.zeros(34), True),
            (fc.VarianceGoal(60.0), off_target, False),
        ):
            calls.update(bundle=0, eigh=0, eigvalsh=0, dsyevr=0)
            result = fc.gpgm(evaluator, z, goal, 2, config=cfg)
            assert 1 <= result.iterations <= 20
            assert calls["bundle"] >= result.iterations + 1
            assert calls["eigh"] + calls["dsyevr"] == calls["bundle"]
            assert calls["dsyevr" if on_target else "eigh"] == calls["bundle"]
            assert calls["eigvalsh"] == 0

    def test_goal_set_up_once_per_descent(self, karate, monkeypatch):
        # The binding test, the centering projector and the residual O z - d
        # depend on z alone: gpgm forms them once, and each candidate's
        # select_state reuses them.
        evaluator = fc.GramianEvaluator(karate["system"], 3.0)
        calls = {"binding": 0, "centering": 0, "select": 0}
        counting = functools.partial(_counting, calls)
        monkeypatch.setattr(select, "_violates", counting("binding", select._violates))
        monkeypatch.setattr(select, "centering_matrix",
                            counting("centering", select.centering_matrix))
        monkeypatch.setattr(placement, "select_state", counting("select", placement.select_state))
        cfg = fc.GpgmConfig(sigma=0.1, max_iters=5, seed=0)
        result = fc.gpgm(evaluator, np.zeros(34), fc.VarianceGoal(1.0), 2, config=cfg)
        assert calls["select"] >= result.iterations + 1 >= 3
        assert (calls["binding"], calls["centering"]) == (1, 1)

    def test_a_bound_goal_selects_only_from_its_own_endpoint(self, karate):
        bundle = fc.GramianEvaluator(karate["system"], 3.0).bundle(np.eye(34)[:, :2])
        z = np.zeros(34)
        bound = select._bind(fc.VarianceGoal(1.0), z)
        assert fc.select_state(bundle, z, bound).energy == fc.select_state(
            bundle, z, fc.VarianceGoal(1.0)).energy
        with pytest.raises(InvalidInputError, match="endpoint"):
            fc.select_state(bundle, z.copy(), bound)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ring_chords_reaches_the_bound_in_few_iterations(self, seed):
        # Barzilai-Borwein steps take a 200-node ring-plus-chords Laplacian
        # to the provable optimum; fixed steps stopped 2-5% above it at 300.
        n = 200
        rng = np.random.default_rng(0)
        adj = np.zeros((n, n))
        idx = np.arange(n)
        adj[idx, (idx + 1) % n] = adj[(idx + 1) % n, idx] = 1.0
        while adj.sum() < 2 * (n + n // 2):
            i, j = (int(k) for k in rng.integers(n, size=2))
            if i != j:
                adj[i, j] = adj[j, i] = 1.0
        system = fc.laplacian_system(adj)
        goal, t_star, m = fc.VarianceGoal(1.0), 3.0, 2
        cfg = fc.GpgmConfig(sigma=0.1, max_iters=300, seed=seed)
        result = fc.gpgm(fc.GramianEvaluator(system, t_star), np.zeros(n), goal, m, config=cfg)
        optimum = schur_variance_energy_bound(system.A, t_star, goal.eta, m + cfg.epsilon)
        assert result.converged and result.iterations <= 60
        assert optimum * (1.0 - 1e-9) <= result.energy <= optimum * (1.0 + 1e-4)

    def test_steps_record_one_accepted_step_per_iteration(self, karate):
        cfg = fc.GpgmConfig(sigma=0.1, max_iters=20, seed=1)
        result = fc.gpgm(fc.GramianEvaluator(karate["system"], 3.0), np.zeros(34),
                         fc.VarianceGoal(1.0), 2, config=cfg)
        assert len(result.steps) == len(result.energy_trace) - 1 >= 1
        assert np.all(result.steps > 0)
        # The first step is the configured one unless it was halved.
        assert result.steps[0] in [cfg.sigma * 0.5**h for h in range(_MAX_HALVINGS + 1)]

    def test_wrong_length_endpoint_is_an_input_error(self):
        evaluator = fc.GramianEvaluator(fc.LinearSystem(np.zeros((3, 3))), 1.0)
        with pytest.raises(InvalidInputError):
            fc.gpgm(evaluator, np.zeros(4), fc.mean_goal(3, 1.0), m=1)

    def test_variance_descends_on_laplacian_path(self, rng):
        adj = np.zeros((4, 4))
        for i in range(3):
            adj[i, i + 1] = adj[i + 1, i] = 1.0
        system = fc.laplacian_system(adj)
        goal = fc.VarianceGoal(1.0)
        cfg = fc.GpgmConfig(sigma=0.05, max_iters=150, seed=0)
        result = fc.gpgm(fc.GramianEvaluator(system, 2.0), np.zeros(4), goal, m=1, config=cfg)
        assert result.energy <= result.energy_trace[0]
        assert result.energy_trace[-1] <= result.energy_trace[0]


@pytest.mark.parametrize("case", ["karate", "directed-12"])
def test_gpgm_energy_trace_is_invariant_under_a_rotation_of_the_start(karate, case):
    # W(BQ) = W(B) for an orthogonal Q; the gradient -2 Phi(p) B, its tangent
    # part and the Barzilai-Borwein step all follow B to BQ, so the descent
    # from B_init Q is the descent from B_init times Q, energies unchanged.
    rng = np.random.default_rng(31)
    if case == "karate":
        system, m = karate["system"], 3
    else:
        system, m = fc.LinearSystem(random_stable_system(rng, 12)), 2
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    q = q * np.sign(np.diag(r))
    q[:, 0] *= np.linalg.det(q)  # a rotation: det Q = +1
    b_init = rng.standard_normal((system.n, m))
    evaluator, goal = fc.GramianEvaluator(system, 2.0), fc.VarianceGoal(1.0)
    cfg = fc.GpgmConfig(sigma=0.1, max_iters=30)
    base, turned = (fc.gpgm(evaluator, np.zeros(system.n), goal, m, config=cfg, B_init=b)
                    for b in (b_init, b_init @ q))
    assert base.iterations > 2 and turned.iterations == base.iterations
    npt.assert_allclose(turned.energy_trace, base.energy_trace, rtol=1e-10)
    npt.assert_allclose(turned.B_star, base.B_star @ q, atol=1e-10)


def _inject_infeasible(monkeypatch, fails):
    """Make gpgm's selections raise InfeasibleGoalError on the calls k (from 0)
    where ``fails(k)`` holds; returns the list of calls made."""
    calls, real = [], placement.select_state

    def select(W, z, goal):
        k = len(calls)
        calls.append(k)
        if fails(k):
            raise InfeasibleGoalError(f"injected at call {k}", min_eta=0.0)
        return real(W, z, goal)

    monkeypatch.setattr(placement, "select_state", select)
    return calls


class TestGpgmFailurePaths:
    @pytest.fixture
    def case(self, karate):
        evaluator = fc.GramianEvaluator(karate["system"], 1.0)
        # ||z - mean(z)||^2 is 484 here, so the goal binds.
        return evaluator, evaluator.propagate(np.arange(34.0)), fc.VarianceGoal(2000.0)

    def test_infeasible_start_aborts(self, case, monkeypatch):
        _inject_infeasible(monkeypatch, lambda k: k == 0)
        with pytest.raises(PlacementAbortError, match="initial schematic") as info:
            fc.gpgm(*case, m=2, config=fc.GpgmConfig(seed=3))
        assert info.value.partial_result is None

    def test_infeasible_candidates_halve_the_step(self, case, monkeypatch):
        cfg = fc.GpgmConfig(max_iters=5, seed=3)
        clean = fc.gpgm(*case, m=2, config=cfg)
        assert clean.steps[0] == cfg.sigma
        _inject_infeasible(monkeypatch, lambda k: k in (1, 2))
        result = fc.gpgm(*case, m=2, config=cfg)
        assert result.steps[0] == cfg.sigma / 4
        assert result.iterations > 1
        assert result.energy < result.energy_trace[0]

    def test_every_halving_infeasible_aborts_with_the_best_iterate(self, case, monkeypatch):
        limit = [np.inf]
        calls = _inject_infeasible(monkeypatch, lambda k: k >= limit[0])
        first = fc.gpgm(*case, m=2, config=fc.GpgmConfig(max_iters=1, seed=3))
        assert first.energy < first.energy_trace[0]
        # The same descent again, with every selection after its first iteration infeasible.
        limit[0] = len(calls)
        calls.clear()
        with pytest.raises(PlacementAbortError, match="every halved step") as info:
            fc.gpgm(*case, m=2, config=fc.GpgmConfig(max_iters=5, seed=3))
        assert len(calls) == limit[0] + _MAX_HALVINGS + 1
        partial = info.value.partial_result
        assert (partial.iterations, partial.converged) == (2, False)
        assert partial.energy == first.energy
        npt.assert_array_equal(partial.B_star, first.B_star)
        npt.assert_array_equal(partial.energy_trace, first.energy_trace)
        npt.assert_array_equal(partial.steps, first.steps)

    def test_no_lower_energy_converges_at_the_start(self, case, monkeypatch):
        sels, real = [], placement.select_state

        def worse(W, z, goal):
            # Every candidate costs more than the start.
            sels.append(real(W, z, goal))
            return sels[-1] if len(sels) == 1 else replace(sels[-1], energy=2 * sels[0].energy)

        monkeypatch.setattr(placement, "select_state", worse)
        cfg = fc.GpgmConfig(max_iters=5, seed=3)
        result = fc.gpgm(*case, m=2, config=cfg)
        assert len(sels) == _MAX_HALVINGS + 2
        assert (result.iterations, result.converged) == (1, True)
        assert result.energy == sels[0].energy
        npt.assert_array_equal(result.energy_trace, [sels[0].energy])
        assert result.steps.size == 0
        start = fc.ram_baseline(34, 2, cfg.seed, cfg.epsilon)
        npt.assert_array_equal(result.B_star, fc.project_sphere(start, epsilon=cfg.epsilon))

    def test_multistart_skips_an_aborted_start(self, case, monkeypatch):
        cfg = fc.GpgmConfig(max_iters=5, seed=3)
        expected = min((fc.gpgm(*case, m=2, config=replace(cfg, seed=cfg.seed + i))
                        for i in (1, 2)), key=lambda r: r.energy)
        _inject_infeasible(monkeypatch, lambda k: k == 0)
        with pytest.warns(UserWarning, match="some starts aborted: .*call 0"):
            result = fc.gpgm_multistart(*case, m=2, config=cfg, n_starts=3)
        assert result.energy == expected.energy
        npt.assert_array_equal(result.B_star, expected.B_star)

    def test_multistart_raises_the_first_error_when_every_start_aborts(self, case, monkeypatch):
        calls = _inject_infeasible(monkeypatch, lambda k: True)
        with pytest.raises(PlacementAbortError, match="call 0"):
            fc.gpgm_multistart(*case, m=2, config=fc.GpgmConfig(seed=3), n_starts=3)
        assert calls == [0, 1, 2]


@pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", ["sigma", "delta_star", "epsilon"])
def test_gpgm_config_needs_positive_finite_settings(name, value):
    # nan > 0 is False, so NaN always failed; inf used to pass and surface
    # later as a Gramian overflow after a RuntimeWarning.
    with pytest.raises(InvalidInputError, match=name):
        fc.GpgmConfig(**{name: value})


class TestRamBaseline:
    def test_negative_seed_is_an_input_error(self):
        with pytest.raises(InvalidInputError, match="seed"):
            fc.ram_baseline(34, 2, seed=-1)

    def test_trace_normalization(self):
        schematic = fc.ram_baseline(34, 2, seed=0)
        tr = float(np.sum(schematic ** 2))
        assert abs(tr - (2.0 + 1e-6)) <= 1e-10 * 2.0

    def test_deterministic_per_seed(self):
        a = fc.ram_baseline(10, 3, seed=42)
        b = fc.ram_baseline(10, 3, seed=42)
        npt.assert_array_equal(a, b)

    def test_distinct_seeds_full_rank(self):
        mats = [fc.ram_baseline(34, 2, seed=s) for s in range(20)]
        for i in range(20):
            assert np.linalg.matrix_rank(mats[i]) == 2
            for j in range(i + 1, 20):
                assert not np.array_equal(mats[i], mats[j])


class TestPgmeDriverSelect:
    def test_uniform_tie_breaks_low_index(self):
        schematic = np.full((3, 1), 1.0 / np.sqrt(3.0))
        nodes, binary = fc.pgme_driver_select(schematic, 1)
        assert nodes == [0]
        npt.assert_array_equal(binary[:, 0], [1.0, 0.0, 0.0])

    def test_argmax_row(self):
        schematic = np.array([[0.1], [0.9], [0.2]])
        nodes, binary = fc.pgme_driver_select(schematic, 1)
        assert nodes == [1]
        npt.assert_array_equal(binary[:, 0], [0.0, 1.0, 0.0])

    def test_no_repeat_rule(self):
        b = np.array([[0.9, 0.8], [0.1, 0.7], [0.0, 0.1]])
        nodes, binary = fc.pgme_driver_select(b, 2)
        assert nodes == [0, 1]
        npt.assert_array_equal(binary, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])

    def test_k_out_of_range(self):
        schematic = np.ones((3, 2))
        with pytest.raises(InvalidInputError):
            fc.pgme_driver_select(schematic, 3)
        with pytest.raises(InvalidInputError):
            fc.pgme_driver_select(schematic, 0)
