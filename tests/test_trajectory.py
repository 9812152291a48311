import numpy as np
import numpy.testing as npt
import pytest

import fluxcontrol as fc
from fluxcontrol.errors import DivergenceError, InvalidInputError

from _oracles import random_stable_system, scalar_min_energy


def _zero_input(m):
    return lambda t: np.zeros(m)


class TestMinEnergyInput:
    def test_zero_displacement_means_zero_input(self, rng):
        a = random_stable_system(rng, 3)
        system = fc.LinearSystem(a)
        schematic = fc.InputSchematic.identity(3)
        x0 = rng.standard_normal(3)
        evaluator = fc.GramianEvaluator(system, 1.0)
        z = fc.transition_matrix(system, 1.0) @ x0
        # Already met at z: the selection is the corner x* = z with p = 0.
        goal = fc.LinearGoal(np.ones(3), float(np.ones(3) @ z) - 1.0)
        sel = fc.select_mean_state(evaluator.bundle(schematic.B), z, goal)
        assert not sel.binding
        u = fc.min_energy_controller(evaluator, schematic, sel.p)
        for t in (0.0, 0.4, 1.0):
            npt.assert_allclose(u(t), np.zeros(3), atol=1e-10)

    def test_scalar_constant_input(self):
        system = fc.LinearSystem([[0.0]])
        schematic = fc.InputSchematic([[1.0]])
        evaluator = fc.GramianEvaluator(system, 1.0)
        w = evaluator.matrix(schematic.B)
        u = fc.min_energy_controller(evaluator, schematic, [1.0 / w[0, 0]])
        for t in (0.0, 0.5, 1.0):
            assert u(t)[0] == pytest.approx(1.0, rel=1e-12)

    def test_scalar_longer_horizon_halves_input(self):
        system = fc.LinearSystem([[0.0]])
        schematic = fc.InputSchematic([[1.0]])
        evaluator = fc.GramianEvaluator(system, 2.0)
        w = evaluator.matrix(schematic.B)
        u = fc.min_energy_controller(evaluator, schematic, [1.0 / w[0, 0]])
        assert u(1.3)[0] == pytest.approx(0.5, rel=1e-12)
        traj = fc.simulate(system, schematic, u, [0.0], 2.0, 400)
        assert traj.total_energy == pytest.approx(scalar_min_energy(1.0, 2.0), rel=1e-8)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("goal", [fc.VarianceGoal(4.0), fc.mean_goal(34, 1.0)],
                             ids=["variance", "mean"])
    def test_reaches_selection_on_singular_karate_gramian(self, karate, goal, m):
        # cond(W) is 1e16 or worse here: a pseudo-inverse of W drops directions
        # the selection used, while the selection's own adjoint p does not.
        system, t_star = karate["system"], 3.0
        schematic = fc.ram_baseline(34, m, seed=0)
        x0 = np.random.default_rng(0).standard_normal(34)
        evaluator = fc.GramianEvaluator(system, t_star)
        z = fc.transition_matrix(system, t_star) @ x0
        sel = fc.select_state(evaluator.bundle(schematic.B), z, goal)
        assert sel.binding
        u = fc.min_energy_controller(evaluator, schematic, sel.p)
        traj = fc.simulate(system, schematic, u, x0, t_star, 400)
        assert np.linalg.norm(traj.endpoint - sel.x_star) <= 1e-6 * (1.0 + np.linalg.norm(sel.x_star))
        assert abs(traj.total_energy - sel.energy) <= 1e-6 * sel.energy


class TestSimulate:
    def test_zero_input_zero_dynamics_constant(self):
        system = fc.LinearSystem(np.zeros((3, 3)))
        schematic = fc.InputSchematic.identity(3)
        x0 = np.array([1.0, -2.0, 0.5])
        traj = fc.simulate(system, schematic, _zero_input(3), x0, 1.0, 10)
        npt.assert_allclose(traj.states, np.tile(x0, (11, 1)), atol=1e-15)
        npt.assert_array_equal(traj.cumulative_energy, np.zeros(11))

    def test_consensus_contracts_toward_average(self, karate, rng):
        system = karate["system"]
        x0 = rng.standard_normal(34)
        schematic = fc.InputSchematic.single_node(34, 0)
        traj = fc.simulate(system, schematic, _zero_input(1), x0, 3.0, 300)
        deviations = np.abs(traj.states - traj.states.mean(axis=1, keepdims=True)).max(axis=1)
        sampled = deviations[::30]
        assert np.all(np.diff(sampled) <= 1e-12)
        assert deviations[-1] < 0.25 * deviations[0]
        npt.assert_allclose(
            traj.states.mean(axis=1), np.full(301, x0.mean()), atol=1e-8
        )

    def test_cumulative_energy_monotone_and_zero_start(self, rng):
        a = random_stable_system(rng, 3)
        system = fc.LinearSystem(a)
        schematic = fc.InputSchematic.identity(3)
        traj = fc.simulate(
            system, schematic, lambda t: np.array([np.sin(t), np.cos(t), 0.1]),
            np.zeros(3), 2.0, 100,
        )
        assert traj.cumulative_energy[0] == 0.0
        assert np.all(np.diff(traj.cumulative_energy) >= 0.0)

    def test_reaches_selected_state_on_random_systems(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 6))
            a = random_stable_system(rng, n)
            system = fc.LinearSystem(a)
            schematic = fc.InputSchematic(rng.standard_normal((n, n)))
            t_star = float(rng.uniform(0.6, 1.5))
            w = fc.reachability_gramian(system, schematic, t_star)
            x0 = rng.standard_normal(n)
            z = fc.transition_matrix(system, t_star) @ x0
            goal = fc.LinearGoal(np.ones(n), float(np.ones(n) @ z) + 1.0)
            sel = fc.select_mean_state(w, z, goal)
            controller = fc.min_energy_controller(
                fc.GramianEvaluator(system, t_star), schematic, sel.p
            )
            traj = fc.simulate(system, schematic, controller, x0, t_star, 2000)
            err = np.linalg.norm(traj.endpoint - sel.x_star)
            assert err <= 1e-6 * (1.0 + np.linalg.norm(sel.x_star))
            assert traj.total_energy == pytest.approx(sel.energy, rel=1e-4)
            assert float(np.ones(n) @ traj.endpoint) == pytest.approx(goal.c, abs=1e-4 * (1 + abs(goal.c)))

    def test_rk4_order_on_endpoint(self, rng):
        a = random_stable_system(rng, 3, scale=2.0)
        system = fc.LinearSystem(a)
        schematic = fc.InputSchematic.identity(3)
        x0 = rng.standard_normal(3)
        u = lambda t: np.array([np.sin(3 * t), np.cos(2 * t), t])
        exact = fc.simulate(system, schematic, u, x0, 1.0, 4096).endpoint
        err = []
        for steps in (32, 64):
            end = fc.simulate(system, schematic, u, x0, 1.0, steps).endpoint
            err.append(np.linalg.norm(end - exact))
        assert err[0] / err[1] > 8.0

    def test_divergence_reports_last_valid_time(self):
        system = fc.LinearSystem([[200.0]])
        schematic = fc.InputSchematic([[1.0]])
        with pytest.raises(DivergenceError) as exc:
            fc.simulate(system, schematic, _zero_input(1), [1.0], 10.0, 100)
        assert 0.0 <= exc.value.last_valid_time < 10.0

    def test_bad_steps_rejected(self):
        system = fc.LinearSystem([[0.0]])
        with pytest.raises(InvalidInputError):
            fc.simulate(system, fc.InputSchematic([[1.0]]), _zero_input(1), [0.0], 1.0, 1)

    def test_csv_roundtrip(self, tmp_path):
        system = fc.LinearSystem(np.zeros((2, 2)))
        schematic = fc.InputSchematic.identity(2)
        traj = fc.simulate(system, schematic, _zero_input(2), [1.0, 2.0], 1.0, 4)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x_1,x_2,u_1,u_2,E_cum"
        assert len(lines) == 6
        first = [float(v) for v in lines[1].split(",")]
        assert first == [0.0, 1.0, 2.0, 0.0, 0.0, 0.0]
