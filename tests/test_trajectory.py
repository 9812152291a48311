import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import fluxcontrol as fc
from fluxcontrol import gramian
from fluxcontrol.errors import DivergenceError, InvalidInputError

from _oracles import (
    random_stable_system,
    rk4_stagewise_reference,
    scalar_min_energy,
    write_trajectory_csv_reference,
)


def _zero_input(m):
    return lambda t: np.zeros(m)


class TestMinEnergyInput:
    def test_zero_displacement_means_zero_input(self, rng):
        a = random_stable_system(rng, 3)
        system = fc.LinearSystem(a)
        schematic = fc.InputSchematic.identity(3)
        x0 = rng.standard_normal(3)
        evaluator = fc.GramianEvaluator(system, 1.0)
        z = expm(system.A) @ x0
        # Already met at z: the selection is the corner x* = z with p = 0.
        goal = fc.LinearGoal(np.ones(3), float(np.ones(3) @ z) - 1.0)
        sel = fc.select_state(evaluator.bundle(schematic.B), z, goal)
        assert not sel.binding
        u = fc.min_energy_controller(evaluator, schematic, sel.p, 10)
        for t in (0.0, 0.4, 1.0):
            npt.assert_allclose(u(t), np.zeros(3), atol=1e-10)

    def test_scalar_constant_input(self):
        system = fc.LinearSystem([[0.0]])
        schematic = fc.InputSchematic([[1.0]])
        evaluator = fc.GramianEvaluator(system, 1.0)
        w = evaluator.matrix(schematic.B)
        u = fc.min_energy_controller(evaluator, schematic, [1.0 / w[0, 0]], 10)
        for t in (0.0, 0.5, 1.0):
            assert u(t)[0] == pytest.approx(1.0, rel=1e-12)

    def test_scalar_longer_horizon_halves_input(self):
        system = fc.LinearSystem([[0.0]])
        schematic = fc.InputSchematic([[1.0]])
        evaluator = fc.GramianEvaluator(system, 2.0)
        w = evaluator.matrix(schematic.B)
        u = fc.min_energy_controller(evaluator, schematic, [1.0 / w[0, 0]], 400)
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
        z = expm(t_star * system.A) @ x0
        sel = fc.select_state(evaluator.bundle(schematic.B), z, goal)
        assert sel.binding
        u = fc.min_energy_controller(evaluator, schematic, sel.p, 400)
        traj = fc.simulate(system, schematic, u, x0, t_star, 400)
        assert np.linalg.norm(traj.endpoint - sel.x_star) <= 1e-6 * (1.0 + np.linalg.norm(sel.x_star))
        assert abs(traj.total_energy - sel.energy) <= 1e-6 * sel.energy

    def _scalar_controller(self, steps):
        evaluator = fc.GramianEvaluator(fc.LinearSystem([[0.0]]), 1.0)
        return fc.min_energy_controller(evaluator, fc.InputSchematic([[1.0]]), [1.0], steps)

    @pytest.mark.parametrize("steps", [0, -3])
    def test_steps_below_one_rejected(self, steps):
        with pytest.raises(InvalidInputError):
            self._scalar_controller(steps)

    @pytest.mark.parametrize("t", [-0.05, 1.05, float("nan"), float("inf")])
    def test_time_outside_horizon_rejected(self, t):
        u = self._scalar_controller(10)
        with pytest.raises(InvalidInputError):
            u(t)

    def test_time_off_grid_rejected(self):
        u = self._scalar_controller(10)
        assert u(0.35)[0] == pytest.approx(1.0)
        with pytest.raises(InvalidInputError):
            u(0.36)

    @pytest.mark.parametrize("t_star", [1e-9, 1e5 / 3])
    def test_grid_tolerance_scales_with_the_half_step(self, t_star):
        # The tolerance is a fraction of the half step: simulate's own times
        # pass at any horizon, a tenth of a half step off the grid does not.
        system, schematic = fc.LinearSystem([[0.0]]), fc.InputSchematic([[1.0]])
        evaluator = fc.GramianEvaluator(system, t_star)
        u = fc.min_energy_controller(evaluator, schematic, [1.0], 1000)
        fc.simulate(system, schematic, u, [0.0], t_star, 1000)
        with pytest.raises(InvalidInputError):
            u(0.3 * t_star + 0.05 * t_star / 1000)

    @pytest.mark.parametrize("steps", [50, 500])
    def test_adjoint_takes_one_expm_whatever_the_steps(self, karate, rng, monkeypatch, steps):
        calls = []
        expm = gramian.expm

        def counting(a):
            calls.append(None)
            return expm(a)

        monkeypatch.setattr(gramian, "expm", counting)
        nonsymmetric = fc.LinearSystem(random_stable_system(rng, 5))
        for system, expected in ((nonsymmetric, 1), (karate["system"], 0)):
            calls.clear()
            schematic = fc.InputSchematic(rng.standard_normal((system.n, 2)))
            evaluator = fc.GramianEvaluator(system, 1.5)
            u = fc.min_energy_controller(evaluator, schematic, rng.standard_normal(system.n), steps)
            fc.simulate(system, schematic, u, np.zeros(system.n), 1.5, steps)
            assert len(calls) == expected


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
        schematic = fc.InputSchematic(np.eye(34)[:, [0]])
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
            w = fc.GramianEvaluator(system, t_star).bundle(schematic.B)
            x0 = rng.standard_normal(n)
            z = expm(t_star * system.A) @ x0
            goal = fc.LinearGoal(np.ones(n), float(np.ones(n) @ z) + 1.0)
            sel = fc.select_state(w, z, goal)
            controller = fc.min_energy_controller(
                fc.GramianEvaluator(system, t_star), schematic, sel.p, 2000
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

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), steps=st.integers(2, 60),
           symmetric=st.booleans(), data=st.data())
    @settings(derandomize=True, deadline=None, max_examples=150)
    def test_recurrence_matches_stagewise_rk4(self, seed, n, steps, symmetric, data):
        # One step x' = R(hA) x + g_k is the four RK4 stages folded together;
        # only the order of the floating-point operations differs.
        m = data.draw(st.integers(1, n))
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n)) * rng.uniform(0.1, 2.0)
        a = g + g.T if symmetric else g
        b = rng.standard_normal((n, m))
        x0 = rng.standard_normal(n)
        t_star = float(rng.uniform(0.1, 3.0))
        amp, freq, phase = rng.standard_normal((3, m))
        u = lambda t: amp * np.sin(freq * t + phase) + 0.3 * t
        traj = fc.simulate(fc.LinearSystem(a), fc.InputSchematic(b), u, x0, t_star, steps)
        times, states, inputs, energy = rk4_stagewise_reference(a, b, u, x0, t_star, steps)
        npt.assert_array_equal(traj.times, times)
        for got, ref in ((traj.states, states), (traj.inputs, inputs),
                         (traj.cumulative_energy, energy)):
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_divergence_reports_last_valid_time(self):
        # A growing scalar and a growing 2x2 nonsymmetric system.
        for a, t_star in (([[200.0]], 10.0), ([[2.0, 30.0], [-1.0, 3.0]], 300.0)):
            system = fc.LinearSystem(a)
            schematic = fc.InputSchematic(np.eye(system.n)[:, :1])
            u = lambda t: np.array([np.sin(t)])
            x0 = np.ones(system.n)
            with pytest.raises(DivergenceError) as ref:
                rk4_stagewise_reference(system.A, schematic.B, u, x0, t_star, 100)
            with pytest.raises(DivergenceError) as exc:
                fc.simulate(system, schematic, u, x0, t_star, 100)
            assert 0.0 < exc.value.last_valid_time < t_star
            assert exc.value.last_valid_time == ref.value.last_valid_time

    def test_input_fn_sampled_once_on_the_half_step_grid(self):
        # 2 steps + 1 calls in time order: 0, then t_k + h/2 and t_k + h.
        system = fc.LinearSystem([[-1.0, 2.0], [0.0, -0.5]])
        schematic = fc.InputSchematic([[1.0], [1.0]])
        steps, t_star = 7, 1.3
        seen = []

        def u(t):
            seen.append(t)
            return np.array([np.cos(t)])

        traj = fc.simulate(system, schematic, u, [1.0, 0.0], t_star, steps)
        h = t_star / steps
        expected = [0.0]
        for t in np.linspace(0.0, t_star, steps + 1)[:-1]:
            expected += [t + 0.5 * h, t + h]
        assert seen == expected
        assert len(seen) == 2 * steps + 1
        assert np.all(np.diff(seen) > 0.0)
        npt.assert_array_equal(traj.inputs[:, 0], np.cos(seen[::2]))

    @pytest.mark.parametrize("width", [0, 2])
    def test_wrong_input_length_rejected(self, width):
        system, schematic = fc.LinearSystem([[-1.0]]), fc.InputSchematic([[1.0]])
        with pytest.raises(InvalidInputError):
            fc.simulate(system, schematic, lambda t: np.ones(width), [1.0], 1.0, 10)

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

    def test_csv_bytes_match_csv_writer_reference(self, tmp_path, rng):
        specials = np.array([-0.0, 5e-324, -2.5e-310, 1e300, -1e-300, np.nan, np.inf, -np.inf])
        for k in range(20):
            n, m, rows = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 9))
            cols = [rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-300, 300, (rows, width))
                    for width in (1, n, m, 1)]
            for col in cols:
                mask = rng.random(col.shape) < 0.3
                col[mask] = rng.choice(specials, size=int(mask.sum()))
            traj = fc.Trajectory(times=cols[0][:, 0], states=cols[1], inputs=cols[2],
                                 cumulative_energy=cols[3][:, 0])
            traj.write_csv(tmp_path / f"{k}.csv")
            write_trajectory_csv_reference(traj, tmp_path / f"{k}.ref.csv")
            assert (tmp_path / f"{k}.csv").read_bytes() == (tmp_path / f"{k}.ref.csv").read_bytes()
