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
    exact_grid_reference,
    random_stable_system,
    scalar_min_energy,
    write_trajectory_csv_reference,
)


def _evaluator(a, t_star):
    return fc.GramianEvaluator(fc.LinearSystem(a), t_star)


class TestMinEnergyInput:
    def test_zero_displacement_means_zero_input(self, rng):
        a = random_stable_system(rng, 3)
        system = fc.LinearSystem(a)
        schematic = np.eye(3)
        x0 = rng.standard_normal(3)
        evaluator = fc.GramianEvaluator(system, 1.0)
        z = expm(system.A) @ x0
        # Already met at z: the selection is the corner x* = z with p = 0.
        goal = fc.LinearGoal(np.ones(3), float(np.ones(3) @ z) - 1.0)
        sel = fc.select_state(evaluator.bundle(schematic), z, goal)
        assert not sel.binding
        traj = fc.simulate(evaluator, schematic, x0, 10, sel.p)
        npt.assert_allclose(traj.inputs, np.zeros((11, 3)), atol=1e-10)
        npt.assert_allclose(traj.endpoint, z, rtol=1e-12, atol=1e-14)

    def test_scalar_constant_input(self):
        schematic = [[1.0]]
        evaluator = _evaluator([[0.0]], 1.0)
        w = evaluator.matrix(schematic)
        traj = fc.simulate(evaluator, schematic, [0.0], 10, [1.0 / w[0, 0]])
        npt.assert_allclose(traj.inputs[:, 0], np.ones(11), rtol=1e-12)

    def test_scalar_longer_horizon_halves_input(self):
        schematic = [[1.0]]
        evaluator = _evaluator([[0.0]], 2.0)
        w = evaluator.matrix(schematic)
        traj = fc.simulate(evaluator, schematic, [0.0], 400, [1.0 / w[0, 0]])
        npt.assert_allclose(traj.inputs[:, 0], np.full(401, 0.5), rtol=1e-12)
        npt.assert_allclose(traj.states[:, 0], 0.5 * traj.times, rtol=1e-12, atol=1e-15)
        assert traj.total_energy == pytest.approx(scalar_min_energy(1.0, 2.0), rel=1e-12)

    @pytest.mark.parametrize("t_star", [1e-9, 1e5 / 3])
    def test_extreme_horizons_reach_the_target(self, t_star):
        # The single integrator from 0 to 1: u = 1/t* throughout, energy 1/t*.
        schematic = [[1.0]]
        evaluator = _evaluator([[0.0]], t_star)
        w = evaluator.matrix(schematic)
        traj = fc.simulate(evaluator, schematic, [0.0], 1000, [1.0 / w[0, 0]])
        assert traj.times[-1] == t_star
        npt.assert_allclose(traj.inputs[:, 0], np.full(1001, 1.0 / t_star), rtol=1e-12)
        assert traj.endpoint[0] == pytest.approx(1.0, rel=1e-12)
        assert traj.total_energy == pytest.approx(scalar_min_energy(1.0, t_star), rel=1e-12)

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
        sel = fc.select_state(evaluator.bundle(schematic), z, goal)
        assert sel.binding
        traj = fc.simulate(evaluator, schematic, x0, 400, sel.p)
        assert np.linalg.norm(traj.endpoint - sel.x_star) <= 1e-12 * (1.0 + np.linalg.norm(sel.x_star))
        assert abs(traj.total_energy - sel.energy) <= 1e-12 * sel.energy

    @pytest.mark.parametrize("steps", [0, -3])
    def test_steps_below_one_rejected(self, steps):
        with pytest.raises(InvalidInputError):
            fc.simulate(_evaluator([[0.0]], 1.0), [[1.0]], [0.0], steps, [1.0])

    @pytest.mark.parametrize("steps", [50, 500])
    def test_adjoint_takes_one_expm_whatever_the_steps(self, karate, rng, monkeypatch, steps):
        # The one expm is the last rung of the series Gramian over one step.
        calls = []
        expm = gramian.expm

        def counting(a):
            calls.append(None)
            return expm(a)

        monkeypatch.setattr(gramian, "expm", counting)
        nonsymmetric = fc.LinearSystem(random_stable_system(rng, 5))
        for system, expected in ((nonsymmetric, 1), (karate["system"], 0)):
            calls.clear()
            schematic = rng.standard_normal((system.n, 2))
            evaluator = fc.GramianEvaluator(system, 1.5)
            fc.simulate(evaluator, schematic, np.zeros(system.n), steps,
                        rng.standard_normal(system.n))
            assert len(calls) == expected


def _parent_recurrence(evaluator, schematic, x0, steps):
    """States of the run with the adjoint p = 0 through ``step``'s full one-step
    map: lam = 0 walked back through exp(hA), and its input term through W_h."""
    e, w = evaluator.step(schematic, steps)
    lam = np.zeros((steps + 1, x0.size))
    for k in range(steps, 0, -1):
        lam[k - 1] = lam[k] @ e
    g = lam[1:] @ w
    states = [x0]
    for k in range(steps):
        states.append(e @ states[-1] + g[k])
    return np.array(states)


class TestSimulate:
    @pytest.mark.parametrize("case", ["symmetric", "thin", "thick", "doubled-thin",
                                      "doubled-thick"])
    def test_autonomous_run_reads_no_step_gramian(self, karate, rng, monkeypatch, case):
        # With p = None the run takes exp(hA) alone, from the eigenpairs or one
        # expm(hA). The full one-step map, on an evaluator of its own, takes it
        # from the top of the ladder of B's Gramian at h: the same bits where
        # that ladder is one expm(hA), and within roundoff where it is doubled.
        n, m, scale, doubled = {
            "symmetric": (34, 2, 1.0, False), "thin": (40, 1, 1.0, False),
            "thick": (5, 2, 1.0, True), "doubled-thin": (40, 1, 60.0, True),
            "doubled-thick": (6, 3, 60.0, True)}[case]
        system = (karate["system"] if case == "symmetric"
                  else fc.LinearSystem(random_stable_system(rng, n, scale=scale)))
        schematic = rng.standard_normal((n, m))
        x0, steps = rng.standard_normal(n), 20
        if case != "symmetric":
            # A doubled ladder's top is no longer expm(hA)'s bits.
            top = gramian._doubling_gramian(system.A, schematic, 1.5 / steps, top=True)[1]
            assert np.array_equal(top, expm(1.5 / steps * system.A)) != doubled
        expected = _parent_recurrence(fc.GramianEvaluator(system, 1.5), schematic, x0, steps)

        def unread(name):
            def formed(*args):
                raise AssertionError(f"the autonomous run called {name}")
            return formed

        for name in ("_thin_series", "_thick_series"):
            monkeypatch.setattr(gramian, name, unread(name))
        monkeypatch.setattr(fc.GramianEvaluator, "_eigen_gramian", unread("_eigen_gramian"))
        traj = fc.simulate(fc.GramianEvaluator(system, 1.5), schematic, x0, steps)
        if doubled:
            # Relative to the largest state, as the CLI's endpoint check scales its error.
            assert np.abs(traj.states - expected).max() <= 1e-14 * np.abs(expected).max()
        else:
            npt.assert_array_equal(traj.states, expected)
        npt.assert_array_equal(traj.inputs, np.zeros((steps + 1, m)))
        npt.assert_array_equal(traj.cumulative_energy, np.zeros(steps + 1))

    def test_zero_input_zero_dynamics_constant(self):
        schematic = np.eye(3)
        x0 = np.array([1.0, -2.0, 0.5])
        traj = fc.simulate(_evaluator(np.zeros((3, 3)), 1.0), schematic, x0, 10)
        npt.assert_allclose(traj.states, np.tile(x0, (11, 1)), atol=1e-15)
        npt.assert_array_equal(traj.inputs, np.zeros((11, 3)))
        npt.assert_array_equal(traj.cumulative_energy, np.zeros(11))

    def test_consensus_contracts_toward_average(self, karate, rng):
        system = karate["system"]
        x0 = rng.standard_normal(34)
        schematic = np.eye(34)[:, [0]]
        traj = fc.simulate(fc.GramianEvaluator(system, 3.0), schematic, x0, 300)
        deviations = np.abs(traj.states - traj.states.mean(axis=1, keepdims=True)).max(axis=1)
        sampled = deviations[::30]
        assert np.all(np.diff(sampled) <= 1e-12)
        assert deviations[-1] < 0.25 * deviations[0]
        npt.assert_allclose(
            traj.states.mean(axis=1), np.full(301, x0.mean()), atol=1e-8
        )

    def test_cumulative_energy_monotone_and_zero_start(self, rng):
        a = random_stable_system(rng, 3)
        traj = fc.simulate(_evaluator(a, 2.0), np.eye(3), np.zeros(3), 100,
                           rng.standard_normal(3))
        assert traj.cumulative_energy[0] == 0.0
        assert np.all(np.diff(traj.cumulative_energy) >= 0.0)

    def test_reaches_selected_state_on_random_systems(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 6))
            a = random_stable_system(rng, n)
            system = fc.LinearSystem(a)
            schematic = rng.standard_normal((n, n))
            t_star = float(rng.uniform(0.6, 1.5))
            evaluator = fc.GramianEvaluator(system, t_star)
            x0 = rng.standard_normal(n)
            z = expm(t_star * system.A) @ x0
            goal = fc.LinearGoal(np.ones(n), float(np.ones(n) @ z) + 1.0)
            sel = fc.select_state(evaluator.bundle(schematic), z, goal)
            traj = fc.simulate(evaluator, schematic, x0, 2000, sel.p)
            err = np.linalg.norm(traj.endpoint - sel.x_star)
            assert err <= 1e-12 * (1.0 + np.linalg.norm(sel.x_star))
            assert traj.total_energy == pytest.approx(sel.energy, rel=1e-12)
            assert float(np.ones(n) @ traj.endpoint) == pytest.approx(goal.c, abs=1e-12 * (1 + abs(goal.c)))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), steps=st.integers(2, 60),
           symmetric=st.booleans(), data=st.data())
    @settings(derandomize=True, deadline=None, max_examples=150)
    def test_recurrence_matches_exact_grid_oracle(self, seed, n, steps, symmetric, data):
        # The recurrence sums its steps; the oracle takes every grid point in
        # closed form from the block exponential, on its own.
        m = data.draw(st.integers(1, n))
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n)) * rng.uniform(0.1, 2.0)
        a = g + g.T if symmetric else g
        b = rng.standard_normal((n, m))
        x0, p = rng.standard_normal((2, n))
        t_star = float(rng.uniform(0.1, 3.0))
        traj = fc.simulate(_evaluator(a, t_star), b, x0, steps, p)
        times, states, inputs, energy = exact_grid_reference(a, b, p, x0, t_star, steps)
        npt.assert_array_equal(traj.times, times)
        for got, ref in ((traj.states, states), (traj.inputs, inputs),
                         (traj.cumulative_energy, energy)):
            assert np.linalg.norm(got - ref) <= 1e-11 * np.linalg.norm(ref)

    def test_divergence_reports_last_valid_time(self):
        # Autonomous runs of two growing nonsymmetric systems. The reference
        # time is the last grid point where exp(tA) x0 fits a float, from
        # log ||exp(tA) x0|| = c t + log ||exp(t(A - cI)) x0||; the nearest
        # grid points lie 3 or more away from the overflow threshold in logs.
        big = np.log(np.finfo(float).max)
        for a, t_star in (([[200.0, 1.0], [0.0, -1.0]], 10.0), ([[2.0, 30.0], [-1.0, 3.0]], 300.0)):
            a, x0 = np.array(a), np.ones(2)
            c = float(np.max(np.linalg.eigvals(a).real))
            times = np.linspace(0.0, t_star, 101)
            logs = [c * t + np.log(np.abs(expm(t * (a - c * np.eye(2))) @ x0).max()) for t in times]
            reference = times[np.argmax(np.array(logs) >= big) - 1]
            evaluator = _evaluator(a, t_star)
            with pytest.raises(DivergenceError) as exc:
                fc.simulate(evaluator, [[1.0], [0.0]], x0, 100)
            assert 0.0 < exc.value.last_valid_time == reference < t_star
            # The run checks its states once, after the recurrence: the time is
            # that of the state before the first non-finite one.
            e, x, first = evaluator.propagator(t_star / 100), x0, 0
            with np.errstate(over="ignore", invalid="ignore"):
                while np.all(np.isfinite(x)):
                    x, first = e @ x, first + 1
            assert exc.value.last_valid_time == times[first - 1]
            assert str(exc.value) == f"state became non-finite after t={times[first - 1]:.6g}"

    @pytest.mark.parametrize("width", [0, 2])
    def test_wrong_input_length_rejected(self, width):
        # The adjoint p sets the input, so it must match the state dimension.
        with pytest.raises(InvalidInputError):
            fc.simulate(_evaluator([[-1.0]], 1.0), [[1.0]], [1.0], 10,
                        np.ones(width))

    def test_bad_steps_rejected(self):
        with pytest.raises(InvalidInputError):
            fc.simulate(_evaluator([[0.0]], 1.0), [[1.0]], [0.0], 1)

    def test_csv_roundtrip(self, tmp_path):
        schematic = np.eye(2)
        traj = fc.simulate(_evaluator(np.zeros((2, 2)), 1.0), schematic, [1.0, 2.0], 4)
        path = tmp_path / "traj.csv"
        traj.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,x_1,x_2,u_1,u_2,E_cum"
        assert len(lines) == 6
        first = [float(v) for v in lines[1].split(",")]
        assert first == [0.0, 1.0, 2.0, 0.0, 0.0, 0.0]

    def test_csv_bytes_match_csv_writer_reference(self, tmp_path, rng):
        # The 20 drawn shapes take write_csv_rows's row template. The fixed ones
        # pass its 256-field crossover to the numpy path: 325 fields in one
        # block, then several 1024-field blocks, narrow rows, and rows of 1103
        # fields that span two blocks, with half their values in the decades
        # that path prints in fixed notation.
        specials = np.array([-0.0, 5e-324, -2.5e-310, 1e300, -1e-300, np.nan, np.inf, -np.inf])
        large = [(60, 3, 5, 8), (400, 2, 7, 20), (1, 1, 1500, 20), (1100, 1, 2, 20)]
        for k, shape in enumerate([None] * 20 + large):
            n, m, rows, decades = shape or (int(rng.integers(1, 6)), int(rng.integers(1, 4)),
                                            int(rng.integers(1, 9)), 300)
            cols = [rng.standard_normal((rows, width))
                    * 10.0 ** rng.integers(-decades, decades, (rows, width))
                    for width in (1, n, m, 1)]
            for col in cols:
                mask = rng.random(col.shape) < 0.3
                col[mask] = rng.choice(specials, size=int(mask.sum()))
            traj = fc.Trajectory(times=cols[0][:, 0], states=cols[1], inputs=cols[2],
                                 cumulative_energy=cols[3][:, 0])
            traj.write_csv(tmp_path / f"{k}.csv")
            write_trajectory_csv_reference(traj, tmp_path / f"{k}.ref.csv")
            assert (tmp_path / f"{k}.csv").read_bytes() == (tmp_path / f"{k}.ref.csv").read_bytes()
