import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fluxcontrol as fc
from fluxcontrol.cli import main


@pytest.fixture
def karate_path():
    from importlib import resources

    with resources.as_file(
        resources.files("fluxcontrol").joinpath("data/karate_club.edges")
    ) as path:
        yield str(path)


@pytest.fixture
def scalar_system_path(tmp_path):
    path = tmp_path / "scalar.csv"
    path.write_text("0.0\n")
    return str(path)


@pytest.fixture
def path_graph(tmp_path):
    path = tmp_path / "path.edges"
    path.write_text("1 2\n2 3\n3 4\n")
    return str(path)


def test_select_state_scalar_toy(tmp_path, scalar_system_path):
    out = tmp_path / "out"
    code = main([
        "select-state",
        "--input", scalar_system_path,
        "--mode", "raw-matrix",
        "--t-star", "1.0",
        "--goal", "mean",
        "--eta", "1.0",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads((out / "selection.json").read_text())
    assert payload["x_star"] == pytest.approx([1.0])
    assert payload["energy"] == pytest.approx(1.0)
    assert payload["binding"] is True
    assert (out / "manifest.json").exists()


def test_flux_sweep_karate(tmp_path, karate_path):
    out = tmp_path / "flux"
    code = main([
        "flux",
        "--input", karate_path,
        "--mode", "adjacency",
        "--t-star", "0.015,0.15,1.5",
        "--out", str(out),
    ])
    assert code == 0
    lines = (out / "flux.csv").read_text().strip().splitlines()
    assert len(lines) == 4  # header + 3 horizons
    assert len(lines[1].split(",")) == 35  # t_star + 34 nodes
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["versions"]["fluxcontrol"] == fc.__version__
    assert "config_sha256" in manifest


def test_flux_histogram_written(tmp_path, karate_path):
    out = tmp_path / "fluxh"
    code = main([
        "flux",
        "--input", karate_path,
        "--mode", "adjacency",
        "--t-star", "1.0",
        "--hist",
        "--out", str(out),
    ])
    assert code == 0
    assert (out / "flux_hist_0.csv").exists()


def test_flux_histogram_on_a_vertex_transitive_graph(tmp_path):
    # Every node of the 4-cycle has the same centrality, up to roundoff.
    ring = tmp_path / "ring.edges"
    ring.write_text("1 2\n2 3\n3 4\n4 1\n")
    out = tmp_path / "ringh"
    assert main(["flux", "--input", str(ring), "--t-star", "0.5,2", "--hist",
                 "--out", str(out)]) == 0
    for idx in (0, 1):
        rows = np.loadtxt(out / f"flux_hist_{idx}.csv", delimiter=",", ndmin=2)
        assert rows[:, 2].tolist() == [4.0]


def test_flux_histogram_on_a_star(tmp_path):
    # The 30 leaves are alike up to roundoff, so the interquartile range is at
    # roundoff while the hub stands apart; Freedman-Diaconis would ask for
    # about 1e16 bins there.
    star = tmp_path / "star.edges"
    star.write_text("".join(f"1 {k}\n" for k in range(2, 32)))
    out = tmp_path / "starh"
    assert main(["flux", "--input", str(star), "--mode", "adjacency", "--t-star", "0.5,1.5,5",
                 "--hist", "--out", str(out)]) == 0
    for idx in range(3):
        rows = np.loadtxt(out / f"flux_hist_{idx}.csv", delimiter=",", ndmin=2)
        assert rows[:, 2].tolist() == [30.0, 0.0, 0.0, 0.0, 0.0, 1.0]  # Sturges: 6 bins


def test_gramian_outputs(tmp_path, path_graph):
    out = tmp_path / "gram"
    code = main([
        "gramian",
        "--input", path_graph,
        "--mode", "laplacian",
        "--t-star", "2.0",
        "--out", str(out),
    ])
    assert code == 0
    w = fc.load_dense_matrix(out / "W.csv")
    assert w.shape == (4, 4)
    info = json.loads((out / "gramian.json").read_text())
    assert info["n"] == 4
    assert info["kappa"] > 0


def test_place_flux_and_ram(tmp_path, path_graph):
    out_flux = tmp_path / "pf"
    assert main([
        "place", "--input", path_graph, "--mode", "adjacency",
        "--t-star", "1.0", "--method", "flux", "--m", "2",
        "--goal", "mean", "--eta", "0.5",
        "--out", str(out_flux),
    ]) == 0
    payload = json.loads((out_flux / "placement.json").read_text())
    b = np.asarray(payload["B"])
    assert b.shape == (4, 2)
    assert payload["converged"] is True

    out_ram = tmp_path / "pr"
    assert main([
        "place", "--input", path_graph, "--mode", "laplacian",
        "--t-star", "1.0", "--method", "ram", "--m", "2",
        "--goal", "variance", "--eta", "0.5", "--seed", "7",
        "--out", str(out_ram),
    ]) == 0
    payload = json.loads((out_ram / "placement.json").read_text())
    assert payload["energy"] > 0


def test_simulate_mean_goal(tmp_path, path_graph):
    out = tmp_path / "sim"
    code = main([
        "simulate",
        "--input", path_graph,
        "--mode", "laplacian",
        "--t-star", "1.5",
        "--goal", "mean",
        "--eta", "1.0",
        "--steps", "400",
        "--out", str(out),
    ])
    assert code == 0
    summary = json.loads((out / "simulate.json").read_text())
    assert summary["endpoint_error"] <= 1e-6 * (1 + np.linalg.norm(summary["endpoint"]))
    assert summary["energy_simulated"] == pytest.approx(
        summary["energy_closed_form"], rel=1e-4
    )
    lines = (out / "trajectory.csv").read_text().strip().splitlines()
    assert len(lines) == 402


def test_simulate_reaches_selection_on_singular_gramian(tmp_path, karate_path):
    # One random input on karate: W is singular to machine precision, yet the
    # controller built from the selection's adjoint reaches x*.
    out = tmp_path / "sim"
    code = main([
        "simulate", "--input", karate_path, "--mode", "laplacian",
        "--method", "ram", "--m", "1", "--goal", "variance", "--eta", "4",
        "--x0", "random", "--t-star", "3", "--steps", "400", "--out", str(out),
    ])
    assert code == 0
    summary = json.loads((out / "simulate.json").read_text())
    x_star = np.asarray(summary["selection"]["x_star"])
    assert summary["endpoint_error"] <= 1e-6 * (1 + np.linalg.norm(x_star))


@pytest.mark.parametrize("edges", ["1 2\n1 3\n1 4\n1 5\n1 6\n1 7\n",
                                   "1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n"], ids=["star", "k4"])
def test_simulate_certifies_its_endpoint(tmp_path, edges):
    # At 50 steps h = 0.8, and h lambda_max(L) is 5.6 on the 7-node star and
    # 3.2 on K4, outside RK4's real stability interval [-2.785, 0]: the
    # endpoint misses x* (by 8e49 and 1.6e-4 relative), and the run must fail
    # typed instead of reporting success. At 2000 steps it is within 1e-12.
    graph = tmp_path / "g.edges"
    graph.write_text(edges)
    argv = ["simulate", "--input", str(graph), "--mode", "laplacian", "--t-star", "40",
            "--goal", "mean", "--eta", "0.5", "--m", "1", "--method", "flux"]
    assert main([*argv, "--steps", "50", "--out", str(tmp_path / "coarse")]) == 1
    error = json.loads((tmp_path / "coarse" / "error.json").read_text())
    assert error["error"] == "SimulationAccuracyError" and "--steps" in error["message"]
    assert issubclass(getattr(fc.errors, error["error"]), fc.errors.FluxControlError)
    assert not (tmp_path / "coarse" / "simulate.json").exists()
    summary = json.loads((_run(tmp_path, "fine", *argv, "--steps", "2000")
                          / "simulate.json").read_text())
    x_star = np.asarray(summary["selection"]["x_star"])
    error = np.linalg.norm(np.asarray(summary["endpoint"]) - x_star)
    assert summary["endpoint_error"] == error <= 1e-10
    assert 0.0 < summary["endpoint_error_rel"] <= error


def test_autonomous_simulate_certifies_against_the_transition(tmp_path, path_graph):
    from scipy.linalg import expm

    x0 = np.array([1.0, -2.0, 0.5, 3.0])
    out = _run(tmp_path, "auto", "simulate", "--input", path_graph, "--t-star", "2",
               "--x0", "1,-2,0.5,3", "--steps", "400")
    summary = json.loads((out / "simulate.json").read_text())
    adj = np.diag(np.ones(3), 1)
    lap = np.diag((adj + adj.T).sum(1)) - adj - adj.T
    endpoint = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)[-1, 1:5]
    error = np.linalg.norm(endpoint - expm(-2.0 * lap) @ x0)
    assert summary["autonomous"] is True
    assert summary["endpoint_error"] == pytest.approx(error, rel=1e-6, abs=1e-15)
    assert summary["endpoint_error_rel"] == summary["endpoint_error"] <= 1e-9
    assert main(["simulate", "--input", path_graph, "--t-star", "40", "--x0", "1,-2,0.5,3",
                 "--steps", "20", "--out", str(tmp_path / "coarse")]) == 1
    error = json.loads((tmp_path / "coarse" / "error.json").read_text())
    assert error["error"] == "SimulationAccuracyError" and "--steps" in error["message"]


def test_simulate_schematic_row_mismatch_is_typed(tmp_path, path_graph):
    b_path = tmp_path / "b.csv"
    b_path.write_text("1\n0\n0\n")
    out = tmp_path / "err"
    code = main([
        "simulate", "--input", path_graph, "--mode", "laplacian",
        "--goal", "variance", "--eta", "1.0", "--b", str(b_path),
        "--steps", "10", "--out", str(out),
    ])
    assert code == 1
    payload = json.loads((out / "error.json").read_text())
    assert payload["error"] == "InvalidInputError"


def test_compare_small_graph(tmp_path, path_graph):
    out = tmp_path / "cmp"
    code = main([
        "compare",
        "--input", path_graph,
        "--mode", "laplacian",
        "--t-star", "2.0",
        "--goal", "variance",
        "--eta", "1.0",
        "--m", "1",
        "--seeds", "3",
        "--starts", "2",
        "--max-iters", "60",
        "--sigma", "0.05",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads((out / "compare.json").read_text())
    assert len(payload["ram_energies"]) == 3
    assert payload["gpgm_energy"] <= payload["ram_median"]
    rows = (out / "compare.csv").read_text().strip().splitlines()
    assert rows[0] == "method,seed,energy"
    assert len(rows) == 5


def test_rerun_is_byte_identical(tmp_path, path_graph):
    args = [
        "flux", "--input", path_graph, "--mode", "adjacency",
        "--t-star", "0.5,1.5", "--out", None,
    ]
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        args[-1] = str(out)
        assert main(args) == 0
        outputs.append((out / "flux.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_solver_error_writes_error_json(tmp_path):
    # Opposite-sign column: the average is uncontrollable, mean goal fails.
    sys_path = tmp_path / "sys.csv"
    sys_path.write_text("0,0\n0,0\n")
    b_path = tmp_path / "b.csv"
    b_path.write_text("1\n-1\n")
    out = tmp_path / "err"
    code = main([
        "select-state",
        "--input", str(sys_path),
        "--mode", "raw-matrix",
        "--t-star", "1.0",
        "--goal", "mean",
        "--eta", "1.0",
        "--b", str(b_path),
        "--out", str(out),
    ])
    assert code == 1
    payload = json.loads((out / "error.json").read_text())
    assert payload["error"] == "GoalUncontrollableError"
    assert not (out / "manifest.json").exists()


def test_config_file_overrides_flags(tmp_path, path_graph):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t-star": [2.5], "eta": 0.25}))
    out = tmp_path / "cfgout"
    code = main([
        "select-state",
        "--input", path_graph,
        "--mode", "laplacian",
        "--t-star", "1.0",
        "--goal", "variance",
        "--eta", "9.0",
        "--config", str(cfg),
        "--out", str(out),
    ])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["t_star"] == [2.5]
    assert manifest["config"]["eta"] == 0.25


def test_repulsion_goal_via_cli(tmp_path, path_graph):
    out = tmp_path / "rep"
    code = main([
        "select-state",
        "--input", path_graph,
        "--mode", "laplacian",
        "--t-star", "1.0",
        "--goal", "repulsion",
        "--d", "0,0,0,0",
        "--eta", "0.5",
        "--out", str(out),
    ])
    assert code == 0
    payload = json.loads((out / "selection.json").read_text())
    assert payload["energy"] > 0


def test_unknown_config_key_fails(tmp_path, path_graph):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    out = tmp_path / "o"
    code = main([
        "flux", "--input", path_graph, "--t-star", "1.0",
        "--config", str(cfg), "--out", str(out),
    ])
    assert code == 1


def _run(tmp_path, name, *argv):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    return out


def test_place_flux_reports_zero_energy_when_the_goal_holds(tmp_path, path_graph):
    # The average of x0 = 1 stays at 1 under Laplacian dynamics, above -5.
    out = _run(tmp_path, "pf", "place", "--input", path_graph, "--method", "flux",
               "--goal", "mean", "--eta", "-5", "--x0", "1,1,1,1")
    payload = json.loads((out / "placement.json").read_text())
    assert payload["energy"] == 0.0
    assert payload["trace"] == [0.0]


def test_flux_schematic_energy_agrees_across_subcommands(tmp_path, path_graph):
    common = ["--input", path_graph, "--mode", "adjacency", "--goal", "variance",
              "--x0", "1,2,3,4", "--eta", "500", "--m", "2"]
    placed = _run(tmp_path, "pf", "place", *common, "--method", "flux")
    energy = json.loads((placed / "placement.json").read_text())["energy"]
    selected = _run(tmp_path, "sel", "select-state", *common, "--b", str(placed / "B.csv"))
    assert json.loads((selected / "selection.json").read_text())["energy"] == energy
    simulated = _run(tmp_path, "sim", "simulate", *common, "--method", "flux", "--steps", "50")
    assert json.loads((simulated / "simulate.json").read_text())["energy_closed_form"] == energy
    assert energy > 0


def test_compare_ram_energies_match_ram_placements(tmp_path, path_graph):
    common = ["--input", path_graph, "--goal", "variance", "--eta", "1.0",
              "--x0", "random", "--t-star", "2.0", "--m", "1"]
    compared = _run(tmp_path, "cmp", "compare", *common, "--seeds", "3",
                    "--starts", "1", "--max-iters", "5")
    ram = json.loads((compared / "compare.json").read_text())["ram_energies"]
    for seed in range(3):
        placed = _run(tmp_path, f"ram{seed}", "place", *common, "--method", "ram",
                      "--seed", str(seed))
        payload = json.loads((placed / "placement.json").read_text())
        assert payload["energy"] == ram[seed]
        assert payload["trace"] == [ram[seed]]


def _error(tmp_path, name, *argv):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 1
    return json.loads((out / "error.json").read_text())["error"]


@pytest.mark.parametrize("horizons", ["", "1,2"])
@pytest.mark.parametrize("command", ["gramian", "select-state", "place", "simulate", "compare"])
def test_single_horizon_commands_reject_other_counts(tmp_path, path_graph, command, horizons):
    argv = [command, "--input", path_graph, "--t-star", horizons]
    if command != "gramian":
        argv += ["--goal", "variance"]
    assert _error(tmp_path, "t", *argv) == "InvalidInputError"


def test_compare_rejects_empty_ensemble(tmp_path, path_graph):
    assert _error(tmp_path, "c", "compare", "--input", path_graph, "--goal", "variance",
                  "--seeds", "0") == "InvalidInputError"


@pytest.mark.parametrize("argv", [
    ["place", "--method", "gpgm", "--goal", "variance", "--seed", "-1"],
    ["compare", "--goal", "variance", "--seed", "-5"],
    ["select-state", "--goal", "mean", "--x0", "random", "--x0-seed", "-1"],
])
def test_negative_seed_is_an_input_error(tmp_path, karate_path, argv):
    assert _error(tmp_path, "neg", *argv, "--input", karate_path) == "InvalidInputError"


@pytest.mark.parametrize("overrides", [[1, 2], {"m": "2"}, {"undirected": "no"},
                                       {"goal": "median"}, {"func": 1}])
def test_malformed_config_is_an_input_error(tmp_path, path_graph, capsys, overrides):
    # The config may set --out, so its errors come before the output directory
    # is made.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    code = main(["place", "--input", path_graph, "--method", "ram", "--goal", "variance",
                 "--config", str(cfg), "--out", str(tmp_path / "cfg")])
    assert code == 1
    assert "config" in capsys.readouterr().err
    # The error lands in the command-line --out.
    payload = json.loads((tmp_path / "cfg" / "error.json").read_text())
    assert payload["error"] == "InvalidInputError"


@pytest.mark.parametrize("argv", [
    ["compare", "--starts", "5", "--seeds", "2", "--max-iters", "3"],
    ["place", "--method", "gpgm", "--starts", "1", "--max-iters", "3"],
])
def test_one_gramian_evaluator_per_run(tmp_path, karate_path, monkeypatch, argv):
    built = []
    init = fc.GramianEvaluator.__init__

    def counting(self, *args):
        built.append(None)
        init(self, *args)

    monkeypatch.setattr(fc.GramianEvaluator, "__init__", counting)
    _run(tmp_path, "run", *argv, "--input", karate_path, "--goal", "variance", "--t-star", "3")
    assert len(built) == 1


def test_overflowing_gramian_writes_error_json(tmp_path):
    # exp(2 * 400 * 3) overflows a float: a typed error, not NaN in W.csv.
    a_path = tmp_path / "a.csv"
    a_path.write_text("400,0\n0,400\n")
    out = tmp_path / "g"
    assert main(["gramian", "--input", str(a_path), "--mode", "raw-matrix",
                 "--t-star", "3", "--out", str(out)]) == 1
    assert json.loads((out / "error.json").read_text())["error"] == "InvalidInputError"
    assert not (out / "W.csv").exists()


def test_unexpected_exception_writes_error_json_and_reraises(tmp_path, path_graph,
                                                           monkeypatch):
    import fluxcontrol.cli as cli

    def broken(args, outdir):
        (outdir / "flux.csv").write_text("partial\n")
        raise ValueError("a bug")

    monkeypatch.setattr(cli, "_cmd_flux", broken)
    out = tmp_path / "f"
    with pytest.raises(ValueError, match="a bug"):
        main(["flux", "--input", path_graph, "--out", str(out)])
    assert json.loads((out / "error.json").read_text()) == {"error": "ValueError",
                                                            "message": "a bug"}
    assert not (out / "manifest.json").exists()


def test_gpgm_placement_records_each_accepted_step(tmp_path, karate_path):
    out = _run(tmp_path, "pg", "place", "--input", karate_path, "--method", "gpgm",
               "--goal", "variance", "--t-star", "3", "--m", "2", "--sigma", "0.1",
               "--starts", "1", "--max-iters", "20")
    payload = json.loads((out / "placement.json").read_text())
    assert len(payload["steps"]) == len(payload["trace"]) - 1 >= 1
    assert all(step > 0 for step in payload["steps"])


@pytest.mark.parametrize("steps", ["0", "1"])
def test_simulate_rejects_short_runs_before_any_work(tmp_path, path_graph, monkeypatch, steps):
    import fluxcontrol.cli as cli

    def unreachable(args):
        raise AssertionError("set-up ran")

    monkeypatch.setattr(cli, "_setup", unreachable)
    out = tmp_path / "s"
    assert main(["simulate", "--input", path_graph, "--goal", "variance",
                 "--steps", steps, "--out", str(out)]) == 1
    payload = json.loads((out / "error.json").read_text())
    assert payload == {"error": "InvalidInputError", "message": "steps must be at least 2"}


def test_overflowing_autonomous_endpoint_fails_typed(tmp_path):
    # exp(300 * 3) overflows a float. A run without a goal certifies its
    # endpoint against z = exp(t* A) x0, and select-state fails on its Gramian
    # first; both fail typed, and neither may print a RuntimeWarning on the way.
    a_path = tmp_path / "a.csv"
    a_path.write_text("300,1,0\n0,300,1\n0,0,300\n")
    common = ["--input", str(a_path), "--mode", "raw-matrix", "--t-star", "3", "--x0", "1,1,1"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", *common, "--steps", "10", "--out", str(tmp_path / "sim")]) == 1
        assert main(["select-state", *common, "--goal", "variance", "--eta", "1",
                     "--out", str(tmp_path / "sel")]) == 1
    assert [str(w.message) for w in caught] == []
    for run in ("sim", "sel"):
        assert json.loads((tmp_path / run / "error.json").read_text())["error"] == "InvalidInputError"


@pytest.mark.parametrize("command, expected", [("select-state", 1), ("simulate", 2)])
def test_nonsymmetric_run_takes_z_from_the_gramians_exponential(tmp_path, monkeypatch,
                                                                command, expected):
    # One n x n expm for W, whose doubling ladder also gives z; the
    # controller's adjoint step is simulate's second expm.
    from scipy.linalg import expm

    import fluxcontrol.gramian as gramian
    import fluxcontrol.linsys as linsys

    calls = []

    def counting(x):
        calls.append(x.shape)
        return expm(x)

    for module in (gramian, linsys):
        monkeypatch.setattr(module, "expm", counting)
    a_path = tmp_path / "a.csv"
    a_path.write_text("-1,2,0\n0,-2,1.5\n0.5,0,-1\n")
    out = _run(tmp_path, "run", command, "--input", str(a_path), "--mode", "raw-matrix",
               "--t-star", "2", "--x0", "1,-1,2", "--goal", "variance", "--eta", "4")
    assert len(calls) == expected
    assert calls[0] == (3, 3)
    if command == "simulate":
        summary = json.loads((out / "simulate.json").read_text())
        assert summary["endpoint_error"] <= 1e-8 * (1 + np.linalg.norm(summary["endpoint"]))


@pytest.mark.parametrize("d", ["1,2,3", "0"])
@pytest.mark.parametrize("command", [
    ["select-state"], ["place", "--method", "gpgm", "--starts", "1"],
    ["simulate", "--method", "gpgm", "--starts", "1"], ["compare", "--starts", "1"],
])
def test_repulsion_target_of_the_wrong_length_is_an_input_error(tmp_path, karate_path,
                                                                 command, d):
    # d must not broadcast against z: "1,2,3" would crash the binding test
    # untyped, and a one-entry d would make the goal look met (energy 0).
    assert _error(tmp_path, "d", *command, "--input", karate_path, "--m", "2",
                  "--goal", "repulsion", "--d", d, "--eta", "0.001", "--x0", "random",
                  "--t-star", "3") == "InvalidInputError"


def test_gpgm_repulsion_runs_on_few_input_gramians(tmp_path, karate_path):
    # Two inputs on 34 nodes give a numerically singular W (lam_min ~ -4e-16
    # against lam_max ~ 4.4); the repulsion goal must place on it all the same.
    d = np.round(np.random.default_rng(0).standard_normal(34), 3)
    out = _run(tmp_path, "rep", "place", "--input", karate_path, "--mode", "laplacian",
               "--method", "gpgm", "--goal", "repulsion", "--d=" + ",".join(map(str, d)),
               "--eta", "60", "--x0", "random", "--t-star", "3", "--m", "2")
    payload = json.loads((out / "placement.json").read_text())
    assert payload["converged"]
    assert 0.0 < payload["energy"] == min(payload["trace"])


@pytest.mark.parametrize("argv", [
    ["select-state", "--goal", "variance", "--eta", "nan"],
    ["select-state", "--goal", "variance", "--eta", "inf"],
    ["select-state", "--goal", "mean", "--eta", "inf"],
    ["select-state", "--goal", "repulsion", "--d", ",".join(["0"] * 34), "--eta", "inf"],
    ["place", "--method", "gpgm", "--goal", "variance", "--starts", "1", "--epsilon", "inf"],
    ["place", "--method", "gpgm", "--goal", "variance", "--starts", "1", "--sigma", "inf"],
    ["place", "--method", "gpgm", "--goal", "variance", "--starts", "1", "--delta-star", "nan"],
], ids=["variance-nan", "variance-inf", "mean-inf", "repulsion-inf", "epsilon-inf",
        "sigma-inf", "delta-star-nan"])
def test_non_finite_thresholds_are_input_errors(tmp_path, karate_path, argv):
    # NaN passed the sign checks (a non-binding corner, exit 0), and inf reached
    # the solvers: NaN x_star, "energy": Infinity, or a Gramian overflow after
    # a RuntimeWarning.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert _error(tmp_path, "nf", *argv, "--input", karate_path,
                      "--t-star", "3") == "InvalidInputError"
    assert [str(w.message) for w in caught] == []
    assert not (tmp_path / "nf" / "manifest.json").exists()


def test_repeated_calls_build_the_parser_once(tmp_path, path_graph):
    import fluxcontrol.cli as cli

    cli._build_parser.cache_clear()
    _run(tmp_path, "a", "flux", "--input", path_graph)
    _run(tmp_path, "b", "gramian", "--input", path_graph)
    assert cli._build_parser.cache_info().misses == 1


def test_config_override_leaves_the_next_calls_default(tmp_path, path_graph):
    import fluxcontrol.cli as cli

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t-star": [2.5]}))
    first = _run(tmp_path, "a", "gramian", "--input", path_graph, "--config", str(cfg))
    second = _run(tmp_path, "b", "gramian", "--input", path_graph)
    assert json.loads((first / "gramian.json").read_text())["t_star"] == 2.5
    assert json.loads((second / "manifest.json").read_text())["config"]["t_star"] == [1.0]
    assert json.loads((second / "gramian.json").read_text())["t_star"] == 1.0
    assert cli._build_parser()[1]["gramian"].get_default("t_star") == (1.0,)


def test_handler_patched_after_a_call_is_the_one_that_runs(tmp_path, path_graph,
                                                           monkeypatch):
    import fluxcontrol.cli as cli

    _run(tmp_path, "a", "flux", "--input", path_graph)
    ran = []
    monkeypatch.setattr(cli, "_cmd_flux", lambda args, outdir: ran.append(args.command))
    _run(tmp_path, "b", "flux", "--input", path_graph)
    assert ran == ["flux"]


def test_module_entry_point_runs_in_a_fresh_interpreter(tmp_path, karate_path):
    src = str(Path(fc.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}

    def run(*argv):
        done = subprocess.run([sys.executable, "-m", "fluxcontrol.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    assert run("--version").strip() == f"fluxcontrol {fc.__version__}"
    listing = run("--help")
    for command in ("gramian", "flux", "select-state", "place", "simulate", "compare"):
        assert command in listing
    run("gramian", "--input", karate_path, "--t-star", "3", "--out", str(tmp_path / "g"))
    assert json.loads((tmp_path / "g" / "gramian.json").read_text())["n"] == 34
