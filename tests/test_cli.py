import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    # The layout np.savetxt gave it: a "# " header and "\n" line ends.
    path = out / "flux_hist_0.csv"
    header = path.read_text().splitlines()[0]
    assert header == "# bin_lo,bin_hi,count (t_star=1)"
    ref = tmp_path / "ref.csv"
    np.savetxt(ref, np.loadtxt(path, delimiter=",", ndmin=2), delimiter=",", fmt="%.17g",
               header=header[2:])
    assert path.read_bytes() == ref.read_bytes()


def test_json_outputs_are_the_bytes_of_json_dump(tmp_path):
    from fluxcontrol.cli import _json_default, _write_json

    payload = {"W": np.array([[-0.0, 1.5], [1e-300, np.pi]]), "energy": np.float64(-0.0),
               "m": np.int64(3), "multiplier": None, "binding": True,
               "nested": {"z": [1, 2.5e300], "a": "text"}}
    _write_json(tmp_path / "ours.json", payload)
    with open(tmp_path / "ref.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")
    assert (tmp_path / "ours.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


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


def test_goal_less_flux_placement_never_forms_the_dynamics_matrix(tmp_path, karate_path,
                                                                monkeypatch):
    # It reads only the edge arrays: no Gramian evaluator, whose set-up takes eigh(A).
    def unread(self):
        raise AssertionError("LinearSystem.A was read")

    monkeypatch.setattr(fc.LinearSystem, "A", property(unread))
    out = _run(tmp_path, "pf", "place", "--input", karate_path, "--mode", "adjacency",
               "--method", "flux", "--t-star", "1", "--m", "2")
    payload = json.loads((out / "placement.json").read_text())
    assert np.asarray(payload["B"]).shape == (34, 2) and payload["energy"] > 0


@pytest.mark.parametrize("method", ["ram", "flux"])
def test_goal_less_placement_builds_no_evaluator(tmp_path, karate_path, monkeypatch, method):
    # Neither reads a Gramian, so neither builds an evaluator; the horizon is
    # still checked, with the evaluator's message. A goal takes one.
    import fluxcontrol.cli as cli

    built = []

    class Counting(fc.GramianEvaluator):
        def __init__(self, *args):
            built.append(None)
            super().__init__(*args)

    monkeypatch.setattr(cli, "GramianEvaluator", Counting)
    argv = ["place", "--input", karate_path, "--method", method, "--m", "2"]
    assert (_run(tmp_path, "ok", *argv) / "B.csv").exists() and built == []
    for t in ("-1", "0", "nan", "inf"):
        out = tmp_path / f"t{t}"
        assert main([*argv, "--t-star", t, "--out", str(out)]) == 1
        assert json.loads((out / "error.json").read_text()) == {
            "error": "InvalidInputError", "message": "t_star must be a positive real"}
    assert built == []
    _run(tmp_path, "goal", *argv, "--goal", "mean", "--eta", "2")
    assert built == [None]


def test_simulate_columns_follow_a_relabelling_of_the_nodes(tmp_path):
    # Node k of the original is node perm[k] of the relabelled system:
    # A -> P A P^T, with x0 and d permuted to match. The steered run's state
    # and input columns (B = I) move with it, through the step map's chain.
    rng = np.random.default_rng(11)
    n = 12
    adj = (rng.uniform(size=(n, n)) < 0.3) * rng.uniform(0.5, 2.0, (n, n))
    np.fill_diagonal(adj, 0.0)
    a, x0, d = adj - np.diag(adj.sum(1)), rng.standard_normal(n), rng.standard_normal(n)
    assert not np.array_equal(a, a.T)
    perm = rng.permutation(n)
    inv = np.argsort(perm)
    runs = {}
    for name, (mat, x, target) in {"orig": (a, x0, d),
                                   "relabelled": (a[np.ix_(inv, inv)], x0[inv], d[inv])}.items():
        path = tmp_path / f"{name}.csv"
        np.savetxt(path, mat, delimiter=",", fmt="%.17g")
        out = _run(tmp_path, name, "simulate", "--input", str(path), "--mode", "raw-matrix",
                   "--goal", "repulsion", "--eta", "48", "--d=" + ",".join(map(repr, target.tolist())),
                   "--x0=" + ",".join(map(repr, x.tolist())), "--steps", "50")
        runs[name] = (np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1),
                      json.loads((out / "simulate.json").read_text())["energy_closed_form"])
    (orig, energy), (relabelled, relabelled_energy) = runs["orig"], runs["relabelled"]
    columns = np.concatenate([[0], 1 + perm, 1 + n + perm, [2 * n + 1]])
    assert np.abs(relabelled[:, columns] - orig).max() <= 1e-12 * np.abs(orig).max()
    assert abs(relabelled_energy - energy) <= 1e-12 * energy


def _directed_system(seed, n=12, m=2):
    """A seeded directed diffusion: nonsymmetric A, an n x m B, x0 and d."""
    rng = np.random.default_rng(seed)
    adj = (rng.uniform(size=(n, n)) < 0.3) * rng.uniform(0.5, 2.0, (n, n))
    np.fill_diagonal(adj, 0.0)
    a = adj - np.diag(adj.sum(1))
    assert not np.array_equal(a, a.T)
    return a, rng.standard_normal((n, m)), rng.standard_normal(n), rng.standard_normal(n)


def _csv_arg(flag, x):
    return f"--{flag}=" + ",".join(map(repr, x.tolist()))


def _gramian_run(tmp_path, name, a, b, *argv):
    """``gramian`` or ``select-state`` on the raw matrix ``a`` with ``--b`` ``b``."""
    np.savetxt(tmp_path / f"{name}_a.csv", a, delimiter=",", fmt="%.17g")
    np.savetxt(tmp_path / f"{name}_b.csv", b, delimiter=",", fmt="%.17g")
    return _run(tmp_path, name, *argv, "--input", str(tmp_path / f"{name}_a.csv"),
                "--mode", "raw-matrix", "--b", str(tmp_path / f"{name}_b.csv"), "--t-star", "0.8")


def test_gramian_follows_a_relabelling_and_a_rotation_of_the_inputs(tmp_path):
    # A -> P A P^T, B -> P B gives P W P^T; B -> B Q, Q a rotation, leaves W as
    # it is, since W depends on B through B B^T.
    a, b, _, _ = _directed_system(17)
    perm = np.random.default_rng(18).permutation(len(a))
    inv, c, s = np.argsort(perm), np.cos(0.7), np.sin(0.7)
    runs = {name: np.loadtxt(_gramian_run(tmp_path, name, mat, bb, "gramian") / "W.csv",
                             delimiter=",")
            for name, (mat, bb) in {"orig": (a, b), "relabelled": (a[np.ix_(inv, inv)], b[inv]),
                                    "rotated": (a, b @ [[c, -s], [s, c]])}.items()}
    w = runs["orig"]
    assert np.abs(runs["relabelled"][np.ix_(perm, perm)] - w).max() <= 1e-12 * np.abs(w).max()
    assert np.abs(runs["rotated"] - w).max() <= 1e-12 * np.abs(w).max()


@pytest.mark.parametrize("goal", ["repulsion", "variance"])
def test_selection_follows_a_relabelling_of_the_nodes(tmp_path, goal):
    # Node k of the original is node perm[k] of the relabelled system: A -> P A P^T
    # and B -> P B, with x0 and d permuted to match, move x* with the nodes.
    a, b, x0, d = _directed_system(17)
    perm = np.random.default_rng(18).permutation(len(a))
    inv = np.argsort(perm)
    x_star = {}
    for name, idx in (("orig", np.arange(len(a))), ("relabelled", inv)):
        argv = ["select-state", "--goal", goal, "--eta", "48", _csv_arg("x0", x0[idx]),
                *([_csv_arg("d", d[idx])] if goal == "repulsion" else [])]
        out = _gramian_run(tmp_path, name, a[np.ix_(idx, idx)], b[idx], *argv)
        selection = json.loads((out / "selection.json").read_text())
        assert selection["binding"]
        x_star[name] = np.array(selection["x_star"])
    x = x_star["orig"]
    assert np.abs(x_star["relabelled"][perm] - x).max() <= 1e-12 * np.abs(x).max()


@pytest.mark.parametrize("undirected", [True, False], ids=["undirected", "directed"])
def test_flux_columns_follow_a_relabelling_of_the_ids(tmp_path, karate_path, undirected):
    # Node k of the original is node perm[k] of the relabelled list, so its
    # centrality moves to column perm[k]; rows agree to 1e-12 in 1 - |cos|.
    rng = np.random.default_rng(11)
    pairs = np.loadtxt(karate_path, dtype=int, comments="#", ndmin=2) - 1
    weights = rng.uniform(0.5, 2.0, len(pairs))
    perm = rng.permutation(34)
    rows = {}
    for name, ids in (("orig", pairs), ("relabelled", perm[pairs])):
        path = tmp_path / f"{name}.edges"
        path.write_text("".join(f"{i + 1} {j + 1} {w:.17g}\n" for (i, j), w in zip(ids, weights)))
        out = _run(tmp_path, name, "flux", "--input", str(path), "--mode", "adjacency",
                   "--t-star", "0.015,0.15,1.5", *([] if undirected else ["--no-undirected"]))
        rows[name] = np.loadtxt(out / "flux.csv", delimiter=",", skiprows=1)
    npt.assert_array_equal(rows["relabelled"][:, 0], rows["orig"][:, 0])
    cos = np.abs(np.sum(rows["relabelled"][:, 1:][:, perm] * rows["orig"][:, 1:], axis=1))
    assert np.all(1.0 - cos <= 1e-12)


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
    # 3.2 on K4. Each step is exact, so the endpoint is within roundoff of x*
    # at any step count; a fixed-grid integrator with a bounded stability
    # interval (RK4's real one is [-2.785, 0]) misses it there.
    graph = tmp_path / "g.edges"
    graph.write_text(edges)
    argv = ["simulate", "--input", str(graph), "--mode", "laplacian", "--t-star", "40",
            "--goal", "mean", "--eta", "0.5", "--m", "1", "--method", "flux"]
    for steps in ("50", "2000"):
        summary = json.loads((_run(tmp_path, steps, *argv, "--steps", steps)
                              / "simulate.json").read_text())
        x_star = np.asarray(summary["selection"]["x_star"])
        error = np.linalg.norm(np.asarray(summary["endpoint"]) - x_star)
        assert summary["endpoint_error"] == error <= 1e-10
        assert summary["endpoint_error_rel"] <= min(error, 1e-12)
        assert summary["energy_simulated"] == pytest.approx(summary["energy_closed_form"],
                                                            rel=1e-12)


def test_simulate_accuracy_check_fails_typed(tmp_path, path_graph, monkeypatch):
    # The check is the last guard against a run that misses the closed form:
    # a trajectory moved off x* by 1e-5 must exit 1 typed, with no results.
    import fluxcontrol.cli as cli

    def perturbed(*args):
        traj = fc.simulate(*args)
        traj.states[-1] += 1e-5
        return traj

    monkeypatch.setattr(cli, "simulate", perturbed)
    out = tmp_path / "off"
    assert main(["simulate", "--input", path_graph, "--t-star", "2", "--goal", "mean",
                 "--x0", "1,-2,0.5,3", "--steps", "50", "--out", str(out)]) == 1
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "SimulationAccuracyError" and "--steps" not in error["message"]
    assert issubclass(getattr(fc.errors, error["error"]), fc.errors.FluxControlError)
    assert not (out / "simulate.json").exists() and not (out / "trajectory.csv").exists()


def test_endpoint_scale_holds_the_largest_state(tmp_path, path_graph):
    # From x0 of size 4e9 the endpoint misses exp(t* A) x0 by about 1e-4, which
    # is 3e-14 of the state: roundoff that no --steps value removes, so the
    # run passes on the scale 1 + ||x* - z|| + max ||x(t)||.
    out = _run(tmp_path, "big", "simulate", "--input", path_graph, "--t-star", "2",
               "--x0", "1e9,-2e9,0.5e9,3e9")
    summary = json.loads((out / "simulate.json").read_text())
    states = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)[:, 1:5]
    peak = np.linalg.norm(states, axis=1).max()
    assert peak >= np.linalg.norm([1e9, -2e9, 0.5e9, 3e9])
    assert summary["endpoint_error"] > 1e-6
    assert summary["endpoint_error_rel"] == pytest.approx(summary["endpoint_error"] / (1 + peak),
                                                          rel=1e-12)
    assert summary["endpoint_error_rel"] <= 1e-12


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
    peak = np.linalg.norm(np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)[:, 1:5],
                          axis=1).max()
    assert summary["autonomous"] is True
    assert summary["endpoint_error"] == pytest.approx(error, rel=1e-6, abs=1e-15)
    assert summary["endpoint_error_rel"] == pytest.approx(summary["endpoint_error"] / (1 + peak),
                                                          rel=1e-12)
    assert summary["endpoint_error"] <= 1e-9
    # 20 steps of h = 2 over t* = 40: every step is exact, so the run passes.
    coarse = _run(tmp_path, "coarse", "simulate", "--input", path_graph, "--t-star", "40",
                  "--x0", "1,-2,0.5,3", "--steps", "20")
    assert json.loads((coarse / "simulate.json").read_text())["endpoint_error_rel"] <= 1e-12


def test_simulate_schematic_row_mismatch_is_typed(tmp_path, path_graph):
    # Steered and autonomous runs alike.
    b_path = tmp_path / "b.csv"
    b_path.write_text("1\n0\n0\n")
    for name, goal in (("err", ["--goal", "variance", "--eta", "1.0"]), ("auto", [])):
        out = tmp_path / name
        code = main([
            "simulate", "--input", path_graph, "--mode", "laplacian", *goal, "--b", str(b_path),
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


# Order independence of CLI runs in one process. A run takes the last run's
# system when its input has the same bits, with the Gramian kernels memoized
# on it; its result files must be those of the same run from an empty slot.
_RUN_KINDS = ["gramian", "select-state", "compare", "simulate", "simulate-autonomous", "flux"]
# Three files of one dense matrix (0.0 at a corner, that corner -0.0, one
# entry one ulp up) and one weighted edge list read in three modes.
_INPUTS = {
    "raw": ["--mode", "raw-matrix"],
    "raw-negzero": ["--mode", "raw-matrix"],
    "raw-ulp": ["--mode", "raw-matrix"],
    "directed": ["--mode", "adjacency", "--no-undirected"],
    "undirected": ["--mode", "adjacency"],
    "laplacian": ["--mode", "laplacian"],
}
_CLI_RUN = st.tuples(st.sampled_from(_RUN_KINDS), st.sampled_from(sorted(_INPUTS)),
                     st.sampled_from([1.0, 1.5]), st.sampled_from(["eye", "thin"]),
                     st.sampled_from([10, 16]), st.sampled_from(["variance", "repulsion"]),
                     st.integers(0, 1))


def _write_run_inputs(root, seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) / np.sqrt(n) - 1.5 * np.eye(n)
    a[0, -1] = 0.0
    for name, corner, ulp in (("raw", "0", False), ("raw-negzero", "-0", False),
                              ("raw-ulp", "0", True)):
        rows = [[repr(float(x)) for x in row] for row in a]
        rows[0][-1] = corner
        if ulp:
            rows[1][0] = repr(float(np.nextafter(a[1, 0], np.inf)))
        (root / f"{name}.csv").write_text("".join(",".join(r) + "\n" for r in rows))
    # Each pair once, in a drawn direction; the ring through every node keeps n.
    pairs = [(i, (i + 1) % n) for i in range(n)] + [(0, 2)] * (n > 3)
    lines = [f"{j + 1} {i + 1} {w!r}" if rng.random() < 0.5 else f"{i + 1} {j + 1} {w!r}"
             for (i, j), w in zip(pairs, rng.uniform(0.5, 2.0, len(pairs)).tolist())]
    (root / "edges.txt").write_text("\n".join(lines) + "\n")
    (root / "path.edges").write_text("1 2\n2 3\n3 4\n")
    (root / "thin.csv").write_text("".join(f"{x!r}\n" for x in rng.standard_normal(n).tolist()))
    return ",".join(repr(float(x)) for x in rng.standard_normal(n))


def _cli_argv(root, d, run):
    kind, source, t_star, b, steps, goal, x0_seed = run
    # The unweighted 4-node path is drawn by no strategy: its n is not the drawn n.
    path = root / ("edges.txt" if source in ("directed", "undirected", "laplacian")
                   else "path.edges" if source == "path" else f"{source}.csv")
    command = "simulate" if kind.startswith("simulate") else kind
    # A flux run sweeps two horizons, the drawn one last.
    horizons = f"0.5,{t_star!r}" if kind == "flux" else repr(t_star)
    mode = ["--mode", "adjacency"] if source == "path" else _INPUTS[source]
    argv = [command, "--input", str(path), *mode, "--t-star", horizons]
    if kind in ("gramian", "select-state", "simulate") and b == "thin":
        argv += ["--b", str(root / "thin.csv")]
    if kind.startswith("simulate"):
        argv += ["--steps", str(steps)]
    if kind in ("select-state", "compare", "simulate", "simulate-autonomous"):
        argv += ["--x0", "random", "--x0-seed", str(x0_seed)]
    if kind in ("select-state", "compare", "simulate"):
        argv += (["--goal", "variance", "--eta", "4"] if goal == "variance" else
                 ["--goal", "repulsion", f"--d={d}", "--eta", "100"])
    if kind == "compare":
        argv += ["--starts", "1", "--seeds", "2", "--max-iters", "3"]
    return argv


def _cli_result(argv, out):
    """The result files of one run (not manifest.json, which names --out),
    and the expm calls it made."""
    from scipy.linalg import expm

    import fluxcontrol.gramian as gramian

    calls = []

    def counting(x):
        calls.append(x.shape)
        return expm(x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gramian, "expm", counting)
        main([*argv, "--out", str(out)])
    files = {f.name: f.read_bytes() for f in sorted(out.iterdir()) if f.name != "manifest.json"}
    return files, len(calls)


_SELECT = ("select-state", "raw", 1.0, "eye", 10, "repulsion", 0)
_STEER = ("simulate", "raw", 1.0, "eye", 10, "repulsion", 1)


@example(seed=0, n=4, runs=[_STEER, _SELECT])
@example(seed=1, n=5, runs=[_SELECT, _STEER])
@example(seed=2, n=3, runs=[_STEER, _STEER[:-1] + (0,), _SELECT])
@example(seed=3, n=6, runs=[_STEER, ("simulate-autonomous", *_STEER[1:]), _STEER])
@example(seed=4, n=4, runs=[_SELECT, ("select-state", "raw-negzero", *_SELECT[2:]),
                            ("select-state", "raw-ulp", *_SELECT[2:])])
@example(seed=5, n=5, runs=[("gramian", "directed", 1.5, "eye", 10, "variance", 0),
                            ("gramian", "undirected", 1.5, "eye", 10, "variance", 0),
                            ("gramian", "laplacian", 1.5, "eye", 10, "variance", 0)])
@example(seed=6, n=4, runs=[_STEER, _STEER[:2] + (1.5,) + _STEER[3:],
                            _STEER[:3] + ("thin", 16) + _STEER[5:]])
@example(seed=7, n=6, runs=[("flux", "undirected", 1.5, "eye", 10, "variance", 0)] * 2)
# A flux rerun on an undirected path over t* = 0.5 and 1.5.
@example(seed=8, n=4, runs=[("flux", "path", 1.5, "eye", 10, "variance", 0)] * 2)
@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**16), n=st.integers(3, 6), runs=st.lists(_CLI_RUN, min_size=2,
                                                                      max_size=3))
def test_rerun_is_byte_identical(tmp_path_factory, seed, n, runs):
    import fluxcontrol.cli as cli

    root = tmp_path_factory.mktemp("runs")
    d = _write_run_inputs(root, seed, n)
    argvs = [_cli_argv(root, d, run) for run in runs]
    cold = []
    for k, argv in enumerate(argvs):
        cli._held_system = None
        cold.append(_cli_result(argv, root / f"cold{k}"))
    cli._held_system = None
    for k, (argv, run) in enumerate(zip(argvs, runs)):
        held = cli._held_system
        files, calls = _cli_result(argv, root / f"warm{k}")
        assert files == cold[k][0]
        # The system is the last run's exactly when its input bits and mode are.
        assert (cli._held_system is held) == (k > 0 and runs[k - 1][1] == run[1])
        # Every kernel reads A and t* or a step of it: a run on a network or
        # horizon no earlier run had makes all the exponentials a cold run makes.
        if all(earlier[1:3] != run[1:3] for earlier in runs[:k]):
            assert calls == cold[k][1]


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


@pytest.mark.parametrize("flag", ["--input", "--b"])
def test_malformed_dense_matrix_is_an_input_error(tmp_path, path_graph, flag):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,x\n")
    if flag == "--input":
        argv = ["gramian", "--input", str(bad), "--mode", "raw-matrix"]
    else:
        argv = ["select-state", "--input", path_graph, "--goal", "mean", "--b", str(bad)]
    out = tmp_path / "m"
    assert main([*argv, "--out", str(out)]) == 1
    payload = json.loads((out / "error.json").read_text())
    assert payload["error"] == "InvalidInputError"
    assert "bad.csv" in payload["message"]


@pytest.mark.parametrize("flag", ["--input", "--b"])
def test_dense_matrix_without_data_rows_is_an_input_error(tmp_path, path_graph, flag):
    # numpy reads such a file as a (0, 1) array with a UserWarning; the run
    # must say the file is empty, not that A is not square or B has too few rows.
    empty = tmp_path / "empty.csv"
    empty.write_text("# no rows yet\n")
    if flag == "--input":
        argv = ["gramian", "--input", str(empty), "--mode", "raw-matrix"]
    else:
        argv = ["select-state", "--input", path_graph, "--goal", "mean", "--b", str(empty)]
    out = tmp_path / "m"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--out", str(out)]) == 1
    payload = json.loads((out / "error.json").read_text())
    assert payload["error"] == "InvalidInputError"
    assert payload["message"] == f"{empty}: no data rows"


def test_undecodable_edge_list_is_a_parse_error(tmp_path):
    graph = tmp_path / "g.edges"
    graph.write_bytes(b"\xff\xfe1\x00 \x002\x00\n\x00")
    out = tmp_path / "f"
    assert main(["flux", "--input", str(graph), "--out", str(out)]) == 1
    payload = json.loads((out / "error.json").read_text())
    assert payload["error"] == "EdgeListParseError" and "g.edges" in payload["message"]


def test_commented_whitespace_matrix_runs(tmp_path):
    # A '#' header with a comma must not make the reader split on commas.
    a_path = tmp_path / "a.txt"
    a_path.write_text("# weights, row-major\n-1 0.5\n0.5 -2\n")
    out = _run(tmp_path, "g", "gramian", "--input", str(a_path), "--mode", "raw-matrix",
               "--t-star", "1")
    assert np.loadtxt(out / "W.csv", delimiter=",").shape == (2, 2)


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


def test_simulate_certifies_states_past_the_plain_norms_range(tmp_path):
    # exp(600) ~ 4e260 fits a float, but a plain 2-norm of such a state
    # squares it out of range; the endpoint check must not read inf / inf.
    a_path = tmp_path / "a.csv"
    a_path.write_text("300,1,0\n0,300,0\n0,0,300\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = _run(tmp_path, "sim", "simulate", "--input", str(a_path), "--mode", "raw-matrix",
                   "--t-star", "2", "--x0", "1,1,1", "--steps", "10")
    assert [str(w.message) for w in caught] == []
    summary = json.loads((out / "simulate.json").read_text())
    assert summary["autonomous"] is True
    assert 0.0 <= summary["endpoint_error_rel"] <= 1e-12
    assert 1e245 < summary["endpoint_error"] < 1e250


@pytest.mark.parametrize("command, expected", [("select-state", 1), ("simulate", 1)])
def test_nonsymmetric_run_takes_z_from_the_gramians_exponential(tmp_path, monkeypatch,
                                                                command, expected):
    # One n x n expm for W, whose doubling ladder also gives z. simulate's one
    # is the series Gramian over one step, whose last rung is exp(hA); the
    # chain of its steps gives W(t*) and z.
    from scipy.linalg import expm

    import fluxcontrol.gramian as gramian

    calls = []

    def counting(x):
        calls.append(x.shape)
        return expm(x)

    monkeypatch.setattr(gramian, "expm", counting)
    a_path = tmp_path / "a.csv"
    a_path.write_text("-1,2,0\n0,-2,1.5\n0.5,0,-1\n")
    out = _run(tmp_path, "run", command, "--input", str(a_path), "--mode", "raw-matrix",
               "--t-star", "2", "--x0", "1,-1,2", "--goal", "variance", "--eta", "4")
    assert len(calls) == expected
    assert calls[0] == (3, 3)
    if command == "simulate":
        summary = json.loads((out / "simulate.json").read_text())
        assert summary["endpoint_error"] <= 1e-8 * (1 + np.linalg.norm(summary["endpoint"]))


_GOAL = ["--goal", "variance", "--eta", "4", "--x0", "1,-1,2"]


@pytest.mark.parametrize("argv, expected", [
    (["gramian"], 1),
    (["select-state", *_GOAL], 1),
    (["simulate", *_GOAL, "--steps", "50"], 1),
    (["simulate", "--x0", "1,-1,2", "--steps", "50"], 2),
    (["simulate", *_GOAL, "--b", "thin", "--steps", "50"], 1),
    (["simulate", *_GOAL, "--method", "gpgm", "--starts", "1", "--max-iters", "3",
      "--steps", "50"], 9),
    (["compare", *_GOAL, "--starts", "1", "--seeds", "2", "--max-iters", "3"], 10),
], ids=["gramian", "select-state", "simulate", "simulate-autonomous", "simulate-thin",
        "simulate-gpgm", "compare"])
def test_expm_calls_per_run(tmp_path, monkeypatch, argv, expected):
    # Each series Gramian takes one expm, and exp(t* A) and exp(hA) come from
    # a ladder or one expm each; a steered run's W(t*) is the chain of its
    # step map and takes none. A new exponential anywhere shows up here.
    from scipy.linalg import expm

    import fluxcontrol.gramian as gramian

    calls = []

    def counting(x):
        calls.append(x.shape)
        return expm(x)

    monkeypatch.setattr(gramian, "expm", counting)
    a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
    a_path.write_text("-1,2,0\n0,-2,1.5\n0.5,0,-1\n")
    b_path.write_text("1\n0\n0.5\n")
    argv = [str(b_path) if arg == "thin" else arg for arg in argv]
    _run(tmp_path, "run", *argv, "--input", str(a_path), "--mode", "raw-matrix", "--t-star", "2")
    assert calls == [(3, 3)] * expected


@pytest.mark.parametrize("argv", [
    ["select-state", "--goal", "variance", "--eta", "4"],
    ["simulate", "--goal", "variance", "--eta", "4", "--steps", "50"],
], ids=["select-state", "simulate"])
def test_a_repeated_run_takes_no_expm(tmp_path, monkeypatch, argv):
    # The second run on the same network, from another x0, takes the system the
    # first left and reads every Gramian kernel it memoized.
    from scipy.linalg import expm

    import fluxcontrol.cli as cli
    import fluxcontrol.gramian as gramian

    calls = []

    def counting(x):
        calls.append(x.shape)
        return expm(x)

    monkeypatch.setattr(gramian, "expm", counting)
    a_path = tmp_path / "a.csv"
    a_path.write_text("-1,2,0\n0,-2,1.5\n0.5,0,-1\n")
    argv = [*argv, "--input", str(a_path), "--mode", "raw-matrix", "--t-star", "2"]
    _run(tmp_path, "first", *argv, "--x0", "1,-1,2")
    system = cli._held_system
    assert calls == [(3, 3)]
    _run(tmp_path, "second", *argv, "--x0", "2,0.5,-1")
    assert calls == [(3, 3)] and cli._held_system is system


def _held_bytes(memo):
    """Bytes of the distinct buffers the memo's entries reach."""
    buffers = {}

    def visit(x):
        if isinstance(x, np.ndarray):
            while isinstance(x.base, np.ndarray):
                x = x.base
            buffers[id(x)] = x.nbytes
        elif isinstance(x, (tuple, list)):
            for y in x:
                visit(y)
        elif isinstance(x, fc.GramianBundle):
            visit([x.W, *vars(x).values()])

    visit(list(memo.values()))
    return sum(buffers.values())


def test_the_memo_of_a_steered_run_holds_each_matrix_once(tmp_path):
    # B = I, the step map (exp(hA), W_h), W(t*) and exp(t* A), and W's
    # eigenvalues and eigenpairs: six n x n arrays and two vectors. W is held
    # once, by its chain entry and its bundle, and a second run on the
    # network holds no more.
    import fluxcontrol.cli as cli

    n = 12
    a = _directed_system(5, n)[0]
    a_path = tmp_path / "a.csv"
    np.savetxt(a_path, a, delimiter=",", fmt="%.17g")
    for x0 in ("0", "1"):
        _run(tmp_path, f"run{x0}", "simulate", "--input", str(a_path), "--mode", "raw-matrix",
             "--goal", "repulsion", "--d=" + ",".join(["1"] * n), "--eta", "100",
             "--x0", "random", "--x0-seed", x0, "--steps", "40")
        assert _held_bytes(cli._held_system._memo) == 8 * (6 * n * n + 2 * n)


@pytest.mark.parametrize("command", [["place"], ["simulate", "--steps", "50"]])
@pytest.mark.parametrize("method", ["ram", "flux"])
def test_placement_selection_is_made_once(tmp_path, karate_path, monkeypatch, command, method):
    # simulate steers by the selection its placement made for the payload.
    import fluxcontrol.cli as cli

    bundles, selections = [], []
    bundle, select = fc.GramianEvaluator.bundle, cli.select_state

    def counting_bundle(self, b):
        bundles.append(None)
        return bundle(self, b)

    def counting_select(*args):
        selections.append(None)
        return select(*args)

    monkeypatch.setattr(fc.GramianEvaluator, "bundle", counting_bundle)
    monkeypatch.setattr(cli, "select_state", counting_select)
    _run(tmp_path, "run", *command, "--method", method, "--input", karate_path, "--m", "2",
         "--mode", "adjacency", "--goal", "variance", "--x0", "random", "--t-star", "0.5")
    assert (len(bundles), len(selections)) == (1, 1)


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


@pytest.mark.parametrize("argv", [
    ["select-state", "--goal", "variance", "--sense", "contract"],
    ["select-state", "--goal", "mean", "--sense", "contract", "--d", "1"],
    ["select-state", "--goal", "mean", "--d", ",".join(["0"] * 34)],
    ["place", "--method", "flux", "--sense", "contract"],
    ["place", "--method", "flux", "--d", ",".join(["0"] * 34)],
], ids=["variance-contract", "mean-contract-d", "mean-d", "no-goal-contract", "no-goal-d"])
def test_repulsion_options_need_the_repulsion_goal(tmp_path, karate_path, argv):
    # --d and --sense shape only a repulsion goal. Elsewhere they were dropped
    # while manifest.json recorded them: a "contract" variance run gave the
    # expand run's energy.
    assert _error(tmp_path, "opt", *argv, "--input", karate_path, "--x0", "random",
                  "--t-star", "1") == "InvalidInputError"
    assert not (tmp_path / "opt" / "manifest.json").exists()
    out = _run(tmp_path, "rep", "select-state", "--input", karate_path, "--goal", "repulsion",
               "--sense", "contract", "--d", ",".join(["0"] * 34), "--eta", "1")
    assert json.loads((out / "manifest.json").read_text())["config"]["sense"] == "contract"


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
    ["place", "--method", "ram", "--epsilon", "inf"],
], ids=["variance-nan", "variance-inf", "mean-inf", "repulsion-inf", "epsilon-inf",
        "sigma-inf", "delta-star-nan", "ram-epsilon-inf"])
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
