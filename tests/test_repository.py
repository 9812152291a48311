"""Source invariants and the README's runnable examples."""

import ast
import importlib
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

import fluxcontrol
from fluxcontrol.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fluxcontrol"


def test_no_gramian_solves_in_src():
    # W is singular to machine precision on common graphs (karate, m <= 4), so
    # every consumer reads the adjoint vector p from the selection instead.
    pattern = re.compile(r"linalg\.(solve|lstsq|pinv|inv)\b")
    hits = [
        f"{path.name}:{k}"
        for path in sorted(SRC.rglob("*.py"))
        for k, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []


def test_only_gramian_imports_expm():
    # GramianEvaluator is the one way to exp(tA): the doubling ladder and
    # propagator(s), which propagate, step and simulate read, take it there.
    pattern = re.compile(r"import.*\bexpm\b|\bexpm\(")
    hits = [
        f"{path.name}:{k}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "gramian.py"
        for k, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []


def test_float_csvs_go_through_the_one_writer():
    # _util.write_csv_rows writes every float CSV, with '%.17g' fields; no
    # module formats an array through np.savetxt or ndarray.tofile.
    hits = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("savetxt", "tofile")
    ]
    assert hits == []


def test_only_cli_builds_a_gramian_evaluator():
    # One evaluator per run: the CLI builds it and hands it to placement and
    # steering. No library module builds one of its own.
    hits = sorted(
        path.name
        for path in SRC.rglob("*.py")
        if path.name != "cli.py" and "GramianEvaluator(" in path.read_text()
    )
    assert hits == []


def test_evaluator_privates_stay_in_gramian():
    # Placement and simulation reach the evaluator through its public methods.
    pattern = re.compile(r"\bevaluator\._")
    hits = [
        f"{path.name}:{k}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "gramian.py"
        for k, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []


def test_select_state_is_the_one_way_into_state_selection():
    # Every goal type reaches its solver through select_state, so a per-goal
    # front door that returns a selection cannot come back unnoticed.
    select = importlib.import_module("fluxcontrol.select")
    entries = sorted(
        name
        for name, fn in vars(select).items()
        if not name.startswith("_") and inspect.isfunction(fn)
        and fn.__module__ == select.__name__
        and inspect.signature(fn).return_annotation is select.StateSelection
    )
    assert entries == ["select_state"]


def test_cli_import_leaves_scipy_sparse_unloaded(tmp_path):
    # Importing scipy.sparse (as scipy.sparse.linalg.eigsh would) adds about
    # 3 MB of resident memory to every process; the flux top pair comes from
    # eigh of the k x k Krylov Gramian, and an edge list's matvecs are numpy
    # bincounts. Checked after the import and after a full flux run.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    argv = ["flux", "--input", str(SRC / "data" / "karate_club.edges"), "--mode", "adjacency",
            "--t-star", "0.015,0.15,1.5", "--out", str(tmp_path / "flux")]
    code = ("import sys, fluxcontrol.cli; "
            "sparse = lambda: sorted(m for m in sys.modules if m.startswith('scipy.sparse')); "
            f"print(sparse()); assert fluxcontrol.cli.main({argv!r}) == 0; print(sparse())")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]", "[]"]


def test_package_exports_are_the_modules_exports():
    # The package re-exports each library module's __all__ and nothing else,
    # so a name deleted from a module cannot linger in the package's list.
    modules = ("centrality", "gramian", "graphio", "linsys", "placement", "select",
               "trajectory")
    exports = {name: importlib.import_module(f"fluxcontrol.{name}").__all__ for name in modules}
    expected = {"errors"}.union(*exports.values())
    assert sorted(fluxcontrol.__all__) == sorted(expected)
    for module, names in exports.items():
        for name in names:
            assert getattr(fluxcontrol, name) is getattr(
                importlib.import_module(f"fluxcontrol.{module}"), name), name
    assert fluxcontrol.errors is importlib.import_module("fluxcontrol.errors")


def test_readme_quick_start_reaches_selection():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    traj, sel = scope["traj"], scope["sel"]
    assert np.linalg.norm(traj.endpoint - sel.x_star) <= 1e-6 * (1 + np.linalg.norm(sel.x_star))
    assert abs(traj.total_energy - sel.energy) <= 1e-6 * sel.energy


def test_readme_cli_commands_exit_zero(tmp_path):
    # Each `fluxcontrol ...` line of the README's CLI block, run in process
    # with $KARATE resolved and every --out under tmp_path.
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"```bash\n(.*?)```", readme.split("## CLI", 1)[1], re.S).group(1)
    karate = str(SRC / "data" / "karate_club.edges")
    commands = [
        shlex.split(cmd.replace("$KARATE", karate))
        for cmd in block.replace("\\\n", " ").splitlines()
        if cmd.startswith("fluxcontrol ")
    ]
    assert len(commands) == 5
    for argv in commands:
        out = argv.index("--out") + 1
        argv[out] = str(tmp_path / argv[out])
        assert main(argv[1:]) == 0, argv


def test_bench_records_are_well_formed():
    # Each PR that touches src/ records its parent/change runs as BENCH_<pr>.json,
    # with a summary row per benchmark workload holding every end-to-end metric.
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in benchmark["workloads"]}
    metrics = {m["name"] for m in benchmark["end_to_end"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text())
        assert record["pr"] == int(path.stem.removeprefix("BENCH_")), path.name
        assert record["src_lines"] and record["machine"]["blas_threads"] >= 1, path.name
        assert set(record["summary"]) >= workloads, path.name
        for workload in workloads:
            assert set(record["summary"][workload]) >= metrics, (path.name, workload)
