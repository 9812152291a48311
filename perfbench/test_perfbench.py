"""Tests of the benchmark itself: its gates reject perturbed results, its tracer
restores the package, and its metric lists agree with BENCHMARK.json.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads
from fluxcontrol import cli

HERE = Path(__file__).resolve().parent


def _job(tmp_path_factory, cls, argv_edit=None):
    """Build a workload (seed 3) in a fresh directory and run its job 1 there."""
    work = tmp_path_factory.mktemp(cls.name)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        wl = cls(3)
        wl.prepare()
        argv = wl.argv(1, "job")
        assert cli.main(argv_edit(argv) if argv_edit else argv) == 0
    return wl, work / "job"


@pytest.fixture(scope="module")
def place(tmp_path_factory):
    return _job(tmp_path_factory, workloads.PlaceKarate)


@pytest.fixture(scope="module")
def flux(tmp_path_factory):
    return _job(tmp_path_factory, workloads.FluxSynth)


@pytest.fixture(scope="module")
def steer(tmp_path_factory):
    return _job(tmp_path_factory, workloads.SteerDirected)


def _copy(out, tmp_path):
    dest = tmp_path / "perturbed"
    shutil.copytree(out, dest)
    return dest


def _edit_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def test_gates_pass_on_real_results(place, flux, steer):
    for wl, out in (place, flux, steer):
        assert wl.gates(out, 1) == []


def _place_scale_b(out, wl):
    b = np.loadtxt(out / "B.csv", delimiter=",") * 1.01
    np.savetxt(out / "B.csv", b, delimiter=",", fmt="%.17g")
    _edit_json(out / "placement.json", lambda p: p.update(B=b.tolist()))


def _place_raise_energy(out, wl):
    _edit_json(out / "placement.json", lambda p: p.update(energy=p["energy"] * 1.001))


def _place_raise_trace(out, wl):
    _edit_json(out / "placement.json", lambda p: p["trace"].__setitem__(1, 2.0 * p["trace"][0]))


def _place_bound(out, wl):
    _edit_json(out / "placement.json", lambda p: p.update(energy=0.99 * wl.bound))


@pytest.mark.parametrize("perturb, gate", [
    (_place_scale_b, "place.sphere"),
    (_place_raise_energy, "place.energy_ref"),
    (_place_raise_trace, "place.descent"),
    (_place_bound, "place.lower_bound"),
])
def test_place_gates_reject(place, tmp_path, perturb, gate):
    wl, out = place
    out = _copy(out, tmp_path)
    perturb(out, wl)
    assert gate in wl.gates(out, 1)


def _flux_edit(out, edit):
    path = out / "flux.csv"
    lines = path.read_text().splitlines()
    row = np.array(lines[3].split(","), dtype=float)
    lines[3] = ",".join(f"{x:.17g}" for x in edit(row))
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("edit, gate", [
    (lambda r: np.r_[r[0] * 1.01, r[1:]], "flux.horizons"),
    (lambda r: np.r_[r[0], r[1:] * 1.001], "flux.unit_norm"),
    (lambda r: np.r_[r[0], np.roll(r[1:], 1)], "flux.reference"),
])
def test_flux_gates_reject(flux, tmp_path, edit, gate):
    wl, out = flux
    out = _copy(out, tmp_path)
    _flux_edit(out, edit)
    assert gate in wl.gates(out, 1)


def _steer_last_row(out, edit):
    path = out / "trajectory.csv"
    head, last = path.read_text().rstrip("\n").rsplit("\n", 1)
    row = edit(np.array(last.split(","), dtype=float))
    path.write_text(head + "\n" + ",".join(f"{x:.17g}" for x in row) + "\n")


def _steer_x_star(out, wl, turn):
    """Turn x* - d by about ``turn`` radians, keeping the goal ||x* - d||^2 = eta."""
    def edit(p):
        x = np.asarray(p["selection"]["x_star"])
        r = x - wl.d
        u = np.random.default_rng(0).standard_normal(r.size)
        u -= r * (u @ r) / (r @ r)
        moved = r + turn * np.linalg.norm(r) * u / np.linalg.norm(u)
        p["selection"]["x_star"] = (wl.d + moved * np.linalg.norm(r) / np.linalg.norm(moved)).tolist()
    _edit_json(out / "simulate.json", edit)


@pytest.mark.parametrize("perturb, gate", [
    (lambda out, wl: _edit_json(out / "simulate.json", lambda p: p["selection"].update(
        x_star=(np.asarray(p["selection"]["x_star"]) * 1.001).tolist())), "steer.goal"),
    (lambda out, wl: _steer_last_row(out, lambda r: np.r_[r[0], r[1:-1] + 1e-3, r[-1]]),
     "steer.endpoint"),
    (lambda out, wl: _steer_last_row(out, lambda r: np.r_[r[:-1], r[-1] * 1.001]), "steer.energy"),
    (lambda out, wl: _steer_x_star(out, wl, 1e-3), "steer.energy_ref"),
])
def test_steer_gates_reject(steer, tmp_path, perturb, gate):
    wl, out = steer
    out = _copy(out, tmp_path)
    perturb(out, wl)
    assert gate in wl.gates(out, 1)


def test_place_karate_converges_to_provable_optimum(tmp_path_factory):
    """Without the iteration cap the descent lands within 0.5% of eta / ((m + eps) g_max)."""
    def uncapped(argv):
        return [("300" if prev == "--max-iters" else a) for prev, a in zip([None, *argv], argv)]

    wl, out = _job(tmp_path_factory, workloads.PlaceKarate, uncapped)
    energy = json.loads((out / "placement.json").read_text())["energy"]
    assert wl.bound * (1.0 - 1e-9) <= energy <= 1.005 * wl.bound


def test_tracer_records_layers_and_restores_package(flux, monkeypatch):
    wl, out = flux
    monkeypatch.chdir(out.parent)
    tracer = spans.Tracer()
    assert tracer.call(2, cli.main, wl.argv(2, "traced")) == 0
    assert all(vars(owner)[attr] is old for owner, attr, old, _ in tracer._patches)
    counts = {name: acc[0] for name, acc in tracer.per_job()[2].items()}
    assert counts["cli.main"] == 1
    assert counts["gramian.flux_matrix"] == workloads.FluxSynth.COUNT
    assert counts[spans.KERNEL] >= workloads.FluxSynth.COUNT


def test_metric_lists_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    defs = json.loads((HERE / "metrics.json").read_text())
    for kind in ("end_to_end", "per_layer"):
        assert [(m["name"], m["unit"], m["better"]) for m in bench[kind]] == [
            (name, d["unit"], d["better"]) for name, d in defs[kind].items()]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    for d in defs["per_layer"].values():
        assert set(d["moves"]) | set(d["flat"]) <= set(run.WORKLOADS)
        assert all(set(m) <= set(defs["end_to_end"]) for m in d["moves"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "flux-synth",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
