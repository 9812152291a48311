"""Command-line front end: ingest a graph, run the pipelines, emit CSV/JSON.

Subcommands: gramian, flux, select-state, place, simulate, compare. Every run
writes a manifest.json recording the effective config and library versions;
solver failures exit nonzero after writing a structured error.json.
"""

import argparse
import contextlib
import functools
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from ._util import as_vector
from .centrality import centrality_histogram, flux_sweep
from .errors import FluxControlError, InvalidInputError, SimulationAccuracyError
from .gramian import GramianEvaluator, reachability_gramian
from .graphio import load_dense_matrix, parse_edge_list, write_matrix_csv
from .linsys import InputSchematic, LinearSystem, laplacian_system
from .placement import (
    GpgmConfig,
    PlacementResult,
    gpgm_multistart,
    place_mean_optimal,
    ram_baseline,
)
from .select import (
    RepulsionGoal,
    VarianceGoal,
    mean_goal,
    select_state,
)
from .trajectory import min_energy_controller, simulate

_MODES = ("raw-matrix", "adjacency", "laplacian")
_GOALS = ("mean", "repulsion", "variance")
_METHODS = ("flux", "gpgm", "ram")
# simulate fails when its endpoint misses the closed form by more than this,
# relative to 1 + ||x* - z||.
_ENDPOINT_RTOL = 1e-6


def _comma_floats(text):
    try:
        return [float(x) for x in str(text).split(",") if x.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {text!r}") from exc


@functools.cache
def _build_parser():
    """The parser and its subcommand parsers, built once per process. Every
    parse shares their defaults, so each default must be immutable."""
    parser = argparse.ArgumentParser(
        prog="fluxcontrol",
        description="Minimum-energy control of network state distributions",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="graph or matrix file")
    common.add_argument("--mode", choices=_MODES, default="laplacian",
                        help="how to turn the input file into a dynamics matrix")
    common.add_argument("--undirected", action=argparse.BooleanOptionalAction,
                        default=True, help="mirror edge-list entries")
    common.add_argument("--t-star", type=_comma_floats, default=(1.0,),
                        help="horizon(s), comma separated")
    common.add_argument("--out", required=True, help="output directory")
    common.add_argument("--config", help="JSON file whose keys override flags")

    goal = argparse.ArgumentParser(add_help=False)
    goal.add_argument("--goal", choices=_GOALS)
    goal.add_argument("--eta", type=float, default=1.0)
    goal.add_argument("--d", type=_comma_floats, help="repulsion target vector")
    goal.add_argument("--sense", choices=("expand", "contract"), default="expand")
    goal.add_argument("--x0", default="zeros",
                      help="'zeros', 'random', or comma-separated values")
    goal.add_argument("--x0-seed", type=int, default=0)

    sched = argparse.ArgumentParser(add_help=False)
    sched.add_argument("--b", help="input schematic CSV (default: identity)")
    sched.add_argument("--m", type=int, default=1, help="controller count")

    gpgm_args = argparse.ArgumentParser(add_help=False)
    gpgm_args.add_argument("--sigma", type=float, default=1e-2,
                           help="first step; later steps are Barzilai-Borwein")
    gpgm_args.add_argument("--delta-star", type=float, default=1e-6)
    gpgm_args.add_argument("--epsilon", type=float, default=1e-6)
    gpgm_args.add_argument("--max-iters", type=int, default=10_000)
    gpgm_args.add_argument("--seed", type=int, default=0, help="base RNG seed")
    gpgm_args.add_argument("--starts", type=int, default=5, help="multistart count")

    sub.add_parser("gramian", parents=[common, sched],
                   help="reachability Gramian of the system and schematic")

    p = sub.add_parser("flux", parents=[common],
                       help="flux centrality sweep over horizons")
    p.add_argument("--hist", action="store_true",
                   help="also emit a Freedman-Diaconis histogram per horizon")

    sub.add_parser("select-state", parents=[common, sched, goal],
                   help="minimum-energy terminal state for a goal")

    p = sub.add_parser("place", parents=[common, sched, goal, gpgm_args],
                       help="optimize the input schematic")
    p.add_argument("--method", choices=_METHODS, default="flux")

    p = sub.add_parser("simulate", parents=[common, sched, goal, gpgm_args],
                       help="simulate the minimum-energy controlled trajectory")
    p.add_argument("--method", choices=_METHODS)
    p.add_argument("--steps", type=int, default=2000)

    p = sub.add_parser("compare", parents=[common, sched, goal, gpgm_args],
                       help="optimized placement against a random-allocation ensemble")
    p.add_argument("--seeds", type=int, default=20, help="random-allocation ensemble size")
    return parser, sub.choices


def _apply_config_file(args, command_parser):
    """Override flags from the ``--config`` JSON object, each value checked
    against its flag's type and choices."""
    if not getattr(args, "config", None):
        return args
    overrides = json.loads(Path(args.config).read_text())
    if not isinstance(overrides, dict):
        raise InvalidInputError("config file must hold a JSON object")
    actions = {action.dest: action for action in command_parser._actions}
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if dest not in actions or not hasattr(args, dest):
            raise InvalidInputError(f"unknown config key {key!r}")
        setattr(args, dest, _config_value(key, value, actions[dest]))
    return args


def _config_value(key, value, action):
    """``value`` as its flag would parse it: a typed flag parses the value
    (a list as comma-separated items) with the flag's type, so a JSON string
    is no number; switches take a boolean; flags with choices one of them."""
    if action.type is not None:
        items = value if isinstance(value, list) else [value]
        try:
            value = action.type(",".join(repr(x) for x in items))
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise InvalidInputError(f"config key {key!r}: {exc}") from exc
    elif action.nargs == 0 and not isinstance(value, bool):
        raise InvalidInputError(f"config key {key!r} needs true or false, got {value!r}")
    if action.choices is not None and value not in action.choices:
        raise InvalidInputError(f"config key {key!r} must be one of {list(action.choices)}")
    return value


def _build_system(args):
    if not args.input:
        raise InvalidInputError("--input is required for this command")
    if args.mode == "raw-matrix":
        return LinearSystem(load_dense_matrix(args.input))
    adj, _ = parse_edge_list(args.input, undirected=args.undirected)
    if args.mode == "adjacency":
        return LinearSystem(adj)
    return laplacian_system(adj)


def _build_schematic(args, system):
    if getattr(args, "b", None):
        return InputSchematic(load_dense_matrix(args.b))
    return InputSchematic.identity(system.n)


def _horizon(args):
    """The one horizon of a subcommand that takes a single ``--t-star``."""
    if len(args.t_star) != 1:
        raise InvalidInputError(f"--t-star needs exactly one horizon, got {len(args.t_star)}")
    return args.t_star[0]


def _build_goal(args, n):
    if not args.goal:
        return None
    if args.goal == "mean":
        return mean_goal(n, args.eta)
    if args.goal == "variance":
        return VarianceGoal(args.eta)
    if args.d is None:
        raise InvalidInputError("repulsion goal needs --d")
    return RepulsionGoal(d=as_vector(args.d, n=n, name="d"), eta=args.eta, sense=args.sense)


def _build_x0(args, n):
    raw = args.x0
    if isinstance(raw, (list, tuple)):
        return as_vector(raw, n=n, name="x0")
    if raw == "zeros":
        return np.zeros(n)
    if raw == "random":
        if args.x0_seed < 0:
            raise InvalidInputError(f"--x0-seed must be nonnegative, got {args.x0_seed}")
        return np.random.default_rng(args.x0_seed).standard_normal(n)
    return as_vector(_comma_floats(raw), n=n, name="x0")


def _gpgm_config(args):
    return GpgmConfig(
        sigma=args.sigma,
        delta_star=args.delta_star,
        epsilon=args.epsilon,
        max_iters=args.max_iters,
        seed=args.seed,
    )


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _write_manifest(outdir, cfg):
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"), default=_json_default)
    manifest = {
        "config": cfg,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "versions": {
            "fluxcontrol": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
    }
    _write_json(Path(outdir) / "manifest.json", manifest)


def _selection_payload(selection):
    multiplier = selection.multiplier
    return {
        "x_star": selection.x_star,
        # Exact-attainment corner cases carry an infinite shadow price, which
        # strict JSON cannot represent.
        "multiplier": multiplier if np.isfinite(multiplier) else None,
        "energy": selection.energy,
        "binding": selection.binding,
    }


def _setup(args):
    """Goal, x0 and the run's one Gramian evaluator, which carries the system.
    Callers take ``z = exp(t* A) x0`` from ``evaluator.propagate(x0)`` after
    their first Gramian, whose doubling ladder already holds most of it."""
    system = _build_system(args)
    goal = _build_goal(args, system.n)
    x0 = _build_x0(args, system.n)
    return goal, x0, GramianEvaluator(system, _horizon(args))


def _place(args, goal, x0, evaluator):
    """The schematic for ``--method`` (``--b`` when none is given) and its
    placement payload. Flux and ram report the goal's selection energy on the
    schematic; with no goal, flux reports ``1/(m lambda)`` and ram none."""
    system = evaluator.system
    method = getattr(args, "method", None)
    if method is None:
        return _build_schematic(args, system), None
    if method == "gpgm":
        if goal is None:
            raise InvalidInputError("gpgm placement needs --goal")
        result = gpgm_multistart(evaluator, evaluator.propagate(x0), goal, args.m,
                                 config=_gpgm_config(args), n_starts=args.starts)
    elif method == "flux":
        result = place_mean_optimal(system, np.ones(system.n), evaluator.t_star, args.m)
    else:
        schematic = ram_baseline(system.n, args.m, seed=args.seed, epsilon=args.epsilon)
        result = PlacementResult(B_star=schematic, energy=None, iterations=0,
                                 converged=True, energy_trace=np.array([]))
    if method != "gpgm" and goal is not None:
        energy = select_state(evaluator.bundle(result.B_star.B), evaluator.propagate(x0),
                              goal).energy
        result = replace(result, energy=energy, energy_trace=np.array([energy]))
    return result.B_star, {
        "B": result.B_star.B,
        "energy": result.energy,
        "iterations": result.iterations,
        "converged": result.converged,
        "trace": result.energy_trace,
        "steps": result.steps,
    }


def _cmd_gramian(args, outdir):
    system = _build_system(args)
    schematic = _build_schematic(args, system)
    bundle = reachability_gramian(system, schematic, _horizon(args))
    write_matrix_csv(outdir / "W.csv", bundle.W)
    _write_json(outdir / "gramian.json", {
        "t_star": bundle.t_star,
        "kappa": bundle.kappa,
        "lam_max": bundle.lam_max,
        "lam_min": bundle.lam_min,
        "n": bundle.n,
        "m": schematic.m,
    })


def _cmd_flux(args, outdir):
    profile = flux_sweep(_build_system(args), sorted(args.t_star))
    profile.write_csv(outdir / "flux.csv")
    if args.hist:
        for idx, t in enumerate(profile.horizons):
            counts, edges = centrality_histogram(profile.phi[idx])
            rows = np.column_stack([edges[:-1], edges[1:], counts])
            header = f"bin_lo,bin_hi,count (t_star={t:g})"
            np.savetxt(outdir / f"flux_hist_{idx}.csv", rows,
                       delimiter=",", fmt="%.17g", header=header)


def _cmd_select_state(args, outdir):
    goal, x0, evaluator = _setup(args)
    if goal is None:
        raise InvalidInputError("select-state needs --goal")
    schematic = _build_schematic(args, evaluator.system)
    selection = select_state(evaluator.bundle(schematic.B), evaluator.propagate(x0), goal)
    _write_json(outdir / "selection.json", _selection_payload(selection))


def _cmd_place(args, outdir):
    goal, x0, evaluator = _setup(args)
    schematic, payload = _place(args, goal, x0, evaluator)
    write_matrix_csv(outdir / "B.csv", schematic.B)
    _write_json(outdir / "placement.json", payload)


def _cmd_simulate(args, outdir):
    if args.steps < 2:
        raise InvalidInputError("steps must be at least 2")
    goal, x0, evaluator = _setup(args)
    schematic, _ = _place(args, goal, x0, evaluator)
    system, t_star = evaluator.system, evaluator.t_star
    summary = {"t_star": t_star, "steps": args.steps, "m": schematic.m}
    if goal is None:
        traj = simulate(system, schematic, lambda t: np.zeros(schematic.m),
                        x0, t_star, args.steps)
        z = target = evaluator.propagate(x0)
        summary["autonomous"] = True
    else:
        selection = select_state(evaluator.bundle(schematic.B), evaluator.propagate(x0), goal)
        controller = min_energy_controller(evaluator, schematic, selection.p, args.steps)
        traj = simulate(system, schematic, controller, x0, t_star, args.steps)
        z, target = evaluator.propagate(x0), selection.x_star
        summary.update({
            "autonomous": False,
            "selection": _selection_payload(selection),
            "endpoint": traj.endpoint,
            "energy_simulated": traj.total_energy,
            "energy_closed_form": selection.energy,
        })
    # The RK4 endpoint against the closed form: x* = z + W p, or z with no goal.
    error = float(np.linalg.norm(traj.endpoint - target))
    relative = error / (1.0 + float(np.linalg.norm(target - z)))
    if not relative <= _ENDPOINT_RTOL:
        raise SimulationAccuracyError(
            f"RK4 endpoint misses the closed form by {relative:.3g} relative to "
            f"1 + ||x* - z|| (tolerance {_ENDPOINT_RTOL:g}); raise --steps above {args.steps}"
        )
    summary.update({"endpoint_error": error, "endpoint_error_rel": relative})
    traj.write_csv(outdir / "trajectory.csv")
    _write_json(outdir / "simulate.json", summary)


def _cmd_compare(args, outdir):
    goal, x0, evaluator = _setup(args)
    if goal is None:
        raise InvalidInputError("compare needs --goal")
    if args.seeds < 1:
        raise InvalidInputError("compare needs --seeds of at least 1")

    z = evaluator.propagate(x0)
    gpgm_result = gpgm_multistart(evaluator, z, goal, args.m,
                                  config=_gpgm_config(args), n_starts=args.starts)
    ram_energies = []
    for seed in range(args.seed, args.seed + args.seeds):
        schematic = ram_baseline(evaluator.system.n, args.m, seed=seed, epsilon=args.epsilon)
        ram_energies.append(select_state(evaluator.bundle(schematic.B), z, goal).energy)
    median_ram = float(np.median(ram_energies))

    with open(outdir / "compare.csv", "w") as fh:
        fh.write("method,seed,energy\n")
        fh.write(f"gpgm,{args.seed},{gpgm_result.energy:.17g}\n")
        for seed, energy in zip(range(args.seed, args.seed + args.seeds), ram_energies):
            fh.write(f"ram,{seed},{energy:.17g}\n")
    _write_json(outdir / "compare.json", {
        "gpgm_energy": gpgm_result.energy,
        "gpgm_iterations": gpgm_result.iterations,
        "gpgm_converged": gpgm_result.converged,
        "ram_energies": ram_energies,
        "ram_median": median_ram,
        "energy_ratio": gpgm_result.energy / median_ram if median_ram > 0 else None,
    })


def _write_error(outdir, exc):
    payload = {"error": type(exc).__name__, "message": str(exc)}
    for extra in ("min_eta", "last_valid_time", "line_number"):
        if hasattr(exc, extra):
            payload[extra] = getattr(exc, extra)
    with contextlib.suppress(OSError):
        outdir.mkdir(parents=True, exist_ok=True)
        _write_json(outdir / "error.json", payload)


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    # Config errors are reported in the command-line --out; a config may move it.
    outdir = Path(args.out)
    try:
        args = _apply_config_file(args, commands[args.command])
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        # Looked up per call, so the handler is the one the module holds now.
        globals()["_cmd_" + args.command.replace("-", "_")](args, outdir)
        _write_manifest(outdir, {k: v for k, v in vars(args).items() if k != "config"})
    except (FluxControlError, OSError, json.JSONDecodeError) as exc:
        _write_error(outdir, exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        # A bug, not a typed failure: mark the partial outputs, then re-raise
        # so the traceback still surfaces.
        _write_error(outdir, exc)
        raise
    return 0


if __name__ == "__main__":
    sys.exit(main())
