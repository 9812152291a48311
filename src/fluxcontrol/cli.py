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
from ._util import as_columns, as_count, as_positive_real, as_vector
from .centrality import centrality_histogram, flux_sweep
from .errors import FluxControlError, InvalidInputError, SimulationAccuracyError
from .gramian import GramianEvaluator
from .graphio import load_dense_matrix, parse_edge_list, write_matrix_csv
from .linsys import LinearSystem
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
from .trajectory import simulate

_MODES = ("raw-matrix", "adjacency", "laplacian")
_GOALS = ("mean", "repulsion", "variance")
_METHODS = ("flux", "gpgm", "ram")
# simulate fails when its endpoint misses the closed form by more than this,
# relative to 1 + ||x* - z|| + max_t ||x(t)||.
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


# The last run's system. A run whose input builds a system of the same bits
# takes it instead, with what the Gramian engine memoized on it. It stays
# held after ``main`` returns (six n x n arrays after a steered run), until a
# run on another network replaces it.
_held_system = None


def _build_system(args):
    """The system of ``--input`` and ``--mode``, parsed every run; the held
    system if it has the same bits (``LinearSystem.same_bits``)."""
    global _held_system
    if not args.input:
        raise InvalidInputError("--input is required for this command")
    if args.mode == "raw-matrix":
        system = LinearSystem(load_dense_matrix(args.input))
    else:
        edges = parse_edge_list(args.input, undirected=args.undirected)
        system = LinearSystem.from_edges(*edges, laplacian=args.mode == "laplacian")
    if _held_system is not None and _held_system.same_bits(system):
        return _held_system
    _held_system = system
    return system


def _build_schematic(args, system):
    if getattr(args, "b", None):
        return as_columns(load_dense_matrix(args.b), system.n)
    return np.eye(system.n)


def _horizon(args):
    """The one horizon of a subcommand that takes a single ``--t-star``."""
    if len(args.t_star) != 1:
        raise InvalidInputError(f"--t-star needs exactly one horizon, got {len(args.t_star)}")
    return as_positive_real(args.t_star[0], "t_star")


def _build_goal(args, n):
    if args.goal != "repulsion" and (args.d is not None or args.sense == "contract"):
        raise InvalidInputError("--d and --sense contract apply only to --goal repulsion")
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
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    with open(path, "w") as fh:
        fh.write(text + "\n")


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


def _setup(args, gramian=True):
    """Goal, x0, the system and the run's one Gramian evaluator (None unless
    ``gramian``). Callers take ``z = exp(t* A) x0`` from
    ``evaluator.propagate(x0)``: ``_select`` after its Gramian, whose doubling
    ladder leaves ``exp(t* A)`` behind, but ``_place --method gpgm`` and
    ``compare`` before any, which on nonsymmetric A costs one more ``expm``.

    The evaluator is new every run, but the system is the last run's when its
    bits are equal (``_build_system``), and it memoizes the evaluator's
    kernels: a run that repeats the last one's Gramian work on one network,
    say from another ``--x0``, reads it back, and writes the same bytes as a
    run in a fresh process."""
    system = _build_system(args)
    goal = _build_goal(args, system.n)
    x0, t_star = _build_x0(args, system.n), _horizon(args)
    return goal, x0, system, GramianEvaluator(system, t_star) if gramian else None


def _select(evaluator, B, x0, goal, steps=None):
    """The goal's selection on ``W(B)``, after the step map of a run of ``steps`` steps."""
    if steps:
        evaluator.step(B, steps)
    return select_state(evaluator.bundle(B), evaluator.propagate(x0), goal)


def _place(args, goal, x0, system, evaluator, steps=None):
    """The schematic for ``--method`` (``--b`` when none is given), its
    placement payload and the goal's selection on it where one was made. Flux
    and ram report that selection's energy; with no goal, flux reports
    ``1/(m lambda)`` and ram none, and neither reads ``evaluator``."""
    method = getattr(args, "method", None)
    if method is None:
        return _build_schematic(args, system), None, None
    if method == "gpgm":
        if goal is None:
            raise InvalidInputError("gpgm placement needs --goal")
        result = gpgm_multistart(evaluator, evaluator.propagate(x0), goal, args.m,
                                 config=_gpgm_config(args), n_starts=args.starts)
    elif method == "flux":
        result = place_mean_optimal(system, np.ones(system.n), _horizon(args), args.m)
    else:
        B = ram_baseline(system.n, args.m, seed=args.seed, epsilon=args.epsilon)
        result = PlacementResult(B_star=B, energy=None, iterations=0,
                                 converged=True, energy_trace=np.array([]))
    selection = None
    if method != "gpgm" and goal is not None:
        selection = _select(evaluator, result.B_star, x0, goal, steps)
        result = replace(result, energy=selection.energy,
                         energy_trace=np.array([selection.energy]))
    return result.B_star, {
        "B": result.B_star,
        "energy": result.energy,
        "iterations": result.iterations,
        "converged": result.converged,
        "trace": result.energy_trace,
        "steps": result.steps,
    }, selection


def _cmd_gramian(args, outdir):
    system = _build_system(args)
    B = _build_schematic(args, system)
    bundle = GramianEvaluator(system, _horizon(args)).bundle(B)
    write_matrix_csv(outdir / "W.csv", bundle.W)
    _write_json(outdir / "gramian.json", {
        "t_star": bundle.t_star,
        "kappa": bundle.kappa,
        "lam_max": bundle.lam_max,
        "lam_min": bundle.lam_min,
        "n": bundle.n,
        "m": B.shape[1],
    })


def _cmd_flux(args, outdir):
    profile = flux_sweep(_build_system(args), sorted(args.t_star))
    profile.write_csv(outdir / "flux.csv")
    if args.hist:
        for idx, t in enumerate(profile.horizons):
            counts, edges = centrality_histogram(profile.phi[idx])
            write_matrix_csv(outdir / f"flux_hist_{idx}.csv",
                             np.column_stack([edges[:-1], edges[1:], counts]),
                             header=f"bin_lo,bin_hi,count (t_star={t:g})")


def _cmd_select_state(args, outdir):
    goal, x0, system, evaluator = _setup(args)
    if goal is None:
        raise InvalidInputError("select-state needs --goal")
    selection = _select(evaluator, _build_schematic(args, system), x0, goal)
    _write_json(outdir / "selection.json", _selection_payload(selection))


def _cmd_place(args, outdir):
    # Goal-less flux and ram placement read no Gramian: no evaluator, whose
    # set-up takes eigh of the dense A.
    goal, x0, system, evaluator = _setup(args, args.method == "gpgm" or bool(args.goal))
    B, payload, _ = _place(args, goal, x0, system, evaluator)
    write_matrix_csv(outdir / "B.csv", B)
    _write_json(outdir / "placement.json", payload)


def _norm(x, axis=None):
    """``np.linalg.norm(x, axis=axis)``, finite on finite ``x``: where the sum
    of squares overflows (entries past about 1e154) it is taken over ``x``
    divided by its largest magnitude, and scaled back."""
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(x, axis=axis)
    if np.all(np.isfinite(norm)):
        return norm
    scale = float(np.max(np.abs(x)))
    return scale * np.linalg.norm(x / scale, axis=axis)


def _cmd_simulate(args, outdir):
    as_count(args.steps, "steps", 2)
    goal, x0, system, evaluator = _setup(args)
    B, _, selection = _place(args, goal, x0, system, evaluator, args.steps)
    if goal is not None and selection is None:
        selection = _select(evaluator, B, x0, goal, args.steps)
    # Taken before the run, so an autonomous endpoint that overflows fails typed here.
    z = evaluator.propagate(x0)
    target, p = (z, None) if selection is None else (selection.x_star, selection.p)
    traj = simulate(evaluator, B, x0, args.steps, p)
    summary = {"t_star": evaluator.t_star, "steps": args.steps, "m": B.shape[1],
               "autonomous": selection is None}
    if selection is not None:
        summary.update({
            "selection": _selection_payload(selection),
            "endpoint": traj.endpoint,
            "energy_simulated": traj.total_energy,
            "energy_closed_form": selection.energy,
        })
    # x* = z + W p, with W the sum of the run's steps on nonsymmetric A and the
    # eigenbasis closed form on symmetric A; the largest state norm puts the
    # roundoff of large states in the scale.
    error = float(_norm(traj.endpoint - target))
    peak = float(_norm(traj.states, axis=1).max())
    relative = error / (1.0 + float(_norm(target - z)) + peak)
    if not relative <= _ENDPOINT_RTOL:
        raise SimulationAccuracyError(
            f"simulated endpoint misses the closed form by {relative:.3g} relative to "
            f"1 + ||x* - z|| + max ||x(t)|| (tolerance {_ENDPOINT_RTOL:g})"
        )
    summary.update({"endpoint_error": error, "endpoint_error_rel": relative})
    traj.write_csv(outdir / "trajectory.csv")
    _write_json(outdir / "simulate.json", summary)


def _cmd_compare(args, outdir):
    goal, x0, system, evaluator = _setup(args)
    if goal is None:
        raise InvalidInputError("compare needs --goal")
    if args.seeds < 1:
        raise InvalidInputError("compare needs --seeds of at least 1")

    z = evaluator.propagate(x0)
    gpgm_result = gpgm_multistart(evaluator, z, goal, args.m,
                                  config=_gpgm_config(args), n_starts=args.starts)
    ram_energies = []
    for seed in range(args.seed, args.seed + args.seeds):
        B = ram_baseline(system.n, args.m, seed=seed, epsilon=args.epsilon)
        ram_energies.append(select_state(evaluator.bundle(B), z, goal).energy)
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
