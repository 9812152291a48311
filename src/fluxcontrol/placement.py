"""Input-schematic optimization on the trace sphere.

Linear observer goals admit a closed-form optimum (every column on the top
eigenvector of the flux matrix). Quadratic goals are optimized by projected
gradient descent over the schematic: one state selection per candidate, whose
adjoint ``p`` gives the energy gradient ``-2 Phi(p) B`` in closed form (the
envelope theorem on ``E = p^T W(B) p``, with ``Phi`` the flux matrix),
tangent-space projection, a Barzilai-Borwein step, and renormalization onto
the sphere.
"""

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from ._util import as_columns, as_count, as_positive_real, as_vector
from .errors import (
    FluxControlError,
    InvalidInputError,
    PlacementAbortError,
)
from .gramian import GramianEvaluator, flux_matrix
from .linsys import LinearSystem
from .select import _bind, select_state

__all__ = [
    "GpgmConfig",
    "PlacementResult",
    "project_sphere",
    "place_mean_optimal",
    "gpgm",
    "gpgm_multistart",
    "ram_baseline",
    "pgme_driver_select",
]

# Step halvings allowed per iteration before declaring the step unusable.
_MAX_HALVINGS = 20


@dataclass(frozen=True)
class GpgmConfig:
    """Projected-gradient settings.

    Attributes:
        sigma: first step; later steps are Barzilai-Borwein.
        delta_star: stop once successive iterates align within this tolerance.
        epsilon: sphere offset; iterates live on tr(B^T B) = m + epsilon.
        max_iters: iteration cap.
        seed: seed of the random start ``ram_baseline(n, m, seed, epsilon)``.
    """

    sigma: float = 1e-2
    delta_star: float = 1e-6
    epsilon: float = 1e-6
    max_iters: int = 10_000
    seed: int = 0

    def __post_init__(self):
        for name in ("sigma", "delta_star", "epsilon"):
            as_positive_real(getattr(self, name), name)
        as_count(self.max_iters, "max_iters")
        as_count(self.seed, "seed", 0)


@dataclass(frozen=True)
class PlacementResult:
    """Optimized n x m schematic ``B_star`` with its energy and convergence
    record. ``B_star`` lies on the sphere tr(B^T B) = m + epsilon, with
    epsilon 0 for the closed form.

    ``energy_trace`` holds the energy of the start and of each accepted
    iterate; ``steps`` the step each accepted iterate took, after halvings.
    """

    B_star: np.ndarray
    energy: float
    iterations: int
    converged: bool
    energy_trace: np.ndarray = field(repr=False, default=None)
    steps: np.ndarray = field(repr=False, default_factory=lambda: np.zeros(0))


def project_sphere(B, epsilon: float = 0.0) -> np.ndarray:
    """Rescale a schematic matrix onto the sphere tr(B^T B) = m + epsilon."""
    b = as_columns(B)
    m = b.shape[1]
    e = np.asarray(epsilon)
    if e.shape or e.dtype.kind not in "iuf" or not -m < float(e) < np.inf:
        raise InvalidInputError(f"epsilon must be a finite real with m + epsilon > 0, "
                                f"got {epsilon!r} for m = {m}")
    tr = float(np.sum(b * b))
    if tr <= 0.0:
        raise InvalidInputError("cannot project the zero matrix onto the sphere")
    return b * np.sqrt((m + epsilon) / tr)


def _tangent(g: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Remove the component of a direction along B, the sphere's normal."""
    return g - B * (float(np.sum(g * B)) / float(np.sum(B * B)))


def place_mean_optimal(
    system: LinearSystem,
    v,
    t_star: float,
    m: int,
) -> PlacementResult:
    """Closed-form optimal schematic for a linear observer goal.

    Every column is the unit top eigenvector of the flux matrix of ``v``, so
    ``v^T W v`` equals ``m`` times the top flux eigenvalue ``lambda``. The
    reported energy is the per-unit-gap ``1/(m lambda)``; the energy for a
    goal ``v^T x >= c`` is ``select_state`` on this schematic, which is the
    squared gap times that, or 0 when the goal already holds.
    """
    m = as_count(m, "m")
    fm = flux_matrix(system, v, t_star)
    energy = 1.0 / (m * fm.lam_max)
    return PlacementResult(
        B_star=np.tile(fm.top_vector[:, None], (1, m)),
        energy=energy,
        iterations=0,
        converged=True,
        energy_trace=np.array([energy]),
    )


def gpgm(
    evaluator: GramianEvaluator,
    z,
    goal,
    m: int,
    config: GpgmConfig | None = None,
    B_init=None,
) -> PlacementResult:
    """Projected gradient descent over the schematic for a moment goal.

    ``evaluator`` fixes the system and horizon, and ``z`` is the run's
    autonomous endpoint ``exp(t* A) x0``. Per iteration: the energy gradient
    ``-2 Phi(p) B`` from the current selection's adjoint, tangent projection,
    step, renormalization onto the sphere, and backtracking halvings when the
    candidate raises the energy or its state selection is infeasible. The
    first step is ``config.sigma``; later ones are the Barzilai-Borwein step
    ``<s, s> / |<s, y>|`` (Barzilai & Borwein 1988, in the Riemannian form of
    Iannazzo & Porcelli 2018), with ``s`` the last accepted displacement and
    ``y`` the change of the tangent gradient across it. Acceptance stays
    monotone. Stops when successive iterates align within ``delta_star`` or
    no usable step remains; returns the best iterate.
    """
    m = as_count(m, "m")
    cfg = config if config is not None else GpgmConfig()
    n = evaluator.system.n
    z = as_vector(z, n=n, name="z")

    if B_init is None:
        b = ram_baseline(n, m, cfg.seed, cfg.epsilon)
    else:
        b = as_columns(B_init, n, name="B_init")
        if b.shape[1] != m:
            raise InvalidInputError(f"B_init has {b.shape[1]} columns, expected m = {m}")
        b = project_sphere(b, epsilon=cfg.epsilon)

    def result(best_b, best_e, iters, converged, trace, steps=()):
        return PlacementResult(
            B_star=project_sphere(best_b, epsilon=cfg.epsilon),
            energy=best_e,
            iterations=iters,
            converged=converged,
            energy_trace=np.asarray(trace),
            steps=np.asarray(steps, dtype=float),
        )

    # The binding test and the goal's set-up depend on z alone: once per descent.
    bound = _bind(goal, z)
    if bound.solve is None:
        return result(b, 0.0, 0, True, [0.0])

    def select(B: np.ndarray):
        return select_state(evaluator.bundle(B), z, bound)

    try:
        sel = select(b)
    except FluxControlError as exc:
        raise PlacementAbortError(
            f"state selection infeasible at the initial schematic: {exc}"
        ) from exc

    trace, steps = [sel.energy], []
    best_e, best_b = sel.energy, b.copy()
    iters = 0
    converged = False
    prev = None  # the last accepted iterate's (B, tangent gradient)
    for k in range(cfg.max_iters):
        iters = k + 1
        direction = _tangent(-2.0 * evaluator.flux(sel.p) @ b, b)
        sigma = cfg.sigma
        if prev is not None:
            s, y = b - prev[0], direction - prev[1]
            sy = abs(float(np.sum(s * y)))
            if sy > 0.0:
                sigma = float(np.sum(s * s)) / sy
        accepted = False
        infeasible = 0
        for _ in range(_MAX_HALVINGS + 1):
            try:
                # A non-finite candidate fails project_sphere's check: an infeasible step.
                cand = project_sphere(b - sigma * direction, epsilon=cfg.epsilon)
                cand_sel = select(cand)
            except FluxControlError:
                infeasible += 1
                sigma *= 0.5
                continue
            if cand_sel.energy <= sel.energy * (1.0 + 1e-12) + 1e-15:
                accepted = True
                break
            sigma *= 0.5
        if not accepted:
            if infeasible >= _MAX_HALVINGS + 1:
                raise PlacementAbortError(
                    "every halved step produced an infeasible state selection",
                    partial_result=result(best_b, best_e, iters, False, trace, steps),
                )
            converged = True
            break
        delta = float(np.sum(b * cand)) / (m + cfg.epsilon)
        prev = (b, direction)
        b, sel = cand, cand_sel
        trace.append(sel.energy)
        steps.append(sigma)
        if sel.energy < best_e:
            best_e, best_b = sel.energy, b.copy()
        if 1.0 - delta < cfg.delta_star:
            converged = True
            break
    return result(best_b, best_e, iters, converged, trace, steps)


def gpgm_multistart(
    evaluator: GramianEvaluator,
    z,
    goal,
    m: int,
    config: GpgmConfig | None = None,
    n_starts: int = 5,
) -> PlacementResult:
    """Best of ``n_starts`` seeded ``gpgm`` descents on one evaluator and
    endpoint ``z``; the energy landscape is non-convex. Start ``i`` uses seed
    ``config.seed + i``."""
    as_count(n_starts, "n_starts")
    cfg = config if config is not None else GpgmConfig()
    best = None
    first_error = None
    for i in range(n_starts):
        try:
            res = gpgm(evaluator, z, goal, m, config=replace(cfg, seed=cfg.seed + i))
        except PlacementAbortError as exc:
            if first_error is None:
                first_error = exc
            continue
        if best is None or res.energy < best.energy:
            best = res
    if best is None:
        raise first_error
    if first_error is not None:
        warnings.warn(f"some starts aborted: {first_error}", stacklevel=2)
    return best


def ram_baseline(n: int, m: int, seed: int, epsilon: float = 1e-6) -> np.ndarray:
    """Uniform random n x m schematic renormalized onto the shrunken sphere."""
    shape = as_count(n, "n"), as_count(m, "m")
    b = np.random.default_rng(as_count(seed, "seed", 0)).random(shape)
    return project_sphere(b, epsilon=epsilon)


def pgme_driver_select(B, k: int):
    """Convert a dense n x m schematic into a driver-node set of size ``k``.

    Walks the first ``k`` columns, taking per column the largest-magnitude row
    not yet chosen (ties to the lowest index). Returns the 0-based node
    indices in column order and the matching n x k canonical-basis schematic.
    """
    b = as_columns(B)
    n, m = b.shape
    if as_count(k, "k") > min(n, m):
        raise InvalidInputError(f"k must be at most m = {m} and n = {n}, got {k}")
    chosen: list[int] = []
    taken = np.zeros(n, dtype=bool)
    for j in range(k):
        weights = np.abs(b[:, j]).copy()
        weights[taken] = -np.inf
        row = int(np.argmax(weights))
        chosen.append(row)
        taken[row] = True
    binary = np.zeros((n, k))
    for j, row in enumerate(chosen):
        binary[row, j] = 1.0
    return chosen, binary
