"""Minimum-energy terminal-state selection under moment goals.

Given the autonomous endpoint ``z`` and a Gramian ``W``, each solver picks the
state satisfying its goal at the least value of the energy quadratic form
``(z - x)^T W^{-1} (z - x)``. Linear goals have a closed form. Every quadratic
goal ``||O x - d||^2 = eta`` (variance: ``O = D``, ``d = 0``; repulsion:
``O = I``, ``d = z``; general QCLS) goes through one solver: a single
eigendecomposition of ``O W O^T`` turns the constraint into a diagonal secular
equation in the Lagrange multiplier, solved by safeguarded Newton at O(n) per
step. When no root exists below the pole (the hard case), the residual is
completed along the pole eigenvector. Each selection carries the adjoint
vector ``p`` with ``x* = z + W p`` and energy ``p^T W p``, so ``W`` is never
inverted and every goal runs on singular Gramians (networks steered from a
few inputs). A contract goal cannot move the residual along the eigenvalues
of ``O W O^T`` at or below ``sqrt(eps)`` times the largest; below that
reachable floor it raises ``InfeasibleGoalError`` with ``min_eta``.
"""

from dataclasses import dataclass

import numpy as np

from ._util import as_matrix, as_vector, canonical_sign, centering_matrix
from .errors import GoalUncontrollableError, InfeasibleGoalError, InvalidInputError
from .gramian import GramianBundle

__all__ = [
    "LinearGoal",
    "RepulsionGoal",
    "VarianceGoal",
    "mean_goal",
    "StateSelection",
    "binding_check",
    "select_state",
    "select_mean_state",
    "select_repulsion_state",
    "solve_qcls",
    "select_variance_state",
    "variance_energy_bound",
    "repulsion_min_threshold",
    "single_input_scales",
]

# Relative eigenvalue gap below which leading eigenvalues count as tied.
_DEGENERACY_RTOL = 1e-10
# Eigenvalues of O W O^T at or below this fraction of the largest form the
# contract goal's theta = 0 block: roundoff of order eps theta_max in W is more
# than sqrt(eps) of each of them, and the contract adjoint grows like
# c_i / theta_i.
_NULL_RTOL = float(np.sqrt(np.finfo(float).eps))


def _threshold(eta) -> float:
    """A quadratic goal's threshold ``eta`` as a float; it must be finite and nonnegative."""
    eta = float(eta)
    if not 0.0 <= eta < np.inf:
        raise InvalidInputError("eta must be finite and nonnegative")
    return eta


@dataclass(frozen=True)
class LinearGoal:
    """Require the observer value ``v^T x`` to reach at least ``c``."""

    v: np.ndarray
    c: float

    def __post_init__(self):
        v = as_vector(self.v, name="v")
        if np.linalg.norm(v) == 0.0:
            raise InvalidInputError("linear goal weighting must be nonzero")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "c", float(self.c))
        if not np.isfinite(self.c):
            raise InvalidInputError("linear goal threshold c must be finite")


@dataclass(frozen=True)
class RepulsionGoal:
    """Pin the ellipsoid statistic ``||O x - d||^2`` to ``eta``.

    ``sense`` is "expand" when the autonomous endpoint starts inside the
    ellipsoid (push away), "contract" when it starts outside (pull closer).
    ``O=None`` means the identity.
    """

    d: np.ndarray
    eta: float
    O: np.ndarray | None = None
    sense: str = "expand"

    def __post_init__(self):
        d = as_vector(self.d, name="d")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "eta", _threshold(self.eta))
        if self.sense not in ("expand", "contract"):
            raise InvalidInputError("sense must be 'expand' or 'contract'")
        if self.O is not None:
            n = d.shape[0]
            object.__setattr__(self, "O", as_matrix(self.O, shape=(n, n), name="O"))


@dataclass(frozen=True)
class VarianceGoal:
    """Require the unnormalized sample variance of the state to reach ``eta``."""

    eta: float

    def __post_init__(self):
        object.__setattr__(self, "eta", _threshold(self.eta))


def mean_goal(n: int, eta: float) -> LinearGoal:
    """Average-state goal: mean of the n node states at least ``eta``."""
    return LinearGoal(np.ones(n), n * float(eta))


@dataclass(frozen=True)
class StateSelection:
    """Solver output: optimal state, shadow price, energy, bindingness, adjoint.

    The adjoint vector ``p`` gives ``x_star = z + W p`` and ``energy = p^T W p``.
    """

    x_star: np.ndarray
    multiplier: float
    energy: float
    binding: bool
    p: np.ndarray


def binding_check(goal, z) -> bool:
    """True iff the autonomous endpoint violates the goal, so control is needed."""
    z = as_vector(z, name="z")
    if isinstance(goal, LinearGoal):
        return float(goal.v @ z) < goal.c
    if isinstance(goal, RepulsionGoal):
        r = (goal.O @ z if goal.O is not None else z) - as_vector(goal.d, n=z.size, name="d")
        val = float(r @ r)
        return val < goal.eta if goal.sense == "expand" else val > goal.eta
    if isinstance(goal, VarianceGoal):
        dz = z - z.mean()
        return float(dz @ dz) < goal.eta
    raise InvalidInputError(f"unknown goal type {type(goal).__name__}")


def _require_movable(W: GramianBundle, stat: float, message: str, scale: float = 1.0) -> None:
    """Raise ``GoalUncontrollableError`` when ``stat <= 1e-12 scale lam_max(W)``.

    ``lam_max <= tr(W)`` for PSD ``W``, so a statistic above the bound with
    ``2 tr(W)`` in its place (the 2 absorbs roundoff in both) passes without
    computing W's eigenvalues.
    """
    floor = 1e-12 * scale
    tiny = np.finfo(float).tiny
    if stat > floor * max(2.0 * float(np.trace(W.W)), tiny):
        return
    if stat <= floor * max(W.lam_max, tiny):
        raise GoalUncontrollableError(message)


def _corner(z: np.ndarray) -> StateSelection:
    return StateSelection(
        x_star=z.copy(), multiplier=0.0, energy=0.0, binding=False, p=np.zeros_like(z)
    )


def select_mean_state(W: GramianBundle, z, goal: LinearGoal) -> StateSelection:
    """Closed-form optimal state for a linear observer goal.

    The optimum displaces the autonomous endpoint along ``W v`` by the
    constraint gap over ``v^T W v``; valid whenever that scalar is positive,
    even for singular Gramians.
    """
    z = as_vector(z, n=W.n, name="z")
    if not binding_check(goal, z):
        return _corner(z)
    v = goal.v
    kap = float(v @ W.W @ v)
    _require_movable(
        W, kap, "observer v^T x cannot be moved by this schematic (v^T W v is zero)",
        scale=float(v @ v),
    )
    alpha = float(v @ z) - goal.c
    p = -(alpha / kap) * v
    return StateSelection(
        x_star=z + W.W @ p,
        multiplier=2.0 * alpha / kap,
        energy=alpha * alpha / kap,
        binding=True,
        p=p,
    )


def _pick_leading_eigvec(u, top, ref) -> int:
    """Pick one of the columns ``top`` of ``u``, eigenvectors tied at the top eigenvalue.

    Prefer the one with the largest |inner product with ref|; remaining ties
    go to the candidate whose largest-magnitude entry sits at the lowest index,
    then to the earliest in ``top``.
    """
    scores = np.abs(u[:, top].T @ ref)
    best = scores.max()
    cands = [i for i, s in zip(top, scores) if s >= best - 1e-12 * (1.0 + best)]
    return min(cands, key=lambda i: int(np.argmax(np.abs(u[:, i]))))


def _solve_secular(eval_fn, lo, hi, target, lam_tol=1e-10, max_iter=200):
    """Smallest-bracket root of a monotone increasing secular function.

    ``eval_fn`` returns (value, derivative); the caller guarantees
    f(lo) <= target <= f(hi). Newton iterations are safeguarded by bisection
    with the bracket shrinking by at least half on stalls.
    """
    lam = 0.5 * (lo + hi)
    for _ in range(max_iter):
        f, fp = eval_fn(lam)
        if abs(f - target) <= 1e-12 * (1.0 + abs(target)):
            return lam
        if f < target:
            lo = lam
        else:
            hi = lam
        if hi - lo <= lam_tol * max(1.0, abs(hi)):
            return 0.5 * (lo + hi)
        step = (f - target) / fp if fp > 0.0 else np.inf
        lam = lam - step if lo < lam - step < hi else 0.5 * (lo + hi)
    return lam


def _solve_quadratic(W: GramianBundle, z, O, d, eta: float, sense: str) -> StateSelection:
    """Minimize ``(x - z)^T W^{-1} (x - z)`` subject to ``||O x - d||^2 = eta``.

    Stationarity gives ``x = z + W p`` with the adjoint ``p = lam O^T r`` and
    residual ``r = O x - d``. In the eigenbasis ``O W O^T = U diag(theta) U^T``
    with ``c = U^T (O z - d)`` the residual is ``c_i / (1 - lam theta_i)``, so
    the constraint is the diagonal secular equation
    ``sum_i c_i^2 / (1 - lam theta_i)^2 = eta`` and the energy is
    ``lam^2 sum_i theta_i r_i^2 = p^T W p``. Expand takes the root in
    ``[0, 1/theta_max)``; when none exists (``c`` misses the pole eigenspace)
    the residual is completed along the pole eigenvector at
    ``lam = 1/theta_max``. Contract takes the root below zero, down to the
    ``lam -> -inf`` limit ``lam r_i -> -c_i / theta_i`` that attains the
    reachable minimum ``sum_{theta_i = 0} c_i^2``; every
    ``theta_i <= _NULL_RTOL theta_max`` counts as zero there, and its residual
    stays ``c_i``. ``W`` is never inverted, so it may be singular. ``O=None``
    is the identity, and no product with it is formed.
    """
    r0 = (z if O is None else O @ z) - d
    f0 = float(r0 @ r0)
    binding = f0 < eta if sense == "expand" else f0 > eta
    if not binding:
        return _corner(z)

    if O is None:
        theta, u = np.linalg.eigh(W.W)
    else:
        owo = O @ W.W @ O.T
        theta, u = np.linalg.eigh(0.5 * (owo + owo.T))
    c = u.T @ r0
    theta_max = float(theta[-1])
    _require_movable(W, theta_max, "O W O^T is zero; the goal statistic cannot be moved")
    if sense == "contract":
        keep = theta > _NULL_RTOL * theta_max
        eta_min = float(c[~keep] @ c[~keep])
        if eta < eta_min - 1e-12 * (1.0 + eta_min):
            raise InfeasibleGoalError(
                f"contract goal eta={eta} below the reachable minimum {eta_min}",
                min_eta=eta_min,
            )
        # The theta = 0 block keeps its residual; the rest must reach eta - eta_min.
        u, theta, c, eta = u[:, keep], theta[keep], c[keep], max(eta - eta_min, 0.0)

    # Work in mu = lam * theta_max, so the pole sits at mu = 1 whatever W's scale.
    th = theta / theta_max

    def secular(mu: float):
        s = 1.0 / (1.0 - mu * th)
        g = c * c * s * s
        return float(g.sum()), 2.0 * float((g * th * s).sum())

    if sense == "contract":
        if eta == 0.0:
            # Exact attainment: the multiplier diverges, so take the limit.
            return _adjoint_selection(W, z, O, u, theta, -np.inf, -c / theta)
        # f(mu) <= sum (c_i / (mu th_i))^2 brackets the root from below.
        spread = float(np.sum((c / th) ** 2))
        mu = _solve_secular(secular, -np.sqrt(spread / eta), 0.0, eta)
    else:
        hi = 1.0 - 1e-9
        if secular(hi)[0] >= eta:
            mu = _solve_secular(secular, 0.0, hi, eta)
        else:
            # Hard case: c has no weight on the pole eigenspace, and the rest
            # of the residual falls short of eta even at the pole.
            pole = th >= 1.0 - _DEGENERACY_RTOL
            r = np.where(pole, 0.0, c / np.where(pole, 1.0, 1.0 - th))
            k = _pick_leading_eigvec(u, np.flatnonzero(pole)[::-1], z)
            # Either sign costs the same; orient the pole displacement W O^T u_k.
            w = W.W @ (u[:, k] if O is None else O.T @ u[:, k])
            sign = 1.0 if float(canonical_sign(w, ref=z) @ w) > 0.0 else -1.0
            r[k] = sign * np.sqrt(max(eta - float(r @ r), 0.0))
            return _adjoint_selection(W, z, O, u, theta, 1.0 / theta_max, r / theta_max)
    lam = mu / theta_max
    return _adjoint_selection(W, z, O, u, theta, lam, lam * c / (1.0 - mu * th))


def _adjoint_selection(W, z, O, u, theta, lam, lam_r) -> StateSelection:
    """Selection from the eigenbasis coordinates of ``lam r``: ``p = O^T U lam_r``."""
    p = u @ lam_r
    if O is not None:
        p = O.T @ p
    energy = float(theta @ (lam_r * lam_r))
    return StateSelection(
        x_star=z + W.W @ p, multiplier=lam, energy=max(energy, 0.0), binding=True, p=p
    )


def select_repulsion_state(W: GramianBundle, z, eta: float) -> StateSelection:
    """Push the endpoint a squared distance ``eta`` away from its autonomous value.

    The quadratic goal with ``O = I`` and ``d = z``: ``c = 0``, so the
    displacement is the leading eigenvector of the Gramian scaled to squared
    length ``eta``, and the energy is ``eta`` over the top eigenvalue. Only
    that eigenvector must be reachable, so a singular Gramian is fine.
    """
    return solve_qcls(W, z, None, z, eta)


def solve_qcls(W: GramianBundle, z, O, d, eta: float, sense: str = "expand") -> StateSelection:
    """Least squares in the energy metric with a quadratic equality constraint.

    Finds the multiplier closest to zero that satisfies ``||O x - d||^2 = eta``
    (smallest nonnegative root for the expand sense, largest nonpositive for
    contract); see ``_solve_quadratic``. ``O=None`` means the identity.
    """
    z = as_vector(z, n=W.n, name="z")
    n = W.n
    if O is not None:
        O = as_matrix(O, shape=(n, n), name="O")
    d = as_vector(d, n=n, name="d")
    eta = _threshold(eta)
    if sense not in ("expand", "contract"):
        raise InvalidInputError("sense must be 'expand' or 'contract'")
    return _solve_quadratic(W, z, O, d, eta, sense)


def select_variance_state(W: GramianBundle, z, eta: float) -> StateSelection:
    """Drive the sample variance of the state up to ``eta`` at minimum energy.

    The quadratic goal with the centering projector ``O = D`` and ``d = 0``.
    It needs no inverse of ``W``, so singular Gramians are fine as long as
    some mean-zero direction is controllable.
    """
    n = W.n
    if n < 2:
        raise InvalidInputError("variance is undefined for a single node")
    z = as_vector(z, n=n, name="z")
    eta = _threshold(eta)
    return _solve_quadratic(W, z, centering_matrix(n), np.zeros(n), eta, "expand")


def variance_energy_bound(W: GramianBundle, z, eta: float) -> float:
    """Closed-form cap on the variance-goal energy.

    Squared sum of the current deviation norm and the target's square root,
    scaled by the smallest positive generalized eigenvalue of the inverse
    Gramian against the centering projector.
    """
    n = W.n
    if n < 2:
        raise InvalidInputError("variance is undefined for a single node")
    z = as_vector(z, n=n, name="z")
    eta = _threshold(eta)
    d_mat = centering_matrix(n)
    theta_max = float(np.linalg.eigvalsh(d_mat @ W.W @ d_mat)[-1])
    _require_movable(
        W, theta_max, "no mean-zero direction is controllable; variance cannot be raised"
    )
    dz = z - z.mean()
    return (np.linalg.norm(dz) + np.sqrt(eta)) ** 2 / theta_max


def repulsion_min_threshold(d) -> float:
    """Threshold above which one controller suffices for the repulsion statistic.

    Squared 2-norm of the target minus its squared infinity norm.
    """
    v = as_vector(d, name="d")
    if v.size == 0:
        return 0.0
    return float(v @ v) - float(np.max(np.abs(v)) ** 2)


def single_input_scales(b, d, eta: float):
    """Scales along a single input column reaching ``||x - d||^2 = eta``.

    For states restricted to multiples of ``b``, the constraint is a quadratic
    in the scale; returns its real roots, or None when the discriminant is
    negative (that construction cannot reach the threshold).
    """
    b = as_vector(b, name="b")
    d = as_vector(d, n=b.shape[0], name="d")
    eta = _threshold(eta)
    c = float(b @ b)
    if c <= 0.0:
        raise InvalidInputError("input column must be nonzero")
    beta = float(b @ d)
    disc = beta * beta - c * float(d @ d) + c * eta
    # Boundary cases cancel to zero in exact arithmetic; keep them feasible.
    scale = max(beta * beta, c * float(d @ d), c * eta, 1.0)
    if disc < -1e-12 * scale:
        return None
    sq = np.sqrt(max(disc, 0.0))
    return ((beta - sq) / c, (beta + sq) / c)


def select_state(W: GramianBundle, z, goal) -> StateSelection:
    """Dispatch a moment goal to its solver."""
    if isinstance(goal, LinearGoal):
        return select_mean_state(W, z, goal)
    if isinstance(goal, VarianceGoal):
        return select_variance_state(W, z, goal.eta)
    if isinstance(goal, RepulsionGoal):
        return solve_qcls(W, z, goal.O, goal.d, goal.eta, sense=goal.sense)
    raise InvalidInputError(f"unknown goal type {type(goal).__name__}")
