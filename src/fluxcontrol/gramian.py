"""Reachability Gramians and flux matrices over a finite horizon.

The Gramian ``W = int_0^T exp(tA) B B^T exp(tA^T) dt`` weights the
minimum-energy quadratic form; the flux matrix is the same integral for the
transposed dynamics with a rank-one weighting ``v v^T`` and its top
eigenvector is the optimal single-input placement for the observer ``v^T x``.
Off the eigenbasis the Gramian comes from one ``expm`` of a short base step,
a truncated Taylor series of the integral over that step, as short as its
tail bound at that step allows, and horizon doubling; a thick input matrix
takes the base step that needs the fewest n x n products. The flux matrix
runs that same engine on a k x k Arnoldi projection of its one trajectory
exp(tA^T) v, with k fixed by an a-priori error bound, and takes its top
eigenpair from the k x k Gramian. The Krylov space does not depend on the
horizon, so a system keeps the last weighting's space and every horizon reads
as many of its steps as its own bound asks; the n x n flux matrix is formed
when read.
"""

import math
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import expm, hilbert
from scipy.linalg.blas import dnrm2

from ._util import as_vector, canonical_sign
from .errors import InvalidInputError
from .linsys import InputSchematic, LinearSystem

__all__ = [
    "GramianBundle",
    "FluxMatrix",
    "GramianEvaluator",
    "reachability_gramian",
    "flux_matrix",
    "kappa",
]


@dataclass(frozen=True)
class GramianBundle:
    """A finite-horizon Gramian whose derived data is computed on first read.

    ``from_matrix`` validates a Gramian from outside (finite, symmetric, PSD)
    and keeps the eigenvalues its check computed. ``GramianEvaluator.bundle``
    builds the bundle directly on symmetric dynamics, where W is symmetric by
    construction and PSD by the Schur product theorem.

    Attributes:
        W: symmetric positive semidefinite n x n matrix.
        t_star: horizon the integral was taken over.
    """

    W: np.ndarray
    t_star: float

    @classmethod
    def from_matrix(cls, W, t_star: float) -> "GramianBundle":
        """Validate and symmetrize a computed Gramian and take its eigenvalues."""
        W = np.asarray(W, dtype=float)
        if not np.all(np.isfinite(W)):
            raise InvalidInputError("gramian has non-finite entries")
        scale = max(float(np.abs(W).max()), np.finfo(float).tiny)
        if np.linalg.norm(W - W.T) > 1e-10 * np.linalg.norm(W) + 1e-300:
            raise InvalidInputError("gramian is not symmetric within tolerance")
        W = 0.5 * (W + W.T)
        vals = np.linalg.eigvalsh(W)
        if vals[0] < -1e-10 * max(vals[-1], 0.0) - 1e-300 * scale:
            raise InvalidInputError("gramian is not positive semidefinite")
        bundle = cls(W=W, t_star=float(t_star))
        # Seed the cached property with the eigenvalues the check just took.
        bundle.__dict__["eigenvalues"] = vals[::-1]
        return bundle

    @cached_property
    def kappa(self) -> float:
        """Quadratic form 1^T W 1 of the all-ones weighting; the module
        function ``kappa`` serves any other weighting."""
        ones = np.ones(self.n)
        return max(float(ones @ self.W @ ones), 0.0)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of W sorted descending."""
        return np.linalg.eigvalsh(self.W)[::-1]

    @property
    def n(self) -> int:
        return self.W.shape[0]

    @property
    def lam_max(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lam_min(self) -> float:
        return float(self.eigenvalues[-1])


@dataclass(frozen=True)
class FluxMatrix:
    """Integrated outer product of the propagated observer weighting.

    ``Phi = int_0^T exp(tA^T) v v^T exp(tA) dt``; symmetric PSD with a strictly
    positive top eigenvalue whenever v is nonzero. ``top_pair`` holds it and its
    unit eigenvector, from ``eigh`` of the Krylov Gramian, with
    ``canonical_sign``'s sign. The n x n ``Phi = basis^T core basis`` is formed
    on first read from the k orthonormal rows ``basis`` of the Krylov space
    and the k x k ``core = ||v||^2 G``.
    """

    v: np.ndarray
    t_star: float
    top_pair: tuple[float, np.ndarray]
    basis: np.ndarray
    core: np.ndarray

    @cached_property
    def Phi(self) -> np.ndarray:
        with np.errstate(all="ignore"):
            phi = self.basis.T @ self.core @ self.basis
            return _finite(0.5 * (phi + phi.T), "flux matrix")

    @property
    def n(self) -> int:
        return self.v.shape[0]

    @property
    def lam_max(self) -> float:
        return self.top_pair[0]

    @property
    def top_vector(self) -> np.ndarray:
        return self.top_pair[1]


def _finite(x: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise InvalidInputError(f"{what} overflow: shorten t_star or rescale A")
    return x


# Base step h = t*/2^d of the Gramian series: ||A||_1 h <= _THETA.
_THETA = 2.0


def _series_terms(x: float) -> int:
    """Series terms p on a base step with ||ha||_1 = x: the tail
    (2x)^(p+1) e^(2x)/(p+2)! of the sum, relative to h ||b b^T||, is below the
    unit roundoff 2^-53. At x = _THETA that is 32 terms."""
    return next(p for p in range(1, 200)
                if (2 * x) ** (p + 1) * math.exp(2 * x) / math.factorial(p + 2) <= 2.0**-53)


def _thin_series(ha: np.ndarray, b: np.ndarray, terms: int) -> np.ndarray:
    """The series over Krylov blocks y_j = (ha)^j b / j!: sum_jl y_j y_l^T / (j+l+1)."""
    y = [b]
    for j in range(1, terms + 1):
        y.append(ha @ y[-1] / j)
    y = np.hstack(y)
    return y @ np.kron(hilbert(terms + 1), np.eye(b.shape[1])) @ y.T


def _thick_series(ha: np.ndarray, b: np.ndarray, terms: int) -> np.ndarray:
    """The series by Horner on L(X) = haX + Xha^T: one n x n product per term,
    scaled in place and symmetrized into one new array."""
    q = y = b @ b.T
    for k in range(terms, 0, -1):
        ay = ha @ y
        ay *= 1.0 / (k + 1)
        y = ay + ay.T
        y += q
    return y


def _doubling_gramian(a: np.ndarray, b: np.ndarray, t_star: float):
    """int_0^t* exp(sa) b b^T exp(sa^T) ds from a base step and horizon doublings.

    On the base step h = t*/2^d, ||a||_1 h <= _THETA, the integral is the
    truncated Taylor series h sum_{k<=p} h^k/(k+1)! L^k(b b^T), with
    L(X) = aX + Xa^T, and p the fewest terms whose tail bound at the actual
    ||ha||_1 is below roundoff (``_series_terms``). A thin factor,
    m(p+1) < n, sums it over Krylov blocks of matvecs on the shortest base
    step. Else Horner runs on L, and d is chosen with p, as Al-Mohy & Higham
    (2011) choose the scaling and the degree together: each doubling past
    the least halves the step and shortens the series, and d minimizes the
    n x n products, p for Horner plus 3d - 1 for the doublings. The full
    horizon is rebuilt with the exact identity
    W(2t) = W(t) + exp(ta) W(t) exp(ta^T), from one ``expm(ha)``. An integral
    too large for floats comes back non-finite. Returns the integral, the last
    rung of the ladder and whether it was doubled: exp((t*/2) a) after one or
    more doublings, else exp(t* a).
    """
    scaled = float(np.linalg.norm(a, 1)) * t_star
    if not np.isfinite(scaled):
        raise InvalidInputError("||A|| t_star overflows: shorten t_star or rescale A")
    doublings = int(np.ceil(np.log2(scaled / _THETA))) if scaled > _THETA else 0
    terms = _series_terms(math.ldexp(scaled, -doublings))
    series = _thin_series if b.shape[1] * (terms + 1) < b.shape[0] else _thick_series
    if series is _thick_series:
        # The products stop falling within a few doublings; ties take the shorter series.
        doublings = -min((_series_terms(math.ldexp(scaled, -d)) + max(3 * d - 1, 0), -d)
                         for d in range(doublings, doublings + 8))[1]
        terms = _series_terms(math.ldexp(scaled, -doublings))
    h = math.ldexp(t_star, -doublings)
    ha = h * a
    e = expm(ha)
    with np.errstate(over="ignore", invalid="ignore"):
        w = h * series(ha, b, terms)
        for k in range(doublings):
            if k:
                e = e @ e
            w += e @ w @ e.T
        return 0.5 * (w + w.T), e, doublings > 0


def reachability_gramian(
    system: LinearSystem,
    schematic: InputSchematic,
    t_star: float,
) -> GramianBundle:
    """Finite-horizon reachability Gramian of (A, B).

    Args:
        system: dynamics.
        schematic: input matrix B, with one row per state.
        t_star: horizon, must be positive.

    Returns:
        GramianBundle with the symmetrized Gramian and its eigenvalues.
    """
    return GramianEvaluator(system, t_star).bundle(schematic.B)


def flux_matrix(system: LinearSystem, v, t_star: float) -> FluxMatrix:
    """Flux matrix of the observer ``v^T x`` over the horizon, on the Krylov
    space of (A^T, v).

    Arnoldi on A^T from v / ||v|| (two Gram-Schmidt passes) gives orthonormal
    rows Q_k and the Hessenberg H_k; the Gramian G of (H_k, e_1) from
    ``_doubling_gramian`` gives the top pair from ``eigh(G)``, and
    Phi = ||v||^2 Q_k^T G Q_k on first read of ``FluxMatrix.Phi``. The residual
    of y_k(s) = ||v|| Q_k^T exp(sH_k) e_1 is ||v|| h_{k+1,k} (e_k^T exp(sH_k) e_1)
    q_{k+1} (Saad 1992), and its middle factor is at most P s^(k-1) exp(mu s)/(k-1)!,
    P the product of H_k's subdiagonal and mu, nu Gershgorin bounds on the extreme eigenvalues of (A + A^T)/2. So with
    c = int_0^t* exp(2 mu u) du, int ||y - y_k||^2 <= ||v||^2 t* c exp(2 max(mu, 0) t*)
    (P h_{k+1,k})^2 t*^(2k-1) / ((2k-1) (k-1)!^2). Arnoldi stops once that is at most
    eps^2 ||v||^2 int_0^t* exp(2 nu u) du <= eps^2 ||v||^2 tr G, at k = n, or at a
    breakdown, h_{k+1,k} <= 4 eps sqrt(n) || |A^T| |q_k| ||: within the roundoff of
    the products that formed it, so an exact small coupling is followed. The bound
    reads no entry of G: its small entries are only accurate to roundoff in G's largest.

    The Arnoldi steps do not depend on t*: ``system`` keeps them (a
    ``_KrylovSpace``) for the last v it was given and takes more only when a
    horizon's bound asks for them, so each horizon gets the k, Q_k and H_k that
    a fresh run would give. A call with another v replaces the kept space.
    """
    if not np.isfinite(t_star) or t_star <= 0:
        raise InvalidInputError("t_star must be a positive real")
    vv = as_vector(v, n=system.n, name="v")
    beta = np.float64(dnrm2(vv))
    if beta == 0.0:
        raise InvalidInputError("flux weighting v must be nonzero")
    with np.errstate(all="ignore"):
        key, slot = vv.tobytes(), system._krylov
        space = slot[0]
        if space is None or space.key != key:
            # A new weighting's space takes the slot of the last one.
            space = slot[0] = _KrylovSpace(system.A.T, vv / beta, key)
        k = space.order(t_star)
        g = _finite(_doubling_gramian(space.h[:k, :k], np.eye(k, 1), t_star)[0], "flux matrix")
        theta, vecs = np.linalg.eigh(g)
        lam, basis = float(_finite(beta**2 * theta[-1], "flux matrix")), space.q[:k]
    # A view of the shared space, which later horizons read.
    basis.flags.writeable = False
    if lam <= 0.0:
        raise InvalidInputError("flux matrix has no positive eigenvalue")
    top = vecs[:, -1] @ basis
    return FluxMatrix(v=vv, t_star=float(t_star),
                      top_pair=(lam, canonical_sign(top / np.linalg.norm(top))),
                      basis=basis, core=beta**2 * g)


class _KrylovSpace:
    """Arnoldi state of (A^T, q_1), grown one step at a time as horizons ask;
    ``key`` is the bytes of the weighting v that q_1 normalizes.

    Holds what no horizon changes: mu and nu, Gershgorin bounds on the
    extreme eigenvalues of (A + A^T)/2, and ||A||_F. Step k fills the k-th
    column of H and keeps its residual w and log P_k, the log of the product
    of H's subdiagonal through h_{k+1,k}; q_{k+1} = w / h_{k+1,k} is formed
    only when a horizon takes step k + 1. ``closed`` marks a breakdown or k = n.
    A lock keeps threads that share the system from taking a step twice.
    """

    def __init__(self, a: np.ndarray, q1: np.ndarray, key: bytes):
        n, eps = a.shape[0], np.finfo(float).eps
        self.a, self.key, self.steps, self.closed = a, key, 0, False
        self.q, self.h = np.empty((n, n)), np.zeros((n + 1, n))
        self.q[0], self.log_p, self.w, self.lock = q1, [0.0], None, threading.Lock()
        s = 0.5 * (a + a.T)
        d, r = np.diag(s), np.abs(s).sum(axis=1) - np.abs(np.diag(s))
        self.mu, self.nu = float(np.max(d + r)), float(np.min(d - r))
        self.fro, self.tol = dnrm2(a.T.ravel()), 4 * eps * math.sqrt(n)

    def _step(self) -> None:
        k, q, h = self.steps + 1, self.q, self.h
        if k > 1:
            q[k - 1] = self.w / h[k - 1, k - 2]
        w = self.a @ q[k - 1]
        for _ in range(2):
            proj = q[:k] @ w
            w -= proj @ q[:k]
            h[:k, k - 1] += proj
        h[k, k - 1] = dnrm2(w)
        self.steps, self.w = k, w
        # A breakdown; ||A||_F >= || |A^T| |q_k| || screens the test.
        if k == len(q) or h[k, k - 1] <= self.tol * self.fro and (
                h[k, k - 1] <= self.tol * dnrm2(np.abs(self.a) @ np.abs(q[k - 1]))):
            self.closed = True
        else:
            self.log_p.append(self.log_p[-1] + math.log(h[k, k - 1]))

    def order(self, t_star: float) -> int:
        """The fewest steps whose error bound at ``t_star`` is met, or the last step."""
        mu, eps = self.mu, np.finfo(float).eps
        c, lower = (np.expm1(2 * x * t_star) / (2 * x) if x else t_star for x in (mu, self.nu))
        # The stopping bound in logs, with its factors that do not change with k on this side.
        target = np.log(eps**2 * lower / c) - 2 * (math.log(t_star) + max(mu, 0.0) * t_star)
        with self.lock:
            for k in range(1, len(self.q) + 1):
                if k > self.steps:
                    self._step()
                if self.closed and k == self.steps or (
                        2 * self.log_p[k] + (2 * k - 2) * math.log(t_star) - math.log(2 * k - 1)
                        - 2 * math.lgamma(k) <= target):
                    return k


def kappa(bundle: GramianBundle, v) -> float:
    """Quadratic form v^T W v of a Gramian bundle."""
    vv = as_vector(v, n=bundle.n, name="v")
    return float(vv @ bundle.W @ vv)


class GramianEvaluator:
    """Gramian integrals at a fixed system and horizon.

    Serves the reachability Gramian ``W(B) = int exp(tA) B B^T exp(tA^T) dt``
    and the flux matrix ``Phi(v) = int exp(tA^T) v v^T exp(tA) dt``. For
    symmetric dynamics both have a closed form in the eigenbasis (entrywise
    ``expm1((a_i + a_j) T) / (a_i + a_j)`` weights on the projected outer
    product), orders of magnitude faster than the series and equal to it to
    roundoff. Nonsymmetric dynamics take the series-and-doubling path per
    call. The endpoint ``exp(t* A) x0`` of the autonomous run comes from the
    eigenpairs, or from the first series Gramian's doubling ladder (one
    squaring of its last rung), else ``expm``. The adjoint trajectory
    ``exp(sA^T) p`` that steers it to a selected state on a uniform grid takes
    one propagator step, from the eigenpairs or ``expm``.
    """

    # Below this magnitude the entrywise weight switches to its series limit.
    _SERIES_TOL = 1e-8

    def __init__(self, system: LinearSystem, t_star: float):
        if not np.isfinite(t_star) or t_star <= 0:
            raise InvalidInputError("t_star must be a positive real")
        self.system = system
        self.t_star = float(t_star)
        self._symmetric = system.is_symmetric()
        # exp(t A) or exp((t/2) A) from the first doubling ladder; exp(t* A) once built.
        self._rung = self._transition = None
        if self._symmetric:
            self._eigvals, self._eigvecs = np.linalg.eigh(system.A)
            s = self._eigvals[:, None] + self._eigvals[None, :]
            small = np.abs(s) < self._SERIES_TOL
            safe = np.where(small, 1.0, s)
            # expm1 sees 0 on the series entries, so a large t* cannot overflow it there.
            with np.errstate(over="ignore"):
                growth = np.expm1(np.where(small, 0.0, s) * self.t_star) / safe
            # t* (1 + t* s / 2), never t*^2: that overflows a float past t* ~ 1e154.
            series = self.t_star * (1.0 + 0.5 * self.t_star * np.where(small, s, 0.0))
            self._weights = _finite(np.where(small, series, growth), "Gramian weights")

    def _integral(self, B, flux: bool) -> np.ndarray:
        """int_0^T exp(ta) B B^T exp(ta^T) dt, a = A^T if ``flux`` else A (equal when symmetric)."""
        b = np.asarray(B, dtype=float)
        if b.ndim == 1:
            b = b[:, None]
        if b.shape[0] != self.system.n:
            raise InvalidInputError("schematic row count must match system size")
        if not self._symmetric:
            a = self.system.A.T if flux else self.system.A
            w, rung, doubled = _doubling_gramian(a, b, self.t_star)
            w = _finite(w, "Gramian")
            if self._rung is None:
                self._rung = (rung.T if flux else rung), doubled
            return w
        bt = self._eigvecs.T @ b
        with np.errstate(over="ignore", invalid="ignore"):
            w = self._eigvecs @ (self._weights * (bt @ bt.T)) @ self._eigvecs.T
        return _finite(0.5 * (w + w.T), "Gramian")

    def matrix(self, B) -> np.ndarray:
        """Gramian of the fixed (A, t*) for the input matrix ``B``."""
        return self._integral(B, flux=False)

    def flux(self, v) -> np.ndarray:
        """Flux matrix of the weighting ``v``: the Gramian of (A^T, v)."""
        return self._integral(v, flux=True)

    def bundle(self, B) -> GramianBundle:
        """Gramian bundle of ``B``. The eigenbasis W is symmetric and PSD by
        construction, so only the series W, which roundoff in the doublings can
        leave indefinite, goes through ``GramianBundle.from_matrix``'s checks."""
        if self._symmetric:
            return GramianBundle(self.matrix(B), self.t_star)
        return GramianBundle.from_matrix(self.matrix(B), self.t_star)

    def _propagator(self, a: np.ndarray, s: float) -> np.ndarray:
        """exp(s a) for a = A or A^T: eigenpairs if A is symmetric, else ``expm``."""
        if self._symmetric:
            return (self._eigvecs * np.exp(self._eigvals * s)) @ self._eigvecs.T
        return expm(a * s)

    def propagate(self, x0) -> np.ndarray:
        """Autonomous endpoint ``exp(t* A) x0``; ``exp(t* A)`` is built once."""
        x0 = as_vector(x0, n=self.system.n, name="x0")
        if self._transition is None:
            with np.errstate(over="ignore", invalid="ignore"):
                if self._rung is None:
                    phi = self._propagator(self.system.A, self.t_star)
                else:
                    rung, doubled = self._rung
                    phi = rung @ rung if doubled else rung
            self._transition = _finite(phi, "propagator")
        return self._transition @ x0

    def adjoint(self, p, samples: int) -> np.ndarray:
        """Rows ``exp(s_j A^T) p``, ``s_j = j t*/samples``, built upward from
        ``s = 0`` by one propagator."""
        p = as_vector(p, n=self.system.n, name="p")
        if samples < 1:
            raise InvalidInputError("samples must be at least 1")
        step = self._propagator(self.system.A.T, self.t_star / samples)
        out = np.empty((samples + 1, self.system.n))
        out[0] = p
        for j in range(samples):
            out[j + 1] = step @ out[j]
        return out
