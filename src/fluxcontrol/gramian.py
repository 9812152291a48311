"""Reachability Gramians and flux matrices over a finite horizon.

The Gramian ``W = int_0^T exp(tA) B B^T exp(tA^T) dt`` weights the
minimum-energy quadratic form; the flux matrix is the same integral for the
transposed dynamics with a rank-one weighting ``v v^T`` and its top
eigenvector is the optimal single-input placement for the observer ``v^T x``.
Off the eigenbasis both come from one ``expm`` of a short base step, a
truncated Taylor series of the integral over that step, and horizon doubling;
the flux matrix's top eigenpair then comes from Lanczos.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal, expm, hilbert

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
    unit eigenvector, from Lanczos, with ``canonical_sign``'s sign.
    """

    Phi: np.ndarray
    v: np.ndarray
    t_star: float
    top_pair: tuple[float, np.ndarray]

    @property
    def n(self) -> int:
        return self.Phi.shape[0]

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
# Series terms p, fixed a priori: the tail (2 theta)^(p+1) e^(2 theta)/(p+2)! of
# the sum, relative to h ||B B^T||, is below the unit roundoff 2^-53.
_TERMS = next(p for p in range(1, 200) if (2 * _THETA) ** (p + 1) * math.exp(2 * _THETA)
              / math.factorial(p + 2) <= 2.0**-53)


def _thin_series(ha: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The series over Krylov blocks y_j = (ha)^j b / j!: sum_jl y_j y_l^T / (j+l+1)."""
    y = [b]
    for j in range(1, _TERMS + 1):
        y.append(ha @ y[-1] / j)
    y = np.hstack(y)
    return y @ np.kron(hilbert(_TERMS + 1), np.eye(b.shape[1])) @ y.T


def _thick_series(ha: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The series by Horner on L(X) = haX + Xha^T: one n x n product per term."""
    q = y = b @ b.T
    for k in range(_TERMS, 0, -1):
        ay = ha @ y
        y = q + (ay + ay.T) / (k + 1)
    return y


def _doubling_gramian(a: np.ndarray, b: np.ndarray, t_star: float):
    """int_0^t* exp(sa) b b^T exp(sa^T) ds from a base step and horizon doublings.

    On the base step h = t*/2^d, ||a||_1 h <= _THETA, the integral is the
    truncated Taylor series h sum_{k<=p} h^k/(k+1)! L^k(b b^T), with
    L(X) = aX + Xa^T (Al-Mohy & Higham 2011 scale the same way). A thin
    factor, m(p+1) < n, sums it over Krylov blocks, else Horner runs on L.
    The full horizon is rebuilt with the exact identity
    W(2t) = W(t) + exp(ta) W(t) exp(ta^T), from one ``expm(ha)``. An integral
    too large for floats comes back non-finite. Returns the integral, the last
    rung of the ladder and whether it was doubled: exp((t*/2) a) after one or
    more doublings, else exp(t* a).
    """
    scaled = float(np.linalg.norm(a, 1)) * t_star
    if not np.isfinite(scaled):
        raise InvalidInputError("||A|| t_star overflows: shorten t_star or rescale A")
    doublings = int(np.ceil(np.log2(scaled / _THETA))) if scaled > _THETA else 0
    h = math.ldexp(t_star, -doublings)
    series = _thin_series if b.shape[1] * (_TERMS + 1) < b.shape[0] else _thick_series
    ha = h * a
    e = expm(ha)
    with np.errstate(over="ignore", invalid="ignore"):
        w = h * series(ha, b)
        for k in range(doublings):
            if k:
                e = e @ e
            w = w + e @ w @ e.T
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
    """Flux matrix of the observer ``v^T x`` over the horizon.

    Computed as the reachability Gramian of the pair (A^T, v), which is the
    same integral with the roles of propagation and weighting swapped.
    """
    if not np.isfinite(t_star) or t_star <= 0:
        raise InvalidInputError("t_star must be a positive real")
    vv = as_vector(v, n=system.n, name="v")
    if np.linalg.norm(vv) == 0.0:
        raise InvalidInputError("flux weighting v must be nonzero")
    phi = _finite(_doubling_gramian(system.A.T, vv[:, None], float(t_star))[0], "flux matrix")
    lam, top = _top_eigenpair(phi)
    if lam <= 0.0:
        raise InvalidInputError("flux matrix has no positive eigenvalue")
    return FluxMatrix(Phi=phi, v=vv, t_star=float(t_star), top_pair=(lam, canonical_sign(top)))


def _top_eigenpair(phi: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of a symmetric PSD matrix and a unit eigenvector, by Lanczos
    with full reorthogonalization (two Gram-Schmidt passes) from a fixed seeded start,
    on phi over its largest entry magnitude so tiny or huge entries stay normal floats.
    Every fourth step, and at a breakdown, the top Ritz pair (theta, s) of the
    tridiagonal T_k comes from bisection and inverse iteration, O(k); it stops once
    beta_k |s_k| <= 4 eps theta, or at k = n, where it is exact."""
    n = phi.shape[0]
    scale = float(np.abs(phi).max()) or 1.0
    a = phi / scale
    q = np.empty((n, n))
    alpha, beta = np.empty(n), np.empty(n)
    r = np.random.default_rng(0).standard_normal(n)
    r /= np.linalg.norm(r)
    for k in range(n):
        q[k] = r
        w = a @ r
        alpha[k] = r @ w
        for _ in range(2):
            w -= (q[: k + 1] @ w) @ q[: k + 1]
        beta[k] = np.linalg.norm(w)
        if k % 4 == 3 or k == n - 1 or beta[k] == 0.0:
            theta, s = eigh_tridiagonal(alpha[: k + 1], beta[:k], select="i", select_range=(k, k))
            if beta[k] * abs(s[k, 0]) <= 4 * np.finfo(float).eps * abs(theta[0]) or k == n - 1:
                u = s[:, 0] @ q[: k + 1]
                return float(theta[0]) * scale, u / np.linalg.norm(u)
        r = w / beta[k]


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
