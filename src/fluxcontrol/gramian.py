"""Reachability Gramians and flux matrices over a finite horizon.

The Gramian ``W = int_0^T exp(tA) B B^T exp(tA^T) dt`` weights the
minimum-energy quadratic form; the flux matrix is the same integral for the
transposed dynamics with a rank-one weighting ``v v^T`` and its top
eigenvector is the optimal single-input placement for the observer ``v^T x``.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

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
    """A finite-horizon Gramian with cached spectral data.

    Attributes:
        W: symmetric positive semidefinite n x n matrix.
        t_star: horizon the integral was taken over.
        kappa: quadratic form 1^T W 1 of the all-ones weighting; the
            module function ``kappa`` serves any other weighting.
        eigenvalues: eigenvalues of W sorted descending.
    """

    W: np.ndarray
    t_star: float
    kappa: float
    eigenvalues: np.ndarray = field(repr=False)

    @classmethod
    def from_matrix(cls, W, t_star: float) -> "GramianBundle":
        """Validate and symmetrize a computed Gramian and take its eigenvalues."""
        W = np.asarray(W, dtype=float)
        n = W.shape[0]
        scale = max(float(np.abs(W).max()), np.finfo(float).tiny)
        if np.linalg.norm(W - W.T) > 1e-10 * np.linalg.norm(W) + 1e-300:
            raise InvalidInputError("gramian is not symmetric within tolerance")
        W = 0.5 * (W + W.T)
        vals = np.linalg.eigvalsh(W)
        if vals[0] < -1e-10 * max(vals[-1], 0.0) - 1e-300 * scale:
            raise InvalidInputError("gramian is not positive semidefinite")
        ones = np.ones(n)
        kap = max(float(ones @ W @ ones), 0.0)
        return cls(
            W=W,
            t_star=float(t_star),
            kappa=kap,
            eigenvalues=vals[::-1],
        )

    @property
    def n(self) -> int:
        return self.W.shape[0]

    @property
    def lam_max(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lam_min(self) -> float:
        return float(self.eigenvalues[-1])

    def is_positive_definite(self, rtol: float = 1e-12) -> bool:
        return self.lam_min > rtol * max(self.lam_max, 0.0)


@dataclass(frozen=True)
class FluxMatrix:
    """Integrated outer product of the propagated observer weighting.

    ``Phi = int_0^T exp(tA^T) v v^T exp(tA) dt``; symmetric PSD with a strictly
    positive top eigenvalue whenever v is nonzero.
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


def _van_loan_block(A: np.ndarray, Q: np.ndarray, t: float) -> np.ndarray:
    """Single block-exponential evaluation of int_0^t exp(sA) Q exp(sA^T) ds.

    Exponentiates [[-A, Q], [0, A^T]] * t; the integral is the transposed
    lower-right block times the upper-right block.
    """
    n = A.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -A
    block[:n, n:] = Q
    block[n:, n:] = A.T
    e = expm(block * t)
    return e[n:, n:].T @ e[:n, n:]


def _van_loan_gramian(A: np.ndarray, Q: np.ndarray, t_star: float) -> np.ndarray:
    """Block-exponential Gramian with horizon doubling.

    The raw block form cancels catastrophically when ||A|| t is large (the
    upper-left block carries exp(+||A||t)), so the base step is shrunk until
    the block stays well scaled and the full horizon is rebuilt with the exact
    identity W(2t) = W(t) + exp(tA) W(t) exp(tA^T).
    """
    norm = float(np.linalg.norm(A, 1))
    doublings = 0
    if norm * t_star > 2.0:
        doublings = min(int(np.ceil(np.log2(norm * t_star / 2.0))), 60)
    h = t_star / (2.0**doublings)
    w = _van_loan_block(A, Q, h)
    if doublings:
        e = expm(A * h)
        for _ in range(doublings):
            w = w + e @ w @ e.T
            e = e @ e
    return 0.5 * (w + w.T)


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
    phi = _van_loan_gramian(system.A.T, np.outer(vv, vv), float(t_star))
    vals, vecs = np.linalg.eigh(phi)
    lam = float(vals[-1])
    if lam <= 0.0:
        raise InvalidInputError("flux matrix has no positive eigenvalue")
    top = canonical_sign(vecs[:, -1])
    return FluxMatrix(Phi=phi, v=vv, t_star=float(t_star), top_pair=(lam, top))


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
    product), orders of magnitude faster than the block exponential and equal
    to it to roundoff. Nonsymmetric dynamics take the block-exponential path
    per call. One propagator (eigenpairs, else ``expm``) serves the endpoint
    ``exp(t* A) x0`` of the autonomous run and the adjoint trajectory
    ``exp(sA^T) p`` that steers it to a selected state on a uniform grid.
    """

    # Below this magnitude the entrywise weight switches to its series limit.
    _SERIES_TOL = 1e-8

    def __init__(self, system: LinearSystem, t_star: float):
        if not np.isfinite(t_star) or t_star <= 0:
            raise InvalidInputError("t_star must be a positive real")
        self.system = system
        self.t_star = float(t_star)
        self._symmetric = system.is_symmetric()
        if self._symmetric:
            self._eigvals, self._eigvecs = np.linalg.eigh(system.A)
            s = self._eigvals[:, None] + self._eigvals[None, :]
            small = np.abs(s) < self._SERIES_TOL
            safe = np.where(small, 1.0, s)
            # expm1 sees 0 on the series entries, so a large t* cannot overflow it there.
            growth = np.expm1(np.where(small, 0.0, s) * self.t_star) / safe
            series = self.t_star + 0.5 * self.t_star**2 * s
            self._weights = np.where(small, series, growth)

    def _integral(self, a: np.ndarray, B) -> np.ndarray:
        """int_0^T exp(ta) B B^T exp(ta^T) dt for a = A or A^T (equal when symmetric)."""
        b = np.asarray(B, dtype=float)
        if b.ndim == 1:
            b = b[:, None]
        if b.shape[0] != self.system.n:
            raise InvalidInputError("schematic row count must match system size")
        if not self._symmetric:
            return _van_loan_gramian(a, b @ b.T, self.t_star)
        bt = self._eigvecs.T @ b
        w = self._eigvecs @ (self._weights * (bt @ bt.T)) @ self._eigvecs.T
        return 0.5 * (w + w.T)

    def matrix(self, B) -> np.ndarray:
        """Gramian of the fixed (A, t*) for the input matrix ``B``."""
        return self._integral(self.system.A, B)

    def flux(self, v) -> np.ndarray:
        """Flux matrix of the weighting ``v``: the Gramian of (A^T, v)."""
        return self._integral(self.system.A.T, v)

    def bundle(self, B) -> GramianBundle:
        return GramianBundle.from_matrix(self.matrix(B), self.t_star)

    def _propagator(self, a: np.ndarray, s: float) -> np.ndarray:
        """exp(s a) for a = A or A^T: eigenpairs if A is symmetric, else ``expm``."""
        if self._symmetric:
            return (self._eigvecs * np.exp(self._eigvals * s)) @ self._eigvecs.T
        return expm(a * s)

    def propagate(self, x0) -> np.ndarray:
        """Autonomous endpoint ``exp(t* A) x0``."""
        x0 = as_vector(x0, n=self.system.n, name="x0")
        return self._propagator(self.system.A, self.t_star) @ x0

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
