"""Reachability Gramians and flux matrices over a finite horizon.

The Gramian ``W = int_0^T exp(tA) B B^T exp(tA^T) dt`` weights the
minimum-energy quadratic form; the flux matrix is the same integral for the
transposed dynamics with a rank-one weighting ``v v^T`` and its top
eigenvector is the optimal single-input placement for the observer ``v^T x``.
Off the eigenbasis the Gramian comes from one ``expm`` of a short base step,
a truncated Taylor series of the integral over that step, as short as its
tail bound at that step allows, and horizon doubling; a thick input matrix
takes the base step that needs the fewest n x n products. The ladder's top
is exp(tA), which ``GramianEvaluator.propagator`` keeps for reuse. The flux matrix
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
from scipy.linalg import expm
from scipy.linalg.blas import dnrm2

from ._util import (
    as_columns,
    as_count,
    as_matrix,
    as_positive_real,
    as_vector,
    canonical_sign,
    same_bits,
)
from .errors import InvalidInputError
from .linsys import LinearSystem

__all__ = [
    "GramianBundle",
    "FluxMatrix",
    "GramianEvaluator",
    "flux_matrix",
]


@dataclass(frozen=True)
class GramianBundle:
    """A finite-horizon Gramian whose derived data is computed on first read.

    ``from_matrix`` validates a Gramian from outside (finite, symmetric, PSD)
    and keeps the eigenvalues its check computed. ``GramianEvaluator.bundle``
    builds the bundle directly on symmetric dynamics, where W is symmetric by
    construction and PSD by the Schur product theorem. On nonsymmetric
    dynamics the system's kernel memo holds the bundle of its last W, so
    every array a bundle holds or derives is read-only: a bundle may be
    shared by later runs on the same system.

    Attributes:
        W: symmetric positive semidefinite n x n matrix, read-only:
            ``from_matrix``'s new symmetrized copy, the evaluator's own
            array, or a read-only view of a writeable argument.
        t_star: horizon the integral was taken over.
    """

    W: np.ndarray
    t_star: float

    def __post_init__(self):
        if self.W.flags.writeable:
            object.__setattr__(self, "W", _read_only(self.W.view()))

    @classmethod
    def from_matrix(cls, W, t_star: float) -> "GramianBundle":
        """Validate and symmetrize a computed Gramian and take its eigenvalues."""
        W = as_matrix(W, name="W", square=True)
        scale = max(float(np.abs(W).max()), np.finfo(float).tiny)
        # Max entries, not norms: a norm squares them and overflows past ~1e154.
        # W - W^T is antisymmetric, so its largest entry is its largest magnitude.
        with np.errstate(over="ignore"):
            if (W - W.T).max() > 1e-10 * scale:
                raise InvalidInputError("gramian is not symmetric within tolerance")
            # Halving before the sum would move normal entries' bits; past ~9e307 it overflows.
            W = 0.5 * (W + W.T)
        if not np.all(np.isfinite(W)):
            raise InvalidInputError("gramian overflows when symmetrized: rescale it")
        return cls._psd_checked(W, t_star, scale)

    @classmethod
    def _psd_checked(cls, W, t_star: float, scale: float) -> "GramianBundle":
        """The bundle of a finite W, symmetric to the bit, whose largest entry
        is ``scale``: kept as it is once ``eigvalsh`` finds it PSD."""
        vals = np.linalg.eigvalsh(W)
        if vals[0] < -1e-10 * max(vals[-1], 0.0) - 1e-300 * scale:
            raise InvalidInputError("gramian is not positive semidefinite")
        bundle = cls(W=W, t_star=as_positive_real(t_star, "t_star"))
        # Seed the cached property with the eigenvalues the check just took.
        bundle.__dict__["eigenvalues"] = _read_only(vals[::-1])
        return bundle

    @cached_property
    def kappa(self) -> float:
        """Quadratic form 1^T W 1 of the all-ones weighting."""
        ones = np.ones(self.n)
        return max(float(ones @ self.W @ ones), 0.0)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of W sorted descending."""
        return _read_only(np.linalg.eigvalsh(self.W)[::-1])

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """``np.linalg.eigh(W)``: eigenvalues ascending and their eigenvectors."""
        vals, vecs = np.linalg.eigh(self.W)
        return _read_only(vals), _read_only(vecs)

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
    unit eigenvector, from ``eigh`` of the Krylov Gramian, signed by
    ``canonical_sign`` against v: a nonnegative inner product with v, or where
    that is at roundoff, a positive largest entry. The n x n ``Phi = basis^T core basis`` is formed
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


def _read_only(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x


# A system's kernel memo, ``LinearSystem._memo``, maps a kernel kind to one
# (key, value) pair: the value is a tuple of the kernel's outputs, read-only,
# and the key its exact inputs, arrays among them by identity. Every array in
# a key is the read-only output of another entry, or the held copy of a
# schematic, so identity stands for equal bits. Threads may share a system:
# each step reads or replaces a whole pair, so a race costs a second kernel
# call, never a value under another's key. The one mutable value is flux's
# Krylov space ("krylov", keyed by v's bytes), which grows under its own lock.


def _recall(memo: dict, kind: str, key: tuple, compute) -> tuple:
    """``compute()`` through ``memo``: the held value of ``kind`` if its key
    matches ``key``, else the new value, which replaces it. A miss drops the
    held entry before it computes, so no call's peak memory grows."""
    held = memo.get(kind)
    if held is not None and all(h is k if isinstance(h, np.ndarray) else h == k
                                for h, k in zip(held[0], key)):
        return held[1]
    _forget(memo, kind)
    value = tuple(compute())
    for x in value:
        if isinstance(x, np.ndarray):
            _read_only(x)
    memo[kind] = (key, value)
    return value


def _forget(memo: dict, kind: str) -> None:
    """Drop the entry of ``kind`` and, in turn, every entry keyed on its arrays."""
    held = memo.pop(kind, None)
    if held is not None:
        for other, (key, _) in list(memo.items()):
            if any(x is y for x in key for y in held[1]):
                _forget(memo, other)


def _schematic(memo: dict, b: np.ndarray) -> np.ndarray:
    """The memo's one read-only copy of the schematic ``b``, which kernels
    read in its place. A ``b`` of other bits or strides replaces it, and with
    it every entry keyed on it."""
    held = memo.get("B")
    if held is not None and held[1][0].strides == b.strides and same_bits(held[1][0], b):
        return held[1][0]
    _forget(memo, "B")
    copy = _read_only(b.copy(order="K"))
    memo["B"] = ((), (copy,))
    return copy


# Base step h = t*/2^d of the Gramian series: ||A||_1 h <= _THETA.
_THETA = 2.0


def _series_terms(x: float) -> int:
    """Series terms p on a base step with ||ha||_1 = x: the fewest whose tail
    t_p = (2x)^(p+1) e^(2x)/(p+2)! of the sum, relative to h ||b b^T||, is below
    the unit roundoff 2^-53. The tail is walked as a running product,
    t_1 = (2x)^2 e^(2x)/6 and t_p = t_(p-1) 2x/(p+2). At x = _THETA that is 32 terms."""
    p, tail = 1, (2 * x) ** 2 * math.exp(2 * x) / 6
    while tail > 2.0**-53:
        p += 1
        tail *= 2 * x / (p + 2)
    return p


def _thin_series(ha: np.ndarray, b: np.ndarray, terms: int) -> np.ndarray:
    """The series over Krylov blocks y_j = (ha)^j b / j!: sum_jl y_j y_l^T / (j+l+1)."""
    y = [b]
    for j in range(1, terms + 1):
        y.append(ha @ y[-1] / j)
    y = np.hstack(y)
    i = np.arange(terms + 1)
    return y @ np.kron(1.0 / (i[:, None] + i + 1.0), np.eye(b.shape[1])) @ y.T


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


def _doubling_gramian(a: np.ndarray, b: np.ndarray, t_star: float, top: bool = False):
    """int_0^t* exp(sa) b b^T exp(sa^T) ds from a base step and horizon doublings.

    On the base step h = t*/2^d, ||a||_1 h <= _THETA, the integral is the
    truncated Taylor series h sum_{k<=p} h^k/(k+1)! L^k(b b^T), with
    L(X) = aX + Xa^T, and p the fewest terms whose tail bound at the actual
    ||ha||_1 is below roundoff (``_series_terms``). A thin factor,
    m(p+1) < n, sums it over Krylov blocks of matvecs on the shortest base
    step. Else Horner runs on L, and d is chosen with p, as Al-Mohy & Higham
    (2011) choose the scaling and the degree together: each doubling past
    the least halves the step and shortens the series, and d minimizes the
    n x n products, p for Horner plus 3d - 1 for the doublings. ``_chain``
    takes it to t* from one ``expm(ha)``; returns it and, if ``top``, exp(t* a),
    both non-finite past floats, where callers silence the overflow warnings.
    """
    scaled = float(np.linalg.norm(a, 1)) * t_star
    if not np.isfinite(scaled):
        raise InvalidInputError("||A|| t_star overflows: shorten t_star or rescale A")
    doublings = int(np.ceil(np.log2(scaled / _THETA))) if scaled > _THETA else 0
    terms = _series_terms(math.ldexp(scaled, -doublings))
    series = _thin_series if b.shape[1] * (terms + 1) < a.shape[0] else _thick_series
    if series is _thick_series:
        # The products stop falling within a few doublings; ties take the shorter series.
        terms, doublings = min(((_series_terms(math.ldexp(scaled, -d)), d)
                                for d in range(doublings, doublings + 8)),
                               key=lambda pd: (pd[0] + max(3 * pd[1] - 1, 0), -pd[1]))
    h = math.ldexp(t_star, -doublings)
    ha = h * a
    return _chain(expm(ha), h * series(ha, b, terms), 2**doublings, top)


def _chain(e_h: np.ndarray, w_h: np.ndarray, steps: int, top: bool = False):
    """The integral over ``steps`` base steps from one step's exp(ha) and
    integral ``w_h``, by the left-to-right binary chain (Knuth, TAOCP 4.6.3):
    each bit past the leading one doubles, W(2t) = W(t) + exp(ta) W(t) exp(ta^T),
    and a set bit adds a step, W(t + h) = w_h + exp(ha) W(t) exp(ha^T). Its
    roundoff grows with ``steps``, as overscaling does in scaling and squaring.
    Returns the symmetrized integral and, if ``top``, exp(steps h a), else
    None: the last rung's exponential is formed only when read."""
    e, w, bits = e_h, w_h, bin(steps)[3:]
    for k, bit in enumerate(bits, 1):
        w = w + e @ w @ e.T
        if bit == "1":
            w = w_h + e_h @ w @ e_h.T
        if top or k < len(bits):
            e = e @ e @ e_h if bit == "1" else e @ e
    return 0.5 * (w + w.T), e if top else None


def flux_matrix(system: LinearSystem, v, t_star: float) -> FluxMatrix:
    """Flux matrix of the observer ``v^T x`` over the horizon, on the Krylov
    space of (A^T, v).

    Arnoldi on A^T from v / ||v|| (two Gram-Schmidt passes), which reads A only
    through matvecs (``_KrylovSpace``), gives orthonormal rows Q_k and the Hessenberg H_k; the Gramian G of (H_k, e_1) from
    ``_doubling_gramian`` gives the top pair from ``eigh(G)``, and
    Phi = ||v||^2 Q_k^T G Q_k on first read of ``FluxMatrix.Phi``. The residual
    of y_k(s) = ||v|| Q_k^T exp(sH_k) e_1 is ||v|| h_{k+1,k} (e_k^T exp(sH_k) e_1)
    q_{k+1} (Saad 1992), and its middle factor is at most P s^(k-1) exp(mu s)/(k-1)!,
    P the product of H_k's subdiagonal and mu, nu Gershgorin bounds on the extreme
    eigenvalues of (A + A^T)/2, about a_ii with radius (sum_j |a_ij| + |a_ji|)/2. So with
    c = int_0^t* exp(2 mu u) du, int ||y - y_k||^2 <= ||v||^2 t* c exp(2 max(mu, 0) t*)
    (P h_{k+1,k})^2 t*^(2k-1) / ((2k-1) (k-1)!^2). Arnoldi stops once that is at most
    eps^2 ||v||^2 int_0^t* exp(2 nu u) du <= eps^2 ||v||^2 tr G, at k = n, or at a
    breakdown, h_{k+1,k} <= 4 eps sqrt(n) || |A^T| |q_k| ||: within the roundoff of
    the products that formed it, so an exact small coupling is followed. The bound
    reads no entry of G: its small entries are only accurate to roundoff in G's largest.

    The Arnoldi steps do not depend on t*: ``system`` memoizes them (a
    ``_KrylovSpace``) for the last v it was given and takes more only when a
    horizon's bound asks for them, so each horizon gets the k, Q_k and H_k that
    a fresh run would give. A call with another v replaces the kept space.
    """
    t_star = as_positive_real(t_star, "t_star")
    vv = as_vector(v, n=system.n, name="v")
    beta = np.float64(dnrm2(vv))
    if beta == 0.0:
        raise InvalidInputError("flux weighting v must be nonzero")
    with np.errstate(all="ignore"):
        space = _recall(system._memo, "krylov", (vv.tobytes(),),
                        lambda: (_KrylovSpace(system, vv / beta),))[0]
        k = space.order(t_star)
        g = _finite(_doubling_gramian(space.h[:k, :k], np.eye(k, 1), t_star)[0], "flux matrix")
        theta, vecs = np.linalg.eigh(g)
        lam, basis = float(_finite(beta**2 * theta[-1], "flux matrix")), space.q[:k]
    # A view of the shared space, which later horizons read.
    basis.flags.writeable = False
    if lam <= 0.0:
        raise InvalidInputError("flux matrix has no positive eigenvalue")
    top = vecs[:, -1] @ basis
    return FluxMatrix(v=vv, t_star=t_star,
                      top_pair=(lam, canonical_sign(top / np.linalg.norm(top), ref=vv)),
                      basis=basis, core=beta**2 * g)


class _KrylovSpace:
    """Arnoldi state of (A^T, q_1), grown one step at a time as horizons ask.

    Reads A through A^T q alone: a bincount over the system's edge arrays, else
    a gemv. Holds what no horizon changes: mu and nu, and ||A||_F. The
    Gershgorin radius (sum_j |a_ij| + |a_ji|)/2, one O(nnz) formula, is exact
    for a sign-consistent off-diagonal (graphs, Laplacians) and a looser bound
    otherwise. Step k fills the k-th column of H and keeps its residual w and
    log P_k, the log of the product of H's subdiagonal through h_{k+1,k};
    q_{k+1} = w / h_{k+1,k} is formed only when a horizon takes step k + 1.
    Q and H double their rows as steps ask. ``closed`` marks a breakdown or
    k = n. A lock keeps threads that share the system from taking a step twice.
    """

    def __init__(self, system: LinearSystem, q1: np.ndarray):
        n, eps, self.edges = system.n, np.finfo(float).eps, system.edges
        self.n, self.steps, self.closed = n, 0, False
        self.q, self.h = q1[None], np.zeros((2, 1))
        self.log_p, self.w, self.lock = [0.0], None, threading.Lock()
        if self.edges is None:
            self.a, absa, self.fro = system.A.T, np.abs(system.A), dnrm2(system.A.ravel())
            d, sums = np.diag(self.a), absa.sum(axis=0) + absa.sum(axis=1)
        else:
            rows, cols, vals = self.edges
            d = np.bincount(rows, weights=vals * (rows == cols), minlength=n)
            sums = sum(np.bincount(i, weights=np.abs(vals), minlength=n) for i in (rows, cols))
            self.fro = dnrm2(vals)
        r = 0.5 * sums - np.abs(d)
        self.mu, self.nu = float(np.max(d + r)), float(np.min(d - r))
        self.tol = 4 * eps * math.sqrt(n)

    def _matvec(self, q: np.ndarray, absolute: bool = False) -> np.ndarray:
        """A^T q, or |A^T| |q| for the breakdown test."""
        f = np.abs if absolute else np.asarray
        if self.edges is None:
            return f(self.a) @ f(q)
        rows, cols, vals = self.edges
        return np.bincount(cols, weights=f(vals) * f(q)[rows], minlength=self.n)

    def _advance(self) -> None:
        k = self.steps + 1
        if k > len(self.q):
            cap = min(2 * len(self.q), self.n)
            q, h = np.empty((cap, self.n)), np.zeros((cap + 1, cap))
            q[:k - 1], h[:k, :k - 1] = self.q, self.h
            self.q, self.h = q, h
        q, h = self.q, self.h
        if k > 1:
            q[k - 1] = self.w / h[k - 1, k - 2]
        w = self._matvec(q[k - 1])
        for _ in range(2):
            proj = q[:k] @ w
            w -= proj @ q[:k]
            h[:k, k - 1] += proj
        h[k, k - 1] = dnrm2(w)
        self.steps, self.w = k, w
        # A breakdown; ||A||_F >= || |A^T| |q_k| || screens the test.
        if k == self.n or h[k, k - 1] <= self.tol * self.fro and (
                h[k, k - 1] <= self.tol * dnrm2(self._matvec(q[k - 1], absolute=True))):
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
            for k in range(1, self.n + 1):
                if k > self.steps:
                    self._advance()
                if self.closed and k == self.steps or (
                        2 * self.log_p[k] + (2 * k - 2) * math.log(t_star) - math.log(2 * k - 1)
                        - 2 * math.lgamma(k) <= target):
                    return k


class GramianEvaluator:
    """Gramian integrals and the exponentials of a fixed system and horizon.

    Serves the reachability Gramian ``W(B) = int exp(tA) B B^T exp(tA^T) dt``
    and the flux matrix ``Phi(v) = int exp(tA^T) v v^T exp(tA) dt``. For
    symmetric dynamics both have a closed form in the eigenbasis (entrywise
    ``expm1((a_i + a_j) T) / (a_i + a_j)`` weights on the projected outer
    product), orders of magnitude faster than the series and equal to it to
    roundoff. Nonsymmetric dynamics take the series-and-doubling path per
    call. ``propagator(s)`` is ``exp(sA)``, kept per ``s``: from the
    eigenpairs, else from the top of the doubling ladder of the first series
    Gramian on ``A`` over ``s``, else from one ``expm``. ``propagate`` reads it
    at ``t*``, and ``step``, the exact one-step map of a run sampled on
    ``steps`` equal steps, at ``h = t*/steps``. On nonsymmetric dynamics the
    held step map makes ``W(t*)`` of its ``B`` the sum of its steps (``_chain``),
    with ``exp(t* A)`` if the table lacks it: it moves the bits of ``W(t*)``, as
    the first Gramian's ladder moves those of ``propagator(t*)``.

    Which route each exponential and Gramian takes is this evaluator's own
    state, and a new evaluator starts it empty, so it makes the kernel calls
    that one on a fresh system makes, in the same order. The kernels are pure,
    and the system memoizes them under their exact inputs (one entry per kind):
    ``eigh(A)`` and the eigen weights of a horizon, a series Gramian
    (``_doubling_gramian``), the chain of a step map, and the bundle of a
    series W. A lone ``expm``, which ``propagate`` takes before any Gramian,
    is not memoized. So evaluators on one system, such as successive CLI
    runs on one network, reuse the work and get the bits a fresh system gives.
    ``matrix``, ``flux``, ``bundle``, ``propagator`` and ``step`` return
    read-only arrays.
    """

    # Below this magnitude the entrywise weight switches to its series limit.
    _SERIES_TOL = 1e-8

    def __init__(self, system: LinearSystem, t_star: float):
        self.system = system
        self.t_star = as_positive_real(t_star, "t_star")
        self._symmetric = system.is_symmetric()
        # exp(sA) by s, the first series Gramian on A over s leaving its ladder's top
        # here; and the last step map, (B's held copy, steps, exp(hA), W_h).
        self._propagators, self._step_map = {}, None
        if self._symmetric:
            self._eigvals, self._eigvecs = _recall(system._memo, "eigh", (),
                                                   lambda: np.linalg.eigh(system.A))
            self._weights = self._eigen_weights(self.t_star)

    def _eigen_weights(self, t: float) -> np.ndarray:
        """The weights of the eigenbasis Gramian over [0, t] (``_weights_at``),
        memoized on the system."""
        return _recall(self.system._memo, "weights", (t.hex(),), lambda: (self._weights_at(t),))[0]

    def _weights_at(self, t: float) -> np.ndarray:
        """Entrywise ``expm1((a_i + a_j) t) / (a_i + a_j)`` over the eigenvalues,
        the series limit where the sum is small."""
        s = self._eigvals[:, None] + self._eigvals[None, :]
        small = np.abs(s) < self._SERIES_TOL
        safe = np.where(small, 1.0, s)
        # expm1 sees 0 on the series entries, so a large t cannot overflow it there.
        with np.errstate(over="ignore"):
            growth = np.expm1(np.where(small, 0.0, s) * t) / safe
        # t (1 + t s / 2), never t^2: that overflows a float past t ~ 1e154.
        series = t * (1.0 + 0.5 * t * np.where(small, s, 0.0))
        return _finite(np.where(small, series, growth), "Gramian weights")

    def _eigen_gramian(self, b: np.ndarray, weights: np.ndarray) -> np.ndarray:
        bt = self._eigvecs.T @ b
        with np.errstate(over="ignore", invalid="ignore"):
            w = self._eigvecs @ (weights * (bt @ bt.T)) @ self._eigvecs.T
        return _finite(0.5 * (w + w.T), "Gramian")

    def _integral(self, b: np.ndarray, t: float, flux: bool = False) -> np.ndarray:
        """int_0^t exp(sa) b b^T exp(sa^T) ds, a = A^T if ``flux`` else A (equal
        when symmetric), for a checked schematic ``b``; read-only."""
        if self._symmetric:
            weights = self._weights if t == self.t_star else self._eigen_weights(t)
            return _read_only(self._eigen_gramian(b, weights))
        memo = self.system._memo
        top, held, b = not flux and t not in self._propagators, self._step_map, _schematic(memo, b)
        with np.errstate(over="ignore", invalid="ignore"):
            if not flux and t == self.t_star and held and same_bits(held[0], b):
                _, steps, e_h, w_h = held
                w, e = _recall(memo, "chain", (e_h, w_h, steps, top),
                               lambda: _chain(e_h, w_h, steps, top))
            else:
                a = self.system.A.T if flux else self.system.A
                w, e = _recall(memo, "doubling", (b, t.hex(), flux, top),
                               lambda: _doubling_gramian(a, b, t, top))
        if top:
            self._propagators[t] = e
        return _finite(w, "Gramian")

    def matrix(self, B) -> np.ndarray:
        """Gramian of the fixed (A, t*) for the input matrix ``B``."""
        return self._integral(as_columns(B, self.system.n), self.t_star)

    def flux(self, v) -> np.ndarray:
        """Flux matrix of the weighting ``v``: the Gramian of (A^T, v)."""
        return self._integral(as_columns(v, self.system.n, name="v"), self.t_star, flux=True)

    def bundle(self, B) -> GramianBundle:
        """Gramian bundle of ``B``. The eigenbasis W is symmetric and PSD by
        construction, so only the series W, which roundoff in the doublings can
        leave indefinite, takes ``GramianBundle.from_matrix``'s checks.
        ``_chain`` returns it as 0.5 (w + w^T), symmetric to the bit, so the
        bundle keeps that array instead of a copy of the same bits. The
        system's memo holds the bundle with its W."""
        W = self.matrix(B)
        if self._symmetric:
            return GramianBundle(W, self.t_star)

        def checked():
            scale = max(float(np.abs(W).max()), np.finfo(float).tiny)
            # from_matrix's W + W^T is 2W here, which overflows where 2 scale does.
            if not 2.0 * scale < np.inf:
                raise InvalidInputError("gramian overflows when symmetrized: rescale it")
            return (GramianBundle._psd_checked(W, self.t_star, scale),)

        return _recall(self.system._memo, "bundle", (W, self.t_star.hex()), checked)[0]

    def propagator(self, s: float) -> np.ndarray:
        """``exp(sA)``, built once per ``s`` and read-only: every caller shares it."""
        e = self._propagators.get(s)
        if e is None:
            with np.errstate(over="ignore", invalid="ignore"):
                if self._symmetric:
                    e = (self._eigvecs * np.exp(self._eigvals * s)) @ self._eigvecs.T
                else:
                    e = expm(s * self.system.A)
            self._propagators[s] = _read_only(e)
        return _finite(e, "propagator")

    def step(self, B, steps: int) -> tuple[np.ndarray, np.ndarray]:
        """``(exp(hA), W_h(B))`` over one step ``h = t*/steps``, read-only and held."""
        steps, b = as_count(steps, "steps"), as_columns(B, self.system.n)
        held = self._step_map
        if held is None or held[1] != steps or not same_bits(held[0], b):
            # W_h is the ladder's, never a chain of the map it replaces.
            self._step_map, h = None, self.t_star / steps
            w = self._integral(b, h)
            held = self._step_map = (_schematic(self.system._memo, b), steps, self.propagator(h), w)
        return held[2:]

    def propagate(self, x0) -> np.ndarray:
        """Autonomous endpoint ``exp(t* A) x0``."""
        x0 = as_vector(x0, n=self.system.n, name="x0")
        return self.propagator(self.t_star) @ x0
