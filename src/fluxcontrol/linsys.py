"""Linear time-invariant network systems and the PBH controllability test.

A system is the dense dynamics matrix ``A`` of ``xdot = A x + B u`` together
with the weighted digraph it encodes (edge (i, j) present iff ``A[i, j] != 0``).
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from ._util import as_matrix, as_vector
from .errors import InvalidInputError

__all__ = [
    "LinearSystem",
    "InputSchematic",
    "ControllabilityReport",
    "transition_matrix",
    "laplacian_system",
    "controllability_report",
    "output_controllable_sufficient",
]

# Relative tolerance for clustering eigenvalues when counting multiplicities.
_EIG_CLUSTER_TOL = 1e-8


@dataclass(frozen=True)
class LinearSystem:
    """Dense LTI dynamics matrix.

    Attributes:
        A: n x n real dynamics matrix, all entries finite; a read-only copy
            of the argument, so what is derived from it cannot go stale.
    """

    A: np.ndarray
    # One slot for flux_matrix's Krylov space of (A^T, v), for the last v it took.
    _krylov: list = field(default_factory=lambda: [None], init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        a = as_matrix(self.A, name="A")
        if a.shape[0] != a.shape[1]:
            raise InvalidInputError(f"A must be square, got shape {a.shape}")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "A", a)

    def __reduce__(self):
        # Pickle and deepcopy rebuild from A: the cached space holds a lock.
        return type(self), (self.A,)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def is_symmetric(self, rtol: float = 1e-12) -> bool:
        # Max-abs entries, not norms: a norm squares them and overflows past ~1e154.
        scale = float(np.max(np.abs(self.A)))
        with np.errstate(over="ignore"):
            skew = float(np.max(np.abs(self.A - self.A.T)))
        return skew <= rtol * max(scale, 1.0)


@dataclass(frozen=True)
class InputSchematic:
    """n x m input matrix routing m control signals to nodes.

    When ``sphere_normalized`` is set the trace constraint
    ``tr(B^T B) = m + epsilon`` is enforced at construction.
    """

    B: np.ndarray
    sphere_normalized: bool = False
    epsilon: float = 0.0

    def __post_init__(self):
        b = np.asarray(self.B, dtype=float)
        if b.ndim == 1:
            b = b[:, None]
        b = as_matrix(b, name="B")
        if b.shape[1] < 1:
            raise InvalidInputError("schematic needs at least one controller column")
        object.__setattr__(self, "B", b)
        if self.sphere_normalized:
            m = b.shape[1]
            target = m + self.epsilon
            if abs(float(np.trace(b.T @ b)) - target) > 1e-10 * m:
                raise InvalidInputError(
                    "schematic flagged sphere-normalized but tr(B^T B) is off target"
                )

    @property
    def n(self) -> int:
        return self.B.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @classmethod
    def identity(cls, n: int) -> "InputSchematic":
        """Full actuation: one controller per node."""
        return cls(np.eye(n))

    @classmethod
    def single_node(cls, n: int, node: int) -> "InputSchematic":
        """Driver-node form: one controller attached to one node."""
        if not 0 <= node < n:
            raise InvalidInputError(f"node index {node} out of range for n={n}")
        b = np.zeros((n, 1))
        b[node, 0] = 1.0
        return cls(b)


@dataclass(frozen=True)
class ControllabilityReport:
    """Controllability of a system and schematic, and the minimum controller count.

    Attributes:
        controllable: the PBH test's verdict on ``(A, B)``.
        min_drivers: the fewest controllers any schematic needs, the largest
            geometric multiplicity of an eigenvalue of ``A``.
        eigenvalues: the eigenvalues of ``A``.
    """

    controllable: bool
    min_drivers: int
    eigenvalues: np.ndarray = field(repr=False, default=None)


def transition_matrix(system: LinearSystem, t: float) -> np.ndarray:
    """State-transition matrix of the autonomous dynamics over a horizon ``t``.

    Scaling-and-squaring Pade evaluation; accurate to machine-level relative
    error for well-conditioned dynamics.
    """
    if not np.isfinite(t):
        raise InvalidInputError("horizon t must be finite")
    return expm(float(t) * system.A)


def laplacian_system(adjacency) -> LinearSystem:
    """Diffusive dynamics from a nonnegative symmetric adjacency matrix.

    Returns the system with dynamics matrix equal to minus the graph
    Laplacian (degree matrix minus adjacency), so row sums are zero and the
    all-ones vector is invariant.
    """
    adj = as_matrix(adjacency, name="adjacency")
    if adj.shape[0] != adj.shape[1]:
        raise InvalidInputError("adjacency must be square")
    if np.any(adj < 0):
        raise InvalidInputError("adjacency weights must be nonnegative")
    if np.any(np.diag(adj) != 0):
        raise InvalidInputError("adjacency must have a zero diagonal")
    scale = max(np.abs(adj).max(), 1.0)
    if not np.allclose(adj, adj.T, rtol=0.0, atol=1e-12 * scale):
        raise InvalidInputError("adjacency must be symmetric")
    adj = 0.5 * (adj + adj.T)
    lap = np.diag(adj.sum(axis=1)) - adj
    return LinearSystem(-lap)


def _numeric_rank(mat: np.ndarray, n: int) -> int:
    """Rank with singular values below n * ||mat||_2 * eps treated as zero."""
    if mat.size == 0:
        return 0
    s = np.linalg.svd(mat, compute_uv=False)
    if s[0] == 0.0:
        return 0
    return int(np.sum(s > n * s[0] * np.finfo(float).eps))


def _cluster_eigenvalues(eigs: np.ndarray) -> list[complex]:
    """Greedy clustering of (possibly complex) eigenvalues within a shared tolerance."""
    tol = _EIG_CLUSTER_TOL * max(1.0, float(np.max(np.abs(eigs))) if eigs.size else 1.0)
    reps: list[complex] = []
    for lam in sorted(eigs, key=lambda c: (c.real, c.imag)):
        for i, rep in enumerate(reps):
            if abs(lam - rep) <= tol:
                reps[i] = 0.5 * (rep + lam)
                break
        else:
            reps.append(complex(lam))
    return reps


def controllability_report(
    system: LinearSystem, schematic: InputSchematic
) -> ControllabilityReport:
    """PBH controllability test and the minimum number of controllers.

    ``(A, B)`` is controllable iff ``[lam I - A, B]`` has full row rank at
    every eigenvalue ``lam`` of ``A`` (Popov-Belevitch-Hautus). The minimum
    controller count is the largest geometric multiplicity over those
    eigenvalues (Yuan et al. 2013), from the null-space rank of
    ``lam I - A``. Both ranks are taken per cluster of nearby eigenvalues.
    The rank of ``[B, AB, ..., A^(n-1) B]`` is not used: its columns scale
    like the powers of ``A``, so its numerical rank falls short of n on
    controllable systems from n of about 20 on (Paige 1981).
    """
    if schematic.n != system.n:
        raise InvalidInputError("schematic row count must match system size")
    n = system.n
    eigs = np.linalg.eigvals(system.A)
    controllable = True
    min_drivers = 1
    eye = np.eye(n)
    for lam in _cluster_eigenvalues(eigs):
        shifted = lam * eye - system.A
        geo_mult = n - _numeric_rank(shifted, n)
        min_drivers = max(min_drivers, geo_mult)
        if _numeric_rank(np.hstack([shifted, schematic.B.astype(complex)]), n) < n:
            controllable = False
    return ControllabilityReport(
        controllable=controllable,
        min_drivers=min_drivers,
        eigenvalues=eigs,
    )


def output_controllable_sufficient(weights, schematic: InputSchematic) -> bool:
    """Sufficient test that the linear observer w^T x can reach any threshold.

    True iff some controller column has a nonzero weighted column sum; a true
    result guarantees the observer is controllable from that schematic alone.
    """
    w = as_vector(weights, n=schematic.n, name="weights")
    wn = np.linalg.norm(w)
    for j in range(schematic.m):
        col = schematic.B[:, j]
        if abs(float(w @ col)) > 1e-12 * wn * np.linalg.norm(col):
            return True
    return False
