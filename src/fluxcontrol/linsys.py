"""Linear time-invariant network systems and the PBH controllability test.

A system is the dynamics matrix ``A`` of ``xdot = A x + B u`` together with the
weighted digraph it encodes (edge (i, j) present iff ``A[i, j] != 0``). It is
kept dense, or as the index and value arrays of its entries, from which the
flux path reads matvecs in O(nnz) and the dense ``A`` is formed on first read.
"""

from dataclasses import dataclass, field

import numpy as np

from ._util import as_columns, as_count, as_matrix, as_vector, same_bits
from .errors import InvalidInputError

__all__ = [
    "LinearSystem",
    "ControllabilityReport",
    "laplacian_system",
    "controllability_report",
    "output_controllable_sufficient",
]

# Relative tolerance for clustering eigenvalues when counting multiplicities.
_EIG_CLUSTER_TOL = 1e-8
# Largest |A - A^T| entry, relative to the largest |A| entry, of a symmetric A.
_SYMMETRY_RTOL = 1e-12


class LinearSystem:
    """LTI dynamics matrix, dense or from an edge list.

    Attributes:
        A: n x n real dynamics matrix, all entries finite; a read-only copy
            of the argument, so what is derived from it cannot go stale, or
            formed on first read for a system from ``from_edges``.
        edges: ``(rows, cols, values)`` of A's entries for a system from
            ``from_edges``, else None.

    A system also keeps what the Gramian engine derived from it: a memo of
    the engine's kernels (``gramian``), each value under its exact inputs,
    among them ``flux_matrix``'s Krylov space of (A^T, v) for the last v it
    took. The memo is not pickled or copied.
    """

    def __init__(self, A):
        a = as_matrix(A, name="A", square=True).copy()
        a.flags.writeable = False
        self.n, self.edges, self._source, self._a = a.shape[0], None, None, a
        self._memo = {}

    @classmethod
    def from_edges(cls, n, rows, cols, weights, laplacian=False) -> "LinearSystem":
        """The system whose adjacency holds ``weights[k]`` at each 0-based
        position ``(rows[k], cols[k])``, which occurs once; ``laplacian`` makes
        it minus the graph Laplacian, as ``laplacian_system`` does. No n x n
        array is formed until ``A`` is read; ``n`` is an integer, and the
        positions are integer arrays, never truncated."""
        n = as_count(n, "n")
        rows, cols = (np.asarray(x) for x in (rows, cols))
        if any(x.dtype.kind not in "iu" and x.size for x in (rows, cols)):
            raise InvalidInputError(f"rows and cols must be integer arrays, got "
                                    f"{rows.dtype} and {cols.dtype}")
        rows, cols = rows.astype(np.intp), cols.astype(np.intp)
        weights = as_vector(weights, name="weights")
        idx = np.concatenate([rows, cols])
        if not rows.shape == cols.shape == weights.shape or np.any((idx < 0) | (idx >= n)):
            raise InvalidInputError(f"edge arrays must be equal-length positions in 0..{n - 1}")
        source, edges = (n, rows, cols, weights, laplacian), (rows, cols, weights)
        if laplacian:
            if np.any(weights < 0):
                raise InvalidInputError("adjacency weights must be nonnegative")
            if np.any(weights[rows == cols] != 0):
                raise InvalidInputError("adjacency must have a zero diagonal")
            # a_ij + a_ji and a_ij - a_ji at each position of either, as the dense sums round them.
            keys, at = np.unique(np.concatenate([rows * n + cols, cols * n + rows]),
                                 return_inverse=True)
            sym, skew = (np.bincount(at, weights=np.concatenate([weights, sign * weights]))
                         for sign in (1, -1))
            if np.any(np.abs(skew) > 1e-12 * np.max(np.abs(weights), initial=1.0)):
                raise InvalidInputError("adjacency must be symmetric")
            (rows, cols), off, diag = np.divmod(keys, n), 0.5 * sym, np.arange(n)
            edges = (np.concatenate([rows, diag]), np.concatenate([cols, diag]), as_vector(
                np.concatenate([off, -np.bincount(rows, weights=off, minlength=n)]), name="A"))
        system = cls.__new__(cls)
        system.n, system.edges, system._source, system._a = n, edges, source, None
        system._memo = {}
        return system

    @property
    def A(self) -> np.ndarray:
        if self._a is None:
            n, rows, cols, weights, laplacian = self._source
            adj = np.zeros((n, n))
            # Each position occurs once, so every entry takes one sum onto zero (a -0 weight reads 0).
            adj[rows, cols] += weights
            if laplacian:
                adj = 0.5 * (adj + adj.T)
                adj = -(np.diag(adj.sum(axis=1)) - adj)
            self._a = as_matrix(adj, name="A")
            self._a.flags.writeable = False
        return self._a

    def __reduce__(self):
        # Pickle and deepcopy rebuild from A or the edge arrays: the memo's Krylov space holds a lock.
        return (type(self), (self._a,)) if self._source is None else (self.from_edges, self._source)

    def same_bits(self, other: "LinearSystem") -> bool:
        """Whether ``other`` was built from the same bits: the same dense A, or
        the same edge arrays and ``laplacian`` flag (-0.0 is not 0.0)."""
        if (self._source is None) != (other._source is None):
            return False
        if self._source is None:
            return same_bits(self._a, other._a)
        (n, *arrays, laplacian), (m, *others, lap) = self._source, other._source
        return n == m and bool(laplacian) == bool(lap) and all(map(same_bits, arrays, others))

    def is_symmetric(self) -> bool:
        # Max-abs entries, not norms: a norm squares them and overflows past ~1e154.
        scale = float(np.max(np.abs(self.A)))
        with np.errstate(over="ignore"):
            skew = float(np.max(np.abs(self.A - self.A.T)))
        return skew <= _SYMMETRY_RTOL * scale


@dataclass(frozen=True)
class ControllabilityReport:
    """Controllability of a system and input matrix, and the minimum controller count.

    Attributes:
        controllable: the PBH test's verdict on ``(A, B)``.
        min_drivers: the fewest controllers any schematic needs, the largest
            geometric multiplicity of an eigenvalue of ``A``.
        eigenvalues: the eigenvalues of ``A``.
    """

    controllable: bool
    min_drivers: int
    eigenvalues: np.ndarray = field(repr=False, default=None)


def laplacian_system(adjacency) -> LinearSystem:
    """Diffusive dynamics from a nonnegative symmetric adjacency matrix.

    Returns the system with dynamics matrix equal to minus the graph
    Laplacian (degree matrix minus adjacency), so row sums are zero and the
    all-ones vector is invariant. The adjacency is kept as its nonzero
    entries (``LinearSystem.from_edges``).
    """
    adj = as_matrix(adjacency, name="adjacency", square=True)
    rows, cols = np.nonzero(adj)
    return LinearSystem.from_edges(adj.shape[0], rows, cols, adj[rows, cols], laplacian=True)


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


def controllability_report(system: LinearSystem, B) -> ControllabilityReport:
    """PBH controllability test of the n x m input matrix ``B`` and the minimum
    number of controllers.

    ``(A, B)`` is controllable iff ``[lam I - A, B]`` has full row rank at
    every eigenvalue ``lam`` of ``A`` (Popov-Belevitch-Hautus). The minimum
    controller count is the largest geometric multiplicity over those
    eigenvalues (Yuan et al. 2013), from the null-space rank of
    ``lam I - A``. Both ranks are taken per cluster of nearby eigenvalues.
    The rank of ``[B, AB, ..., A^(n-1) B]`` is not used: its columns scale
    like the powers of ``A``, so its numerical rank falls short of n on
    controllable systems from n of about 20 on (Paige 1981).
    """
    b, n = as_columns(B, system.n), system.n
    eigs = np.linalg.eigvals(system.A)
    controllable = True
    min_drivers = 1
    eye = np.eye(n)
    for lam in _cluster_eigenvalues(eigs):
        shifted = lam * eye - system.A
        geo_mult = n - _numeric_rank(shifted, n)
        min_drivers = max(min_drivers, geo_mult)
        if _numeric_rank(np.hstack([shifted, b.astype(complex)]), n) < n:
            controllable = False
    return ControllabilityReport(
        controllable=controllable,
        min_drivers=min_drivers,
        eigenvalues=eigs,
    )


def output_controllable_sufficient(weights, B) -> bool:
    """Sufficient test that the linear observer w^T x can reach any threshold.

    True iff some column of the n x m input matrix ``B`` has a nonzero
    weighted column sum; a true result guarantees the observer is
    controllable from that ``B`` alone.
    """
    b = as_columns(B)
    w = as_vector(weights, n=b.shape[0], name="weights")
    wn = np.linalg.norm(w)
    for j in range(b.shape[1]):
        col = b[:, j]
        if abs(float(w @ col)) > 1e-12 * wn * np.linalg.norm(col):
            return True
    return False
