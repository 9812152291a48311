"""Small numeric helpers shared across modules."""

import numpy as np

from .errors import InvalidInputError


def as_vector(x, n=None, name="vector"):
    """Coerce to a finite 1-D float array, optionally of length ``n``; a scalar,
    or an array with at most one axis longer than 1, is a vector."""
    v = np.asarray(x, dtype=float)
    if sum(k != 1 for k in v.shape) > 1:
        raise InvalidInputError(f"{name} must be a vector, got shape {v.shape}")
    v = v.ravel()
    if not np.isfinite(v).all():
        raise InvalidInputError(f"{name} has non-finite entries")
    if n is not None and v.shape[0] != n:
        raise InvalidInputError(f"{name} has length {v.shape[0]}, expected {n}")
    return v


def as_matrix(x, shape=None, name="matrix", square=False):
    """Coerce to a finite 2-D float array, optionally square or of the given shape."""
    a = np.atleast_2d(np.asarray(x, dtype=float))
    if a.ndim > 2:
        raise InvalidInputError(f"{name} must be a matrix, got shape {a.shape}")
    if square and a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} has non-finite entries")
    if shape is not None and a.shape != shape:
        raise InvalidInputError(f"{name} has shape {a.shape}, expected {shape}")
    return a


def as_columns(x, n=None, name="B"):
    """Coerce an input schematic to a finite n x m float array, m >= 1, n
    rows when ``n`` is given; a vector is one column."""
    b = np.asarray(x, dtype=float)
    if b.ndim == 1:
        b = b[:, None]
    if b.ndim != 2 or b.shape[1] < 1:
        raise InvalidInputError(f"{name} must be a vector or an n x m matrix with m >= 1, "
                                f"got shape {b.shape}")
    if n is not None and b.shape[0] != n:
        raise InvalidInputError(f"{name} row count {b.shape[0]} must match system size {n}")
    if not np.isfinite(b).all():
        raise InvalidInputError(f"{name} has non-finite entries")
    return b


def as_horizon(t_star) -> float:
    """A horizon as a float; it must be a finite and positive real number."""
    t = np.asarray(t_star)
    if t.shape or t.dtype.kind not in "iuf" or not 0.0 < float(t) < np.inf:
        raise InvalidInputError("t_star must be a positive real")
    return float(t)


def as_count(x, name, minimum=1) -> int:
    """An integer count, a Python or numpy integer (never a bool), of at least ``minimum``."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise InvalidInputError(f"{name} must be an integer, got {x!r}")
    if x < minimum:
        raise InvalidInputError(f"{name} must be at least {minimum}")
    return int(x)


def write_csv_rows(fh, rows, end="\r\n") -> None:
    """Write each row of a 2-D float array as ``%.17g`` fields, each line ending
    in ``end``, CRLF by default as csv.writer's do; one row at a time keeps memory flat."""
    template = ",".join(["%.17g"] * rows.shape[1]) + end
    for r in rows:
        fh.write(template % tuple(r.tolist()))


def canonical_sign(vec, ref):
    """Fix the sign of an eigenvector-like direction deterministically.

    Prefers a nonnegative inner product with ``ref``; when that product is
    (numerically) zero, makes the largest-magnitude entry positive, breaking
    magnitude ties at the lowest index.
    """
    vec = np.asarray(vec, dtype=float)
    p = float(np.dot(ref, vec))
    if abs(p) > 1e-12 * (np.linalg.norm(ref) * np.linalg.norm(vec)):
        return vec if p > 0 else -vec
    i = int(np.argmax(np.abs(vec)))
    return -vec if vec[i] < 0 else vec


def centering_matrix(n):
    """Projector removing the per-entry mean: identity minus the all-ones rank-1 part."""
    return np.eye(n) - np.full((n, n), 1.0 / n)

