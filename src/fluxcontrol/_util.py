"""Small numeric helpers shared across modules."""

import numpy as np

from .errors import InvalidInputError


def as_vector(x, n=None, name="vector"):
    """Coerce to a finite 1-D float array, optionally of length ``n``."""
    v = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    if not np.all(np.isfinite(v)):
        raise InvalidInputError(f"{name} has non-finite entries")
    if n is not None and v.shape[0] != n:
        raise InvalidInputError(f"{name} has length {v.shape[0]}, expected {n}")
    return v


def as_matrix(x, shape=None, name="matrix"):
    """Coerce to a finite 2-D float array, optionally of the given shape."""
    a = np.atleast_2d(np.asarray(x, dtype=float))
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} has non-finite entries")
    if shape is not None and a.shape != shape:
        raise InvalidInputError(f"{name} has shape {a.shape}, expected {shape}")
    return a


def write_csv_rows(fh, rows) -> None:
    """Write each row of a 2-D float array as ``%.17g`` fields, each line ending
    in CRLF as csv.writer's do; one row at a time keeps memory flat."""
    template = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
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

