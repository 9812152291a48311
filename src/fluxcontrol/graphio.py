"""Edge-list and matrix file ingestion, plus the bundled sample network."""

import io
import math
import warnings
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import EdgeListParseError, InvalidInputError

__all__ = [
    "parse_edge_list",
    "load_dense_matrix",
    "write_matrix_csv",
    "karate_club_adjacency",
]


def _parse_lines(lines, undirected: bool):
    edges: dict[tuple[int, int], float] = {}
    for ln, raw in enumerate(lines, start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if len(parts) not in (2, 3):
            raise EdgeListParseError(
                f"line {ln}: expected 'i j [w]', got {raw.strip()!r}", line_number=ln
            )
        try:
            i = int(parts[0])
            j = int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise EdgeListParseError(f"line {ln}: {exc}", line_number=ln) from exc
        if i < 1 or j < 1:
            raise EdgeListParseError(
                f"line {ln}: node ids are 1-based positive integers", line_number=ln
            )
        if not math.isfinite(w):
            raise EdgeListParseError(f"line {ln}: non-finite weight", line_number=ln)
        key = (min(i, j) - 1, max(i, j) - 1) if undirected else (i - 1, j - 1)
        if key in edges:
            warnings.warn(
                f"duplicate edge {i} {j} on line {ln}; weights summed", stacklevel=3
            )
            edges[key] += w
        else:
            edges[key] = w
    if not edges:
        raise EdgeListParseError("no edges")
    return edges


def parse_edge_list(path, undirected: bool = True):
    """Read a whitespace-separated `i j [w]` edge list into an adjacency matrix.

    Node ids are 1-based; `#` starts a comment; weights default to 1; repeated
    edges sum with a warning. The undirected flag mirrors each entry. Returns
    the dense n x n adjacency, n being the highest id seen.
    """
    try:
        with open(path) as fh:
            edges = _parse_lines(fh, undirected)
    except UnicodeDecodeError as exc:
        raise EdgeListParseError(f"{path}: cannot be decoded as text: {exc}") from exc
    keys = np.array(list(edges), dtype=np.intp)
    n, (rows, cols) = int(keys.max()) + 1, keys.T
    adj = np.zeros((n, n))
    # Each key occurs once, so every entry takes one sum onto zero (a -0 weight
    # reads 0); undirected keys hold i <= j, and the mirror copies them below
    # the diagonal.
    adj[rows, cols] += np.fromiter(edges.values(), dtype=float, count=len(edges))
    if undirected:
        adj[cols, rows] = adj[rows, cols]
    return adj


def load_dense_matrix(path):
    """Dense real matrix from a CSV or whitespace-separated text file; `#`
    starts a comment, and the first line with data picks the delimiter."""
    try:
        text = Path(path).read_text()
        first = next((s for ln in text.splitlines() if (s := ln.split("#", 1)[0].strip())), "")
        if first:
            return np.loadtxt(io.StringIO(text), delimiter="," if "," in first else None, ndmin=2)
    except ValueError as exc:
        raise InvalidInputError(f"{path}: not a dense numeric matrix: {exc}") from exc
    raise InvalidInputError(f"{path}: no data rows")


def write_matrix_csv(path, matrix) -> None:
    np.savetxt(path, np.atleast_2d(matrix), delimiter=",", fmt="%.17g")


def karate_club_adjacency():
    """Bundled Zachary karate club network (34 nodes, 78 undirected edges)."""
    ref = resources.files("fluxcontrol").joinpath("data/karate_club.edges")
    with resources.as_file(ref) as path:
        return parse_edge_list(path, undirected=True)
