"""Edge-list and matrix file ingestion, plus the bundled sample network."""

import io
import warnings
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import EdgeListParseError

__all__ = [
    "parse_edge_list",
    "load_dense_matrix",
    "write_matrix_csv",
    "karate_club_adjacency",
]


def _parse_lines(lines, undirected: bool):
    edges: dict[tuple[int, int], float] = {}
    max_node = 0
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
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
        if not np.isfinite(w):
            raise EdgeListParseError(f"line {ln}: non-finite weight", line_number=ln)
        key = (min(i, j) - 1, max(i, j) - 1) if undirected else (i - 1, j - 1)
        if key in edges:
            warnings.warn(
                f"duplicate edge {i} {j} on line {ln}; weights summed", stacklevel=3
            )
            edges[key] += w
        else:
            edges[key] = w
        max_node = max(max_node, i, j)
    if not edges:
        raise EdgeListParseError("no edges")
    return edges, max_node


def parse_edge_list(path, undirected: bool = True):
    """Read a whitespace-separated `i j [w]` edge list into an adjacency matrix.

    Node ids are 1-based; `#` starts a comment; weights default to 1; repeated
    edges sum with a warning. The undirected flag mirrors each entry. Returns
    the dense n x n adjacency, n being the highest id seen.
    """
    with open(path) as fh:
        edges, n = _parse_lines(fh, undirected)
    adj = np.zeros((n, n))
    for (i, j), w in edges.items():
        adj[i, j] += w
        if undirected and i != j:
            adj[j, i] += w
    return adj


def load_dense_matrix(path):
    """Dense real matrix from a CSV or whitespace-separated text file."""
    text = Path(path).read_text()
    first = next((ln for ln in text.splitlines() if ln.strip()), "")
    delim = "," if "," in first else None
    return np.loadtxt(io.StringIO(text), delimiter=delim, ndmin=2)


def write_matrix_csv(path, matrix) -> None:
    np.savetxt(path, np.atleast_2d(matrix), delimiter=",", fmt="%.17g")


def karate_club_adjacency():
    """Bundled Zachary karate club network (34 nodes, 78 undirected edges)."""
    ref = resources.files("fluxcontrol").joinpath("data/karate_club.edges")
    with resources.as_file(ref) as path:
        return parse_edge_list(path, undirected=True)
