"""Edge-list and matrix file ingestion, plus the bundled sample network."""

import io
import math
import warnings
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import EdgeListParseError, InvalidInputError
from .linsys import LinearSystem

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


# numpy's row types for files whose data lines all have 2 fields, or all 3.
_ROWS = {2: np.dtype([("i", np.intp), ("j", np.intp)]),
         3: np.dtype([("i", np.intp), ("j", np.intp), ("w", float)])}


def _read_uniform(text, undirected: bool):
    """``(n, rows, cols, weights)`` of ``text`` by numpy's C reader, in line
    order, or None where it is not a file that reader takes whole: data lines
    of one field count (2 or 3), ids it parses as int64, all at least 1 and
    with n² within int64, finite weights and each position once.
    ``_parse_lines`` reads the rest."""
    first = next((p for raw in io.StringIO(text) if (p := raw.split("#", 1)[0].split())), ())
    if len(first) not in _ROWS:
        return None
    try:
        data = np.loadtxt(io.StringIO(text), dtype=_ROWS[len(first)], comments="#", ndmin=1)
    except ValueError:
        return None
    i, j = data["i"], data["j"]
    weights = data["w"] if len(first) == 3 else np.ones(len(data))
    if undirected:
        i, j = np.minimum(i, j), np.maximum(i, j)
    n = int(max(i.max(), j.max()))
    # The duplicate test codes each position as rows * n + cols < n**2.
    if min(i.min(), j.min()) < 1 or n * n > np.iinfo(np.intp).max or not np.isfinite(weights).all():
        return None
    rows, cols = i - 1, j - 1
    codes = np.sort(rows * n + cols)
    if (codes[1:] == codes[:-1]).any():
        return None
    return n, rows, cols, weights


def parse_edge_list(path, undirected: bool = True):
    """Read a whitespace-separated `i j [w]` edge list as index and weight arrays.

    Node ids are 1-based; `#` starts a comment; weights default to 1; repeated
    edges sum with a warning. The undirected flag mirrors each entry off the
    diagonal. Returns `(n, rows, cols, weights)`, n being the highest id seen
    and each 0-based position (rows[k], cols[k]) occurring once, as
    ``LinearSystem.from_edges`` takes them, in the order of the lines.

    The file is read and decoded once. numpy's C reader (``np.loadtxt``)
    takes it whole when every data line has 2 fields, or every one 3, the
    ids are at least 1 and n² fits int64, the weights are finite and no
    position repeats. Every other file goes to the line-by-line reader,
    which alone names a line in an error or in a duplicate warning: mixed
    field counts, ids or weights Python reads and numpy does not (``1_0``,
    non-ASCII digits, ids past int64), malformed lines, zero ids, non-finite
    weights and duplicates. Both give the same arrays, byte for byte, and
    the same errors and warnings.
    """
    try:
        with open(path) as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError:
                # The line loop decodes as it reads, so a bad line before the
                # undecodable bytes is named first, as it always was.
                fh.seek(0)
                _parse_lines(fh, undirected)
                raise
    except UnicodeDecodeError as exc:
        raise EdgeListParseError(f"{path}: cannot be decoded as text: {exc}") from exc
    edges = _read_uniform(text, undirected)
    if edges is not None:
        n, rows, cols, weights = edges
    else:
        edges = _parse_lines(io.StringIO(text), undirected)
        keys = np.array(list(edges), dtype=np.intp)
        n, (rows, cols) = int(keys.max()) + 1, keys.T
        weights = np.fromiter(edges.values(), dtype=float, count=len(edges))
    if undirected:
        # Undirected keys hold i <= j, so the mirrored positions are new.
        off = rows != cols
        rows, cols, weights = (np.concatenate([x, y[off]]) for x, y in
                               ((rows, cols), (cols, rows), (weights, weights)))
    return n, rows, cols, weights


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
        return np.array(LinearSystem.from_edges(*parse_edge_list(path, undirected=True)).A)
