"""Small numeric helpers shared across modules."""

import functools

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


def as_positive_real(x, name) -> float:
    """A finite and positive real number, a Python or numpy scalar (never a bool
    or a string), as a float."""
    t = np.asarray(x)
    if t.shape or t.dtype.kind not in "iuf" or not 0.0 < float(t) < np.inf:
        raise InvalidInputError(f"{name} must be a positive real")
    return float(t)


def same_bits(x, y) -> bool:
    """Whether two arrays hold the same values bit for bit: equal shapes and
    dtypes, and elements equal as unsigned integers, so -0.0 is not 0.0."""
    return x is y or (x.shape == y.shape and x.dtype == y.dtype and np.array_equal(
        x.view(f"u{x.itemsize}"), y.view(f"u{y.itemsize}")))


def as_count(x, name, minimum=1) -> int:
    """An integer count, a Python or numpy integer (never a bool), of at least ``minimum``."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
        raise InvalidInputError(f"{name} must be an integer, got {x!r}")
    if x < minimum:
        raise InvalidInputError(f"{name} must be at least {minimum}")
    return int(x)


def write_csv_rows(fh, rows, end="\r\n") -> None:
    """Write each row of a 2-D float array as comma-separated fields, each line
    ending in ``end`` (``"\\r\\n"``, csv.writer's, or ``"\\n"``).

    Every field is byte-identical to ``'%.17g' % v``. An array of at least
    ``_VECTOR_MIN`` fields is formatted in numpy, ``_BLOCK`` fields at a time,
    so memory stays bounded whatever its size; a smaller one row by row.
    """
    if rows.size < _VECTOR_MIN:
        template = ",".join(["%.17g"] * rows.shape[1]) + end
        for r in rows:
            fh.write(template % tuple(r.tolist()))
        return
    x = np.asarray(rows, dtype=float).ravel()
    src = np.empty((_BLOCK, _SRC_COLS), np.uint8)
    src[:, :_LEAD] = np.frombuffer(_CONSTANTS + end.encode("ascii").ljust(2, b"\0"), np.uint8)
    for start in range(0, x.size, _BLOCK):
        fh.write(_format_block(x[start:start + _BLOCK], src, start, rows.shape[1]))


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


# '%.17g' in numpy. A finite nonzero x whose decimal exponent X, after rounding
# to 17 significant digits, lies in [-4, 16] is printed in fixed notation from
# those digits D, 10**16 <= D < 10**17. |x| * 10**(16 - X) is formed exactly as
# hi + lo by Dekker's product (Dekker 1971); hi >= 10**16 > 2**53 is an even
# integer, so hi + rint(lo) rounds it half to even, as '%.17g' does. A field's
# bytes are gathered from its row of a source table (constants, then the
# digits) by a layout fixed by X, the last nonzero digit, the sign and whether
# the field ends its line; trailing zeros and unused slots map to NUL, which is
# then deleted. Every other field (zero, non-finite, X outside [-4, 16], or a
# decade log10 misplaced and one step cannot mend) becomes a '%.17g'
# placeholder that Python's own formatting fills.

# Fields below which the row-by-row template is faster (200 to 250 on a 2-vCPU
# Xeon VM); blocks of 1024 fields keep the gather index near 200 KB.
_VECTOR_MIN = 256
_BLOCK = 1024

_SPLITTER = 134217729.0  # 2**27 + 1, Veltkamp's split into two 26-bit halves
_POW10 = np.cumprod(np.r_[1.0, np.full(22, 10.0)])  # 10**q, exact for q <= 22


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


def _scaled(a, q):
    """``a * 10**q`` exactly, as the rounded product ``hi`` and its error ``lo``."""
    (ah, al), bh, bl = _split(a), _POW10_HI[q], _POW10_LO[q]
    hi = a * _POW10[q]
    return hi, ((ah * bh - hi) + ah * bl + al * bh) + al * bl


def _in_decade(hi, lo):
    """Whether ``10**16 <= hi + lo < 10**17``, decided exactly."""
    return (((hi > 1e16) | ((hi == 1e16) & (lo >= 0)))
            & ((hi < 1e17) | ((hi == 1e17) & (lo < 0))))


def _fixed_digits(x):
    """``(D, X, fixed)``: ``|x| = D * 10**(X - 16)`` rounded half to even, for
    the fields ``fixed`` marks, those printed in fixed notation."""
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
    fixed = (e >= -4) & (e <= 16)  # False for 0, nan and inf
    a = np.where(fixed, a, 1.0)
    e = np.where(fixed, e, 0.0).astype(np.intp)
    hi, lo = _scaled(a, 16 - e)
    # log10 can land in the next decade near a power of ten: move e by one.
    redo = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    if redo.size:
        redo = redo[~_in_decade(hi[redo], lo[redo])]
        e[redo] += np.where(hi[redo] <= 1e16, -1, 1)
        hi[redo], lo[redo] = _scaled(a[redo], 16 - np.minimum(e[redo], 16))
        fixed[redo] &= (e[redo] <= 16) & _in_decade(hi[redo], lo[redo])
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    # No double in [1e-5, 1e17) is within half a 17th digit below a power of
    # ten, so D never rounds up to 10**17 here; one that did would not be fixed.
    fixed &= (e >= -4) & (d < 10**17)
    return d, e, fixed


# Source table columns: NUL, the constants "0.%17g-,", two line-end bytes, the
# leading digit, then four 4-digit groups as 32-bit words 3..6.
_CONSTANTS = b"\0" + b"0.%17g-,"
_NUL, _ZERO, _POINT, _PERCENT, _ONE, _SEVEN, _G, _MINUS, _COMMA, _END = range(10)
_LEAD, _SRC_COLS, _WIDTH = 11, 28, 25  # "-0.000" + 17 digits + 2 line-end bytes
_ROW_START = np.arange(0, _BLOCK * _SRC_COLS, _SRC_COLS)[:, None]
# Layout rows, one per key = 4 * (17 * (X + 4) + last) + 2 * negative + line_end;
# keys _PLACEHOLDER and _PLACEHOLDER + 1 write '%.17g'.
_PLACEHOLDER = 2 * 2 * 21 * 17


@functools.cache
def _tables():
    """The ASCII digits of each 4-digit group as one 32-bit word; ``last_place[i,
    g]``, the place among digits 1..16 of group i's last nonzero digit (0 for g = 0);
    and the layout rows. Built on the first write that takes the numpy path,
    so a process that writes no large CSV pays neither their time nor memory."""
    groups = np.arange(10000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], np.int16)
    groups %= 10
    digits4 = (groups + ord("0")).astype(np.uint8).view(np.uint32).ravel()
    last_place = np.where(groups.any(axis=1),
                          4 * np.arange(1, 5, dtype=np.uint8)[:, None]
                          - np.argmax(groups[:, ::-1] != 0, axis=1).astype(np.uint8),
                          0).astype(np.uint8)
    # A fixed field shows the decimal places 10**top down to 10**bottom, top =
    # max(X, 0) and bottom = min(X - last, 0), with a point after 10**0 when
    # bottom < 0; the place 10**p holds digit X - p when p <= X, else a '0'.
    key = np.arange(_PLACEHOLDER, dtype=np.int16)[:, None]
    x, last, negative, line_end = key // 68 - 4, key // 4 % 17, key // 2 % 2, key % 2
    top, bottom = np.maximum(x, 0), np.minimum(x - last, 0)
    slot = np.arange(_WIDTH, dtype=np.int16) - negative  # the byte's place in the unsigned number
    place = top - slot + (slot > top)
    cols = np.where(place > x, _ZERO, _LEAD + x - place)
    cols = np.where(slot == top + 1, _POINT, cols)
    end = top - bottom + 1 + (bottom < 0)
    cols = np.where(slot < end, cols, np.where(slot > end, _NUL, np.where(line_end, _END, _COMMA)))
    cols = np.where((slot == end + 1) & (line_end == 1), _END + 1, cols)
    placeholder = np.zeros((2, _WIDTH), np.int16)
    placeholder[:, :5] = [_PERCENT, _POINT, _ONE, _SEVEN, _G]
    placeholder[:, 5:7] = [[_COMMA, _NUL], [_END, _END + 1]]
    layouts = np.vstack([np.where(slot < 0, _MINUS, cols), placeholder]).astype(np.intp)
    for table in (digits4, last_place, layouts):
        table.flags.writeable = False
    return digits4, last_place, layouts


def _format_block(x, src, first, ncols):
    """The text of the flat fields ``x``, the first of them field ``first`` of
    rows ``ncols`` wide; ``src`` holds the constants in its leading columns."""
    digits4, last_place, layouts = _tables()
    d, e, fixed = _fixed_digits(x)
    k = x.size
    top, low = np.divmod(d, 10**8)
    top, g2 = np.divmod(top, 10**4)
    lead, g1 = np.divmod(top, 10**4)
    g3, g4 = np.divmod(low, 10**4)
    src[:k, _LEAD] = lead + ord("0")
    words, last = src.view(np.uint32), np.zeros(k, np.uint8)
    for i, g in enumerate((g1, g2, g3, g4)):
        words[:k, 3 + i] = digits4[g]
        np.maximum(last, last_place[i, g], out=last)
    line_end = np.arange(first, first + k) % ncols == ncols - 1
    key = np.where(fixed, 4 * (17 * (e + 4) + last) + 2 * (x < 0), _PLACEHOLDER) + line_end
    index = np.take(layouts, key, axis=0)
    index += _ROW_START[:k]
    text = np.take(src.ravel(), index).tobytes().translate(None, b"\0").decode("ascii")
    return text if fixed.all() else text % tuple(x[~fixed].tolist())
