"""``_util.write_csv_rows``: every field is the bytes of ``'%.17g' % v``, on
both sides of its crossover to the numpy formatter, and memory stays bounded."""

import io
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluxcontrol._util import _VECTOR_MIN, write_csv_rows


def _written(rows, end):
    fh = io.StringIO()
    write_csv_rows(fh, rows, end=end)
    return fh.getvalue()


def _reference(rows, end):
    """One ``'%.17g'`` per field, joined by commas, each line ending in ``end``."""
    return "".join(",".join("%.17g" % v for v in row) + end for row in rows.tolist())


def _edge_values():
    powers = [float(f"1e{k}") for k in range(-6, 19)]
    values = [v for p in powers for v in (np.nextafter(p, 0), p, np.nextafter(p, np.inf))]
    # The largest double below 10**k. At 17 digits some round up to 10**k,
    # as 1e-14 does; none in the fixed-notation decades 1e-5 to 1e17.
    for k in range(-30, 31):
        p = float(f"1e{k}")
        values.append(p if Fraction(p) < Fraction(10) ** k else float(np.nextafter(p, 0)))
    # Ties at the 17th digit: m / 2**a, m odd, has the 18 digits of m * 5**a,
    # the last of them a 5.
    for a in range(1, 60):
        lo, hi = -(-10**17 // 5**a) | 1, min(10**18 // 5**a, 2**53)
        values += [m / 2**a for m in range(lo, hi, 2)[:8]]
    values += [1125899906842624.25, 5e-324, 1.7976931348623157e308, 0.0]
    return np.array(values + [-v for v in values])


_EDGES = _edge_values()


@pytest.mark.parametrize("end", ["\r\n", "\n"])
@pytest.mark.parametrize("width", [1, 2, _VECTOR_MIN - 1, _VECTOR_MIN, _VECTOR_MIN + 1])
def test_edge_values_are_the_bytes_of_percent_17g(width, end):
    # Rows of one width, then a single row of it, which takes the row
    # template below the crossover.
    rows = np.resize(_EDGES, (-(-_EDGES.size // width), width))
    assert _written(rows, end) == _reference(rows, end)
    assert _written(rows[:1], end) == _reference(rows[:1], end)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(pool=st.lists(st.floats(), min_size=1, max_size=40),
       shape=st.tuples(st.integers(1, 40), st.integers(1, 80)),
       end=st.sampled_from(["\r\n", "\n"]))
def test_any_floats_are_the_bytes_of_percent_17g(pool, shape, end):
    # Up to 3200 fields: the row template, one block and several.
    rows = np.resize(np.array(pool), shape)
    assert _written(rows, end) == _reference(rows, end)


def test_memory_stays_below_the_array_written():
    # A steered trajectory's shape: 201 rows of 402 fields, 646 KB of floats.
    rows = np.random.default_rng(0).standard_normal((201, 402))
    with open(os.devnull, "w", newline="") as fh:
        tracemalloc.start()
        try:
            write_csv_rows(fh, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < rows.nbytes
