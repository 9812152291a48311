import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fluxcontrol as fc
from _oracles import parse_edge_arrays_reference, parse_edge_list_reference
from fluxcontrol import graphio
from fluxcontrol.errors import EdgeListParseError, InvalidInputError


def _adjacency(path, undirected=True):
    """The dense adjacency of an edge list, as an adjacency-mode system forms it."""
    return fc.LinearSystem.from_edges(*fc.parse_edge_list(path, undirected=undirected)).A


def _write(tmp_path, text, name="g.edges"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseEdgeList:
    def test_small_undirected(self, tmp_path):
        adj = _adjacency(_write(tmp_path, "1 2\n2 3\n"))
        assert adj.shape == (3, 3)
        npt.assert_array_equal(adj, adj.T)
        assert adj.sum() == 4.0  # two edges mirrored

    def test_directed_mode(self, tmp_path):
        adj = _adjacency(_write(tmp_path, "1 2 3.5\n"), undirected=False)
        assert adj[0, 1] == 3.5
        assert adj[1, 0] == 0.0

    def test_comments_and_blank_lines(self, tmp_path):
        text = "# header\n\n1 2 2.0  # inline comment\n# trailing\n"
        adj = _adjacency(_write(tmp_path, text))
        assert adj[0, 1] == 2.0

    def test_default_weight_is_one(self, tmp_path):
        adj = _adjacency(_write(tmp_path, "1 3\n"))
        assert adj[0, 2] == 1.0
        assert adj.shape == (3, 3)

    def test_duplicate_edges_sum_with_warning(self, tmp_path):
        path = _write(tmp_path, "1 2 1.0\n2 1 0.5\n")
        with pytest.warns(UserWarning, match="duplicate edge"):
            adj = _adjacency(path)
        assert adj[0, 1] == 1.5
        assert adj[1, 0] == 1.5

    def test_reader_yields_each_position_once(self, tmp_path):
        # An undirected self-loop is not mirrored; every other entry is.
        n, rows, cols, weights = fc.parse_edge_list(_write(tmp_path, "1 1 2\n2 1 3\n3 2\n"))
        assert n == 3
        got = sorted(zip(rows.tolist(), cols.tolist(), weights.tolist()))
        assert got == [(0, 0, 2.0), (0, 1, 3.0), (1, 0, 3.0), (1, 2, 1.0), (2, 1, 1.0)]

    def test_malformed_line_reports_number(self, tmp_path):
        path = _write(tmp_path, "1 2\nnot an edge line here\n")
        with pytest.raises(EdgeListParseError) as exc:
            fc.parse_edge_list(path)
        assert exc.value.line_number == 2

    def test_bad_integer_reports_number(self, tmp_path):
        path = _write(tmp_path, "1 2\n3 x\n")
        with pytest.raises(EdgeListParseError) as exc:
            fc.parse_edge_list(path)
        assert exc.value.line_number == 2

    def test_zero_based_id_rejected(self, tmp_path):
        with pytest.raises(EdgeListParseError):
            fc.parse_edge_list(_write(tmp_path, "0 1\n"))

    def test_empty_file_rejected(self, tmp_path):
        # numpy's reader warns "input contained no data" on these; none may get out.
        for text in ["", "\n", "# only comments\n", "# a\n\n  \t\n# b  1 2\n"]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(EdgeListParseError, match="no edges"):
                    fc.parse_edge_list(_write(tmp_path, text))

    def test_undecodable_file_is_a_parse_error(self, tmp_path):
        # 0xff 0xfe opens a UTF-16 file; it is no UTF-8 edge list.
        path = tmp_path / "g.edges"
        path.write_bytes(b"\xff\xfe1\x00 \x002\x00\n\x00")
        with pytest.raises(EdgeListParseError, match="g.edges"):
            fc.parse_edge_list(path)

    def test_node_count_is_max_id(self, tmp_path):
        adj = _adjacency(_write(tmp_path, "1 5\n"))
        assert adj.shape == (5, 5)

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_weight_reports_number(self, tmp_path, weight):
        path = _write(tmp_path, f"1 2\n# note\n2 3 {weight}\n")
        with pytest.raises(EdgeListParseError, match="non-finite weight") as exc:
            fc.parse_edge_list(path)
        assert exc.value.line_number == 3


_SEP = st.sampled_from([" ", "  ", "\t", " \t "])
_WEIGHT = st.one_of(st.integers(-3, 3).map(str), st.sampled_from(["-0.0", "2.5e-3", "-1e2"]),
                    st.floats(-1e3, 1e3, allow_nan=False).map(repr))
_COMMENT = st.sampled_from(["", " # inline", "# 1 2 3", "\t#, a comment"])
_FILLER = st.sampled_from(["", "   ", "\t", "# header, i j w"])


def _edge_text(i, j, w, sep_j, sep_w, comment):
    return f"{i}{sep_j}{j}" + (f"{sep_w}{w}" if w is not None else "") + comment


_EDGE = st.tuples(st.integers(1, 7), st.integers(1, 7), st.none() | _WEIGHT, _SEP, _SEP,
                  _COMMENT).map(lambda e: _edge_text(*e))
_MALFORMED = st.sampled_from(["1", "1 2 3 4", "x 2", "1 y", "0 3", "2 -1", "1 2 nan",
                              "1 2 inf", "1 2 w", "1.5 2"])


@st.composite
def _mixed_file(draw):
    """Lines with 2 or 3 fields each, mostly repeating positions, and maybe
    one malformed line: ``(lines, None)``, the reader's path left open."""
    lines = draw(st.lists(st.one_of(_EDGE, _EDGE, _EDGE, _FILLER), max_size=25))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(_MALFORMED))
    return lines, None


@st.composite
def _uniform_file(draw):
    """Data lines that all have 2 fields, or all 3, each position once in
    either direction, between comment and blank lines, and maybe one line
    that sends the file to the line loop: ``(lines, numpy reads it)``."""
    fields = draw(st.sampled_from([2, 3]))
    pairs = draw(st.lists(st.tuples(st.integers(1, 40), st.integers(1, 40)), max_size=20,
                          unique_by=frozenset))
    lines = []
    for i, j in pairs:
        lines += draw(st.lists(_FILLER, max_size=1))
        w = draw(_WEIGHT) if fields == 3 else None
        lead = draw(st.sampled_from(["", " ", "\t "]))
        lines.append(lead + _edge_text(i, j, w, *draw(st.tuples(_SEP, _SEP, _COMMENT))))
    case = draw(st.none() | st.sampled_from(["mixed", "duplicate", "zero", "non-finite", "1_0"]))
    if case is not None:
        w = " 0.5" if fields == 3 else ""
        if not pairs:
            pairs, lines = [(41, 42)], [f"41 42{w}"]
        i, j = pairs[0]
        bad = {"mixed": "43 44" + (" 0.5" if fields == 2 else ""),
               "duplicate": f"{i} {j}{w}",
               "zero": f"0 43{w}",
               "non-finite": "43 44 " + draw(st.sampled_from(["nan", "-inf", "1e999"])),
               "1_0": draw(st.sampled_from(["1_0 43" + w, "43 44 1_0"]))}[case]
        lines.insert(draw(st.integers(0, len(lines))), bad)
    return lines, case is None and bool(pairs)


def _read(reader, path, undirected):
    """The reader's result or its error, and the duplicate warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = reader(path, undirected=undirected)
        except EdgeListParseError as exc:
            out = exc
    return out, [w for w in caught if "duplicate edge" in str(w.message)]


@given(file=st.one_of(_mixed_file(), _uniform_file()), undirected=st.booleans())
@settings(derandomize=True, deadline=None, max_examples=500)
def test_reader_matches_the_line_by_line_reference(file, undirected):
    lines, numpy_reads = file
    numpy_took = []

    def spy(text, undirected):
        out = read_uniform(text, undirected)
        numpy_took.append(out is not None)
        return out

    read_uniform = graphio._read_uniform
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.edges"
        path.write_text("\n".join(lines) + "\n")
        with mock.patch.object(graphio, "_read_uniform", spy):
            got, got_warnings = _read(fc.parse_edge_list, path, undirected)
        want, want_warnings = _read(parse_edge_arrays_reference, path, undirected)
        adj, _ = _read(_adjacency, path, undirected)
        want_adj, _ = _read(parse_edge_list_reference, path, undirected)
    if numpy_reads is not None:
        assert numpy_took == [numpy_reads]
    assert len(got_warnings) == len(want_warnings)
    # The warning points at the reader's caller, as the reference's does.
    assert all(w.filename == __file__ for w in got_warnings)
    if isinstance(want, EdgeListParseError):
        assert type(got) is type(want)
        assert (got.line_number, str(got)) == (want.line_number, str(want))
        assert numpy_took == [False]
        return
    # The same arrays in the same order, signed zeros too: sums over the
    # entries (the flux matvec) run in this order.
    assert got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert np.array_equal(adj, want_adj) and adj.tobytes() == want_adj.tobytes()


def test_undecodable_bytes_after_a_bad_line_name_the_line(tmp_path):
    # The first bad line still wins over bytes that no longer decode
    # further on, past the first read-ahead chunk.
    path = tmp_path / "g.edges"
    path.write_bytes(b"1 2\n1 2 3 4\n" + b"# pad\n" * 4000 + b"3 4 \xff\n")
    with pytest.raises(EdgeListParseError) as exc:
        fc.parse_edge_list(path)
    assert exc.value.line_number == 2


class TestKarateClubFixture:
    def test_node_and_edge_counts(self, karate):
        adj = karate["adj"]
        assert adj.shape == (34, 34)
        assert int(adj.sum()) == 156  # 78 undirected edges
        npt.assert_array_equal(adj, adj.T)
        assert np.all(np.diag(adj) == 0)
        assert set(np.unique(adj)) == {0.0, 1.0}

    def test_known_hub_degrees(self, karate):
        degrees = karate["adj"].sum(axis=1)
        assert degrees[33] == 17.0
        assert degrees[0] == 16.0


class TestDenseMatrixIO:
    def test_roundtrip_csv(self, tmp_path, rng):
        mat = rng.standard_normal((3, 4))
        path = tmp_path / "m.csv"
        fc.write_matrix_csv(path, mat)
        back = fc.load_dense_matrix(path)
        npt.assert_allclose(back, mat, rtol=0, atol=0)

    @pytest.mark.parametrize("matrix", [
        [[-0.0, 1.5, 1e-300], [np.pi, -2.0, 7.0]], [[-0.0, 3.0, -1e300]], [0.5, -0.0],
        np.arange(6).reshape(3, 2), np.random.default_rng(3).standard_normal((34, 2)),
    ], ids=["signed-zero", "one-row", "vector", "integers", "column-pair"])
    @pytest.mark.parametrize("header", [None, "bin_lo,bin_hi,count (t_star=0.5)"])
    def test_matrix_csv_is_the_bytes_of_savetxt(self, tmp_path, matrix, header):
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        fc.write_matrix_csv(ours, np.asarray(matrix), header=header)
        np.savetxt(ref, np.atleast_2d(matrix), delimiter=",", fmt="%.17g", header=header or "")
        assert ours.read_bytes() == ref.read_bytes()

    def test_whitespace_matrix(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2\n3 4\n")
        npt.assert_array_equal(fc.load_dense_matrix(path), [[1.0, 2.0], [3.0, 4.0]])

    def test_scalar_matrix(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.0\n")
        assert fc.load_dense_matrix(path).shape == (1, 1)

    @pytest.mark.parametrize("text", ["# weights, row-major\n\n1 2  # first row\n3 4\n",
                                      "# weights row major\n1,2\n3,4\n"],
                             ids=["whitespace", "csv"])
    def test_comment_lines_do_not_pick_the_delimiter(self, tmp_path, text):
        path = tmp_path / "m.txt"
        path.write_text(text)
        npt.assert_array_equal(fc.load_dense_matrix(path), [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("text", ["", "\n  \n", "# weights\n# none yet\n"],
                             ids=["empty", "blank", "comments"])
    def test_matrix_without_data_rows_is_typed_and_warns_nothing(self, tmp_path, text):
        path = tmp_path / "none.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="none.csv: no data rows"):
                fc.load_dense_matrix(path)

    @pytest.mark.parametrize("text", ["1,2\n3,x\n", "1 2\n3\n", "1,2\n3 4\n"])
    def test_malformed_matrix_is_typed_and_names_the_file(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(InvalidInputError, match="bad.csv"):
            fc.load_dense_matrix(path)
