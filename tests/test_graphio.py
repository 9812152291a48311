import tempfile
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fluxcontrol as fc
from _oracles import parse_edge_list_reference
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
        with pytest.raises(EdgeListParseError, match="no edges"):
            fc.parse_edge_list(_write(tmp_path, "# only comments\n"))

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
_EDGE = st.tuples(st.integers(1, 7), st.integers(1, 7), st.none() | _WEIGHT, _SEP, _SEP,
                  _COMMENT).map(
    lambda e: f"{e[0]}{e[3]}{e[1]}" + (f"{e[4]}{e[2]}" if e[2] is not None else "") + e[5])
_LINE = st.one_of(_EDGE, _EDGE, _EDGE, st.sampled_from(["", "   ", "\t", "# header, i j w"]))
_MALFORMED = st.sampled_from(["1", "1 2 3 4", "x 2", "1 y", "0 3", "2 -1", "1 2 nan",
                              "1 2 inf", "1 2 w", "1.5 2"])


def _read(reader, path, undirected):
    """The reader's adjacency or its error, and the duplicate warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = reader(path, undirected=undirected)
        except EdgeListParseError as exc:
            out = exc
    return out, [w for w in caught if "duplicate edge" in str(w.message)]


@given(lines=st.lists(_LINE, max_size=25), undirected=st.booleans(),
       bad=st.none() | st.tuples(st.integers(0, 25), _MALFORMED))
@settings(derandomize=True, deadline=None, max_examples=300)
def test_reader_matches_the_line_by_line_reference(lines, undirected, bad):
    if bad is not None:
        lines = lines[:bad[0]] + [bad[1]] + lines[bad[0]:]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.edges"
        path.write_text("\n".join(lines) + "\n")
        got, got_warnings = _read(_adjacency, path, undirected)
        want, want_warnings = _read(parse_edge_list_reference, path, undirected)
    assert len(got_warnings) == len(want_warnings)
    # The warning points at the reader's caller, as the reference's does.
    assert all(w.filename == __file__ for w in got_warnings)
    if isinstance(want, EdgeListParseError):
        assert type(got) is type(want)
        assert (got.line_number, str(got)) == (want.line_number, str(want))
    else:
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()  # signed zeros too


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
