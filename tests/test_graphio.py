import numpy as np
import numpy.testing as npt
import pytest

import fluxcontrol as fc
from fluxcontrol.errors import EdgeListParseError


def _write(tmp_path, text, name="g.edges"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseEdgeList:
    def test_small_undirected(self, tmp_path):
        adj = fc.parse_edge_list(_write(tmp_path, "1 2\n2 3\n"))
        assert adj.shape == (3, 3)
        npt.assert_array_equal(adj, adj.T)
        assert adj.sum() == 4.0  # two edges mirrored

    def test_directed_mode(self, tmp_path):
        adj = fc.parse_edge_list(_write(tmp_path, "1 2 3.5\n"), undirected=False)
        assert adj[0, 1] == 3.5
        assert adj[1, 0] == 0.0

    def test_comments_and_blank_lines(self, tmp_path):
        text = "# header\n\n1 2 2.0  # inline comment\n# trailing\n"
        adj = fc.parse_edge_list(_write(tmp_path, text))
        assert adj[0, 1] == 2.0

    def test_default_weight_is_one(self, tmp_path):
        adj = fc.parse_edge_list(_write(tmp_path, "1 3\n"))
        assert adj[0, 2] == 1.0
        assert adj.shape == (3, 3)

    def test_duplicate_edges_sum_with_warning(self, tmp_path):
        path = _write(tmp_path, "1 2 1.0\n2 1 0.5\n")
        with pytest.warns(UserWarning, match="duplicate edge"):
            adj = fc.parse_edge_list(path)
        assert adj[0, 1] == 1.5
        assert adj[1, 0] == 1.5

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

    def test_node_count_is_max_id(self, tmp_path):
        adj = fc.parse_edge_list(_write(tmp_path, "1 5\n"))
        assert adj.shape == (5, 5)


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
