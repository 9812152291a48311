import numpy as np
import numpy.testing as npt
import pytest
from scipy.stats import spearmanr

import fluxcontrol as fc
from fluxcontrol.errors import InvalidInputError


def _rank_correlation(a, b):
    """Spearman correlation with identical vectors pinned to exactly 1."""
    if np.allclose(a, b, rtol=0.0, atol=1e-12):
        return 1.0
    return float(spearmanr(a, b).statistic)


class TestFluxCentrality:
    def test_zero_dynamics_all_nodes_equal(self):
        for n in (2, 5):
            system = fc.LinearSystem(np.zeros((n, n)))
            phi = fc.flux_centrality(system, 1.0)
            npt.assert_allclose(phi, np.full(n, 1.0 / np.sqrt(n)), rtol=1e-12)

    def test_feeder_node_ranks_higher(self):
        # Node 1 feeds node 2, so input at node 1 reaches both.
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        system = fc.LinearSystem(a)
        phi = fc.flux_centrality(system, 1.0)
        # Independent eigenvector of the analytic 2x2 flux integral.
        analytic = np.array([[7.0 / 3.0, 3.0 / 2.0], [3.0 / 2.0, 1.0]])
        vals, vecs = np.linalg.eigh(analytic)
        top = vecs[:, -1]
        top = top if top.sum() > 0 else -top
        npt.assert_allclose(phi, top, rtol=1e-10)
        assert phi[0] > phi[1] > 0

    def test_unit_norm_and_eigen_residual(self, karate):
        system = karate["system"]
        for t_star in (0.015, 1.5):
            phi = fc.flux_centrality(system, t_star)
            assert np.linalg.norm(phi) == pytest.approx(1.0, abs=1e-10)
            fm = fc.flux_matrix(system, np.ones(34), t_star)
            residual = np.linalg.norm(fm.Phi @ phi - fm.lam_max * phi)
            assert residual <= 1e-8 * fm.lam_max
            assert phi.sum() >= 0.0

    def test_depends_only_on_dynamics_and_horizon(self, karate):
        a = fc.flux_centrality(karate["system"], 0.7)
        b = fc.flux_centrality(karate["system"], 0.7)
        npt.assert_array_equal(a, b)


class TestFluxSweep:
    def test_zero_dynamics_identical_rows(self):
        system = fc.LinearSystem(np.zeros((4, 4)))
        profile = fc.flux_sweep(system, [0.5, 1.0, 2.0])
        npt.assert_allclose(profile.phi[0], profile.phi[1], rtol=1e-12)
        npt.assert_allclose(profile.phi[1], profile.phi[2], rtol=1e-12)
        assert _rank_correlation(profile.phi[0], profile.phi[2]) == 1.0

    def test_karate_rankings_shift_with_horizon(self, karate):
        # Adjacency dynamics: edge weights are the dynamics entries.
        system = fc.LinearSystem(karate["adj"], label="karate-adjacency")
        profile = fc.flux_sweep(system, [0.015, 0.15, 1.5])
        assert profile.phi.shape == (3, 34)
        corr = _rank_correlation(profile.phi[0], profile.phi[2])
        assert corr < 1.0

    def test_laplacian_dynamics_conserve_the_average_exactly(self, karate):
        # The all-ones vector spans the Laplacian null space, so the flux
        # matrix is rank one at every horizon and centrality is uniform.
        for t_star in (0.015, 1.5):
            phi = fc.flux_centrality(karate["system"], t_star)
            npt.assert_allclose(phi, np.full(34, 1.0 / np.sqrt(34.0)), rtol=1e-9)

    def test_diagonal_mass_shifts_to_growing_node(self):
        system = fc.LinearSystem(np.diag([1.0, -1.0]))
        profile = fc.flux_sweep(system, [0.1, 5.0])
        # Entrywise analytic flux: growing mode dominates at long horizons.
        assert profile.phi[1][0] > profile.phi[0][0]
        assert profile.phi[1][0] > 0.999

    def test_rejects_bad_horizons(self):
        system = fc.LinearSystem(np.zeros((2, 2)))
        with pytest.raises(InvalidInputError):
            fc.flux_sweep(system, [1.0, 0.5])
        with pytest.raises(InvalidInputError):
            fc.flux_sweep(system, [-1.0])
        with pytest.raises(InvalidInputError):
            fc.flux_sweep(system, [])

    def test_rows_unit_norm(self, karate):
        profile = fc.flux_sweep(karate["system"], [0.1, 1.0])
        npt.assert_allclose(np.linalg.norm(profile.phi, axis=1), [1.0, 1.0], atol=1e-10)

    def test_csv_roundtrip(self, tmp_path, karate):
        profile = fc.flux_sweep(karate["system"], [0.5, 1.0])
        path = tmp_path / "flux.csv"
        profile.write_csv(path, labels=karate["labels"])
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        assert header[0] == "t_star"
        assert header[1:] == karate["labels"]
        row = np.array([float(x) for x in lines[1].split(",")])
        assert row[0] == 0.5
        npt.assert_allclose(row[1:], profile.phi[0], rtol=1e-15)


class TestCentralityHistogram:
    def test_freedman_diaconis_binning(self, karate):
        phi = fc.flux_centrality(fc.LinearSystem(karate["adj"]), 1.0)
        counts, edges = fc.centrality_histogram(phi)
        assert counts.sum() == 34
        ref_counts, ref_edges = np.histogram(phi, bins="fd")
        npt.assert_array_equal(counts, ref_counts)
        npt.assert_allclose(edges, ref_edges)
        # Hub-dominated network: a few nodes carry far more flux than the bulk.
        assert phi.max() > 3.0 * np.median(phi)

    def test_roundoff_spread_is_one_bin(self):
        # A vertex-transitive graph's centrality is 1/sqrt(n) up to roundoff;
        # Freedman-Diaconis would ask for bins narrower than the float spacing.
        row = [0.50000000000000022, 0.49999999999999978, 0.5, 0.5]
        counts, edges = fc.centrality_histogram(row)
        npt.assert_array_equal(counts, [4])
        assert edges[0] <= min(row) and edges[1] >= max(row)
