import dataclasses
import warnings

import numpy as np
import numpy.testing as npt
import pytest

import fluxcontrol as fc
from fluxcontrol.errors import InvalidInputError

from _oracles import brute_force_min_drivers, random_stable_system


def _transition(a, t):
    """exp(t A), one column at a time from the evaluator's autonomous endpoint."""
    ev = fc.GramianEvaluator(fc.LinearSystem(a), t)
    return np.column_stack([ev.propagate(e) for e in np.eye(ev.system.n)])


def test_transition_zero_dynamics_is_identity():
    npt.assert_array_equal(_transition(np.zeros((4, 4)), 7.0), np.eye(4))


def test_transition_nilpotent_truncates():
    # Nonsymmetric: the endpoint takes expm, with no Gramian built before it.
    npt.assert_allclose(
        _transition([[0.0, 1.0], [0.0, 0.0]], 1.0), [[1.0, 1.0], [0.0, 1.0]], atol=1e-15
    )


def test_transition_diagonal():
    npt.assert_allclose(
        _transition(np.diag([0.5, -1.0]), 2.0),
        np.diag([np.e, np.exp(-2.0)]),
        rtol=1e-14,
    )


def test_transition_matches_symmetric_eigendecomposition(rng):
    a = rng.standard_normal((6, 6))
    a = 0.5 * (a + a.T)
    vals, vecs = np.linalg.eigh(a)
    oracle = vecs @ np.diag(np.exp(1.3 * vals)) @ vecs.T
    got = _transition(a, 1.3)
    assert np.linalg.norm(got - oracle, 2) <= 1e-12 * np.linalg.norm(oracle, 2)


def test_nonfinite_dynamics_rejected():
    with pytest.raises(InvalidInputError):
        fc.LinearSystem([[np.nan, 0.0], [0.0, 0.0]])
    with pytest.raises(InvalidInputError):
        fc.GramianEvaluator(fc.LinearSystem(np.zeros((2, 2))), np.inf)


def test_symmetry_test_on_huge_entries():
    # A norm of these entries overflows; the max-abs test does not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fc.LinearSystem([[-1e300, 1.0], [0.0, -1e300]]).is_symmetric()
        assert not fc.LinearSystem([[1e300, 1e300], [0.0, 1e300]]).is_symmetric()
        assert not fc.LinearSystem([[0.0, 1e308], [-1e308, 0.0]]).is_symmetric()


def test_nonsquare_dynamics_rejected():
    with pytest.raises(InvalidInputError):
        fc.LinearSystem(np.zeros((2, 3)))


class TestLaplacianSystem:
    def test_two_node_chain(self):
        system = fc.laplacian_system([[0.0, 1.0], [1.0, 0.0]])
        npt.assert_allclose(system.A, [[-1.0, 1.0], [1.0, -1.0]])

    def test_empty_graph(self):
        system = fc.laplacian_system(np.zeros((3, 3)))
        npt.assert_array_equal(system.A, np.zeros((3, 3)))

    def test_karate_rank(self, karate):
        # Connected graph: the Laplacian's zero eigenvalue is simple.
        lam = np.linalg.eigvalsh(-karate["system"].A)
        assert int(np.sum(lam > 1e-8)) == 33
        assert karate["system"].n == 34

    def test_ones_in_null_space(self, rng):
        adj = rng.random((7, 7))
        adj = np.triu(adj, 1)
        adj = adj + adj.T
        system = fc.laplacian_system(adj)
        ones = np.ones(7)
        assert np.linalg.norm(system.A @ ones) <= 1e-12 * np.linalg.norm(system.A)
        npt.assert_allclose(system.A.sum(axis=1), np.zeros(7), atol=1e-12)

    def test_negative_weight_rejected(self):
        with pytest.raises(InvalidInputError):
            fc.laplacian_system([[0.0, -1.0], [-1.0, 0.0]])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(InvalidInputError):
            fc.laplacian_system([[1.0, 1.0], [1.0, 0.0]])

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidInputError):
            fc.laplacian_system([[0.0, 1.0], [2.0, 0.0]])


class TestControllabilityReport:
    def test_zero_dynamics_single_input(self):
        system = fc.LinearSystem(np.zeros((3, 3)))
        report = fc.controllability_report(system, fc.InputSchematic(np.eye(3)[:, [0]]))
        assert not report.controllable
        assert report.min_drivers == 3

    def test_identity_needs_all_drivers(self):
        system = fc.LinearSystem(np.eye(3))
        report = fc.controllability_report(system, fc.InputSchematic(np.eye(3)[:, [0]]))
        assert report.min_drivers == 3

    def test_directed_chain_single_driver(self):
        a = np.zeros((4, 4))
        for i in range(3):
            a[i + 1, i] = 1.0
        system = fc.LinearSystem(a)
        report = fc.controllability_report(system, fc.InputSchematic(np.eye(4)[:, [0]]))
        assert report.controllable
        assert report.min_drivers == 1

    def test_min_drivers_matches_brute_force_on_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n))
            system = fc.LinearSystem(a)
            report = fc.controllability_report(system, fc.InputSchematic.identity(n))
            assert report.min_drivers == brute_force_min_drivers(a)

    def test_min_drivers_on_repeated_eigenvalue_constructions(self, rng):
        for k in (2, 3, 4):
            blocks = [2.0 * np.eye(k)]
            rest = np.diag(rng.uniform(3.0, 9.0, size=3))
            a = np.block(
                [
                    [blocks[0], np.zeros((k, 3))],
                    [np.zeros((3, k)), rest],
                ]
            )
            report = fc.controllability_report(
                fc.LinearSystem(a), fc.InputSchematic.identity(k + 3)
            )
            assert report.min_drivers == k

    def test_jordan_block_counts_geometric_not_algebraic(self):
        a = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
        report = fc.controllability_report(fc.LinearSystem(a), fc.InputSchematic.identity(3))
        assert report.min_drivers == 1

    def test_min_driver_count_is_sharp(self, rng):
        # m = min_drivers random columns controls a repeated-eigenvalue system;
        # m - 1 columns can never pass the PBH test at the repeated eigenvalue.
        for k in (2, 3):
            rest = np.diag(rng.uniform(3.0, 9.0, size=2))
            a = np.block(
                [
                    [2.0 * np.eye(k), np.zeros((k, 2))],
                    [np.zeros((2, k)), rest],
                ]
            )
            n = k + 2
            system = fc.LinearSystem(a)
            enough = fc.InputSchematic(rng.standard_normal((n, k)))
            report = fc.controllability_report(system, enough)
            assert report.min_drivers == k
            assert report.controllable
            short = fc.InputSchematic(rng.standard_normal((n, k - 1)))
            starved = fc.controllability_report(system, short)
            assert not starved.controllable

    def test_report_invariant_under_column_permutation(self, rng):
        n, m = 5, 3
        a = random_stable_system(rng, n)
        b = rng.standard_normal((n, m))
        system = fc.LinearSystem(a)
        base = fc.controllability_report(system, fc.InputSchematic(b))
        perm = fc.controllability_report(system, fc.InputSchematic(b[:, [2, 0, 1]]))
        assert base.controllable and perm.controllable
        assert base.min_drivers == perm.min_drivers

    def test_full_actuation_controls_karate(self, karate):
        report = fc.controllability_report(karate["system"], fc.InputSchematic.identity(34))
        assert report.controllable
        assert report.min_drivers == 5

    @pytest.mark.parametrize("n,node,controllable", [
        (20, 0, True), (30, 0, True), (40, 0, True), (21, 10, False)])
    def test_path_laplacian_with_one_driver(self, n, node, controllable):
        # Every mode of a path is nonzero at an end node, and the odd modes
        # vanish at the centre. The rank of [B, AB, ..., A^(n-1) B] falls
        # short of n at these sizes, so only a test that never forms it passes.
        adj = np.zeros((n, n))
        idx = np.arange(n - 1)
        adj[idx, idx + 1] = adj[idx + 1, idx] = 1.0
        report = fc.controllability_report(
            fc.laplacian_system(adj), fc.InputSchematic(np.eye(n)[:, [node]])
        )
        assert report.controllable is controllable
        assert report.min_drivers == 1

    def test_report_fields(self):
        names = [f.name for f in dataclasses.fields(fc.ControllabilityReport)]
        assert names == ["controllable", "min_drivers", "eigenvalues"]

    def test_schematic_row_mismatch_rejected(self):
        with pytest.raises(InvalidInputError, match="row count"):
            fc.controllability_report(
                fc.LinearSystem(np.eye(3)), fc.InputSchematic.identity(4)
            )


class TestDomainTypes:
    def test_sphere_flag_enforced(self):
        good = fc.project_sphere(np.ones((3, 2)), epsilon=1e-6)
        fc.InputSchematic(good, sphere_normalized=True, epsilon=1e-6)
        with pytest.raises(InvalidInputError):
            fc.InputSchematic(np.ones((3, 2)), sphere_normalized=True, epsilon=1e-6)

    def test_column_vector_promotion(self):
        schematic = fc.InputSchematic(np.array([1.0, 2.0]))
        assert schematic.B.shape == (2, 1)
        assert schematic.m == 1


class TestOutputControllableSufficient:
    def test_single_node_moves_the_average(self):
        schematic = fc.InputSchematic(np.eye(2)[:, [0]])
        assert fc.output_controllable_sufficient(np.full(2, 0.5), schematic)

    def test_equal_and_opposite_column_fails(self):
        schematic = fc.InputSchematic(np.array([[1.0], [-1.0]]))
        assert not fc.output_controllable_sufficient(np.full(2, 0.5), schematic)

    def test_zero_functional(self):
        schematic = fc.InputSchematic(np.eye(2)[:, [0]])
        assert not fc.output_controllable_sufficient(np.zeros(2), schematic)
