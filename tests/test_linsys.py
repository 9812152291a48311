import copy
import dataclasses
import pickle
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fluxcontrol as fc
from fluxcontrol import cli
from fluxcontrol.errors import InvalidInputError

from _oracles import (
    brute_force_min_drivers,
    laplacian_reference,
    parse_edge_list_reference,
    random_stable_system,
)


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


def _directed_ring(c):
    """A directed 4-node ring, ``a[i, i+1] = 1`` and diagonal -1.5, scaled by ``c``."""
    a = -1.5 * np.eye(4) + np.roll(np.eye(4), 1, axis=1)
    return c * a


@pytest.mark.parametrize("c", [1e-13, 1e-200])
def test_symmetry_test_on_tiny_entries(c):
    # The tolerance is relative to the largest entry alone: a directed system
    # whose entries are all tiny is not symmetric, and the zero matrix is.
    assert not fc.LinearSystem(_directed_ring(c)).is_symmetric()
    assert not fc.LinearSystem.from_edges(3, [0, 1], [1, 2], [1e-14, 1e-14]).is_symmetric()
    assert fc.LinearSystem(c * np.diag([1.0, 2.0, 3.0])).is_symmetric()
    assert fc.LinearSystem(np.zeros((3, 3))).is_symmetric()


@pytest.mark.parametrize("c", [1e-13, 1e-200])
def test_time_rescaling_of_tiny_dynamics(c):
    # W_{cA}(t) = W_A(c t) / c: slowing the dynamics by c and stretching the
    # horizon by 1/c leaves the Gramian of the directed ring scaled by 1/c.
    b = np.eye(4)[:, :1]
    ref = fc.GramianEvaluator(fc.LinearSystem(_directed_ring(1.0)), 2.0).matrix(b)
    got = c * fc.GramianEvaluator(fc.LinearSystem(_directed_ring(c)), 2.0 / c).matrix(b)
    assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


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


@st.composite
def _edge_lists(draw):
    """Edge lines (i, j, w) on up to 7 nodes with positive weights, at most
    one odd line (a negative or zero weight, or a self-loop), and for a
    directed list now and then every line mirrored, so that Laplacian mode
    sees lists it accepts and lists it rejects."""
    n = draw(st.integers(2, 7))
    node = st.integers(1, n)
    edge = st.tuples(node, st.integers(1, n - 1), st.sampled_from([1.0, 0.5, 2.0]) | st.floats(0.05, 2.0))
    lines = draw(st.lists(edge.map(lambda e: (e[0], (e[0] + e[1] - 1) % n + 1, e[2])),
                          min_size=1, max_size=10))
    lines += draw(st.lists(st.tuples(node, node, st.sampled_from([-1.0, 0.0, 1.5])), max_size=1))
    undirected = draw(st.booleans())
    if not undirected and draw(st.booleans()):
        lines += [(j, i, w) for i, j, w in lines]
    return lines, undirected


def _edge_file(tmp, lines, undirected):
    """An edge list with one line per position the reader keeps, so no
    duplicate warning fires."""
    kept = {}
    for i, j, w in lines:
        kept.setdefault((min(i, j), max(i, j)) if undirected else (i, j), w)
    path = Path(tmp) / "g.edges"
    path.write_text("".join(f"{i} {j} {w!r}\n" for (i, j), w in kept.items()))
    return path


def _top_vectors_agree(edge_system, dense_system, t_star):
    """1 - |cos| of the two flux top vectors of the all-ones weighting, or
    None where Phi's top eigenvalue is within 1e-6 of the next: there the
    vector is not determined to 1e-12 by either path."""
    ones = np.ones(dense_system.n)
    got, want = (fc.flux_matrix(s, ones, t_star) for s in (edge_system, dense_system))
    lam = np.linalg.eigvalsh(want.Phi)
    if lam.size > 1 and lam[-1] - lam[-2] <= 1e-6 * lam[-1]:
        return None
    assert got.lam_max == pytest.approx(want.lam_max, rel=1e-12)
    return 1.0 - abs(float(got.top_vector @ want.top_vector))


class TestSameBits:
    """``LinearSystem.same_bits``: built from the same bits and the same kind."""

    A = np.array([[-1.0, 2.0, 0.0], [0.0, -2.0, 1.5], [0.5, 0.0, -1.0]])

    @pytest.mark.parametrize("edit, same", [
        (lambda a: a, True),
        (lambda a: np.where(a == 0.0, -0.0, a), False),
        (lambda a: a + np.eye(3) * np.spacing(a), False),
        (lambda a: a[:2, :2], False),
    ], ids=["equal", "negative-zero", "one-ulp", "shape"])
    def test_dense(self, edit, same):
        assert fc.LinearSystem(self.A).same_bits(fc.LinearSystem(edit(self.A.copy()))) == same

    @pytest.mark.parametrize("edit, same", [
        ({}, True),
        ({"laplacian": True}, False),
        ({"n": 4}, False),
        ({"weights": [1.0, np.nextafter(1.0, 2.0)]}, False),
        ({"rows": [1, 0], "cols": [0, 1]}, False),
    ], ids=["equal", "laplacian", "n", "one-ulp", "order"])
    def test_edges(self, edit, same):
        # Listing the same entries in another order is another source.
        base = {"n": 3, "rows": [0, 1], "cols": [1, 0], "weights": [1.0, 1.0], "laplacian": False}
        built = [fc.LinearSystem.from_edges(**kw) for kw in (base, {**base, **edit})]
        assert built[0].same_bits(built[1]) == same

    def test_dense_and_edge_systems_differ(self):
        edges = fc.LinearSystem.from_edges(2, [0], [1], [1.0])
        assert not edges.same_bits(fc.LinearSystem(edges.A))
        assert not fc.LinearSystem(edges.A).same_bits(edges)


class TestEdgeSystems:
    """Systems from edge arrays against the dense path: the same A bit for bit
    (or the same error), and flux top vectors within 1e-12 in 1 - |cos|."""

    @given(drawn=_edge_lists(), laplacian=st.booleans())
    @example(drawn=([(1, 2, 1.0)], True), laplacian=False)
    @example(drawn=([(1, 2, 0.5)], False), laplacian=False)
    @example(drawn=([(1, 2, 1.0), (3, 4, 2.0)], True), laplacian=True)
    @example(drawn=([(1, 1, 2.0), (1, 2, 1.0)], False), laplacian=False)
    @settings(derandomize=True, deadline=None, max_examples=150)
    def test_edge_path_matches_the_dense_path(self, drawn, laplacian):
        lines, undirected = drawn
        with tempfile.TemporaryDirectory() as tmp:
            path = _edge_file(tmp, lines, undirected)
            edges = fc.parse_edge_list(path, undirected=undirected)
            adj = parse_edge_list_reference(path, undirected=undirected)
        try:
            want = laplacian_reference(adj) if laplacian else adj
        except InvalidInputError as exc:
            with pytest.raises(type(exc), match=str(exc)):
                fc.LinearSystem.from_edges(*edges, laplacian=laplacian)
            return
        system = fc.LinearSystem.from_edges(*edges, laplacian=laplacian)
        dense = fc.LinearSystem(want)
        for t_star in (0.05, 0.6, 1.5):
            gap = _top_vectors_agree(system, dense, t_star)
            assert gap is None or gap <= 1e-12
        assert system._a is None  # the flux path never formed A
        assert system.A.tobytes() == want.tobytes()

    @pytest.mark.parametrize("text, undirected", [
        ("1 2 -1\n2 3\n", True),
        ("1 1 2\n1 2\n", True),
        ("1 2 1\n2 1 2\n", False),
        ("1 2 1\n", False),
    ], ids=["negative-weight", "self-loop", "asymmetric", "one-way"])
    def test_cli_rejects_what_the_dense_laplacian_rejects(self, tmp_path, text, undirected):
        path = tmp_path / "g.edges"
        path.write_text(text)
        with pytest.raises(InvalidInputError) as want:
            laplacian_reference(parse_edge_list_reference(path, undirected=undirected))
        argv = ["flux", "--input", str(path), "--mode", "laplacian", "--out", str(tmp_path / "o")]
        assert cli.main(argv + ([] if undirected else ["--no-undirected"])) == 1
        error = (tmp_path / "o" / "error.json").read_text()
        assert '"InvalidInputError"' in error and str(want.value) in error

    @pytest.mark.parametrize("args", [
        (3, [0, 3], [1, 0], [1.0, 1.0]),
        (3, [0, -1], [1, 0], [1.0, 1.0]),
        (3, [0, 1], [1], [1.0, 1.0]),
        (3, [0], [1], [np.inf]),
        (3, [0.5, 1.7], [1, 2], [1.0, 1.0]),
        (3.5, [0, 1], [1, 2], [1.0, 1.0]),
    ], ids=["index-past-n", "negative-index", "ragged", "non-finite", "fractional-position",
            "fractional-n"])
    def test_malformed_edge_arrays_are_typed(self, args):
        with pytest.raises(InvalidInputError):
            fc.LinearSystem.from_edges(*args)

    @pytest.mark.parametrize("clone_of", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy])
    @pytest.mark.parametrize("laplacian", [False, True])
    def test_pickle_and_deepcopy_keep_the_edge_arrays(self, clone_of, laplacian):
        edges = (4, np.array([0, 1, 1, 2, 2, 3]), np.array([1, 0, 2, 1, 3, 2]),
                 np.array([1.0, 1.0, 0.5, 0.5, 2.0, 2.0]))
        system = fc.LinearSystem.from_edges(*edges, laplacian=laplacian)
        first = fc.flux_centrality(system, 0.8)
        clone = clone_of(system)
        assert clone._a is None and system._a is None
        for got, want in zip(clone.edges, system.edges):
            npt.assert_array_equal(got, want)
        npt.assert_array_equal(fc.flux_centrality(clone, 0.8), first)
        npt.assert_array_equal(clone.A, system.A)

    def test_flux_on_a_5000_node_edge_list_forms_no_n_by_n_array(self, tmp_path):
        # A ring plus n/2 chords, adjacency mode, horizons 0.015 to 1.5: a
        # dense A alone would take 8 n^2 bytes = 200 MB.
        n = 5000
        rng = np.random.default_rng(5)
        pairs = [(i, i % n + 1) for i in range(1, n + 1)]
        pairs += rng.integers(1, n + 1, size=(n // 2, 2)).tolist()
        edges = {(min(i, j), max(i, j)) for i, j in pairs if i != j}
        path = tmp_path / "ring.edges"
        path.write_text("".join(f"{i} {j}\n" for i, j in sorted(edges)))
        argv = ["flux", "--input", str(path), "--mode", "adjacency",
                "--t-star", "0.015,0.05,0.15,0.5,1.5", "--out", str(tmp_path / "o")]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 20
        rows = np.loadtxt(tmp_path / "o" / "flux.csv", delimiter=",", skiprows=1)
        npt.assert_allclose(np.linalg.norm(rows[:, 1:], axis=1), 1.0, rtol=1e-12)


class TestControllabilityReport:
    def test_zero_dynamics_single_input(self):
        system = fc.LinearSystem(np.zeros((3, 3)))
        report = fc.controllability_report(system, np.eye(3)[:, [0]])
        assert not report.controllable
        assert report.min_drivers == 3

    def test_identity_needs_all_drivers(self):
        system = fc.LinearSystem(np.eye(3))
        report = fc.controllability_report(system, np.eye(3)[:, [0]])
        assert report.min_drivers == 3

    def test_directed_chain_single_driver(self):
        a = np.zeros((4, 4))
        for i in range(3):
            a[i + 1, i] = 1.0
        system = fc.LinearSystem(a)
        report = fc.controllability_report(system, np.eye(4)[:, [0]])
        assert report.controllable
        assert report.min_drivers == 1

    def test_min_drivers_matches_brute_force_on_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            a = rng.standard_normal((n, n))
            system = fc.LinearSystem(a)
            report = fc.controllability_report(system, np.eye(n))
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
                fc.LinearSystem(a), np.eye(k + 3)
            )
            assert report.min_drivers == k

    def test_jordan_block_counts_geometric_not_algebraic(self):
        a = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
        report = fc.controllability_report(fc.LinearSystem(a), np.eye(3))
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
            enough = rng.standard_normal((n, k))
            report = fc.controllability_report(system, enough)
            assert report.min_drivers == k
            assert report.controllable
            short = rng.standard_normal((n, k - 1))
            starved = fc.controllability_report(system, short)
            assert not starved.controllable

    def test_report_invariant_under_column_permutation(self, rng):
        n, m = 5, 3
        a = random_stable_system(rng, n)
        b = rng.standard_normal((n, m))
        system = fc.LinearSystem(a)
        base = fc.controllability_report(system, b)
        perm = fc.controllability_report(system, b[:, [2, 0, 1]])
        assert base.controllable and perm.controllable
        assert base.min_drivers == perm.min_drivers

    def test_full_actuation_controls_karate(self, karate):
        report = fc.controllability_report(karate["system"], np.eye(34))
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
            fc.laplacian_system(adj), np.eye(n)[:, [node]]
        )
        assert report.controllable is controllable
        assert report.min_drivers == 1

    def test_report_fields(self):
        names = [f.name for f in dataclasses.fields(fc.ControllabilityReport)]
        assert names == ["controllable", "min_drivers", "eigenvalues"]

    def test_schematic_row_mismatch_rejected(self):
        with pytest.raises(InvalidInputError, match="row count"):
            fc.controllability_report(
                fc.LinearSystem(np.eye(3)), np.eye(4)
            )


class TestDomainTypes:
    def test_column_vector_promotion(self):
        # A vector schematic is one column at every entry that takes B.
        system, b = fc.LinearSystem(np.diag([-1.0, -2.0])), np.array([1.0, 2.0])
        assert fc.controllability_report(system, b).controllable
        assert fc.output_controllable_sufficient(np.ones(2), b)
        assert fc.pgme_driver_select(b, 1)[1].shape == (2, 1)
        traj = fc.simulate(fc.GramianEvaluator(system, 1.0), b, np.zeros(2), 4, np.ones(2))
        assert traj.inputs.shape == (5, 1)


class TestOutputControllableSufficient:
    def test_single_node_moves_the_average(self):
        schematic = np.eye(2)[:, [0]]
        assert fc.output_controllable_sufficient(np.full(2, 0.5), schematic)

    def test_equal_and_opposite_column_fails(self):
        schematic = np.array([[1.0], [-1.0]])
        assert not fc.output_controllable_sufficient(np.full(2, 0.5), schematic)

    def test_zero_functional(self):
        schematic = np.eye(2)[:, [0]]
        assert not fc.output_controllable_sufficient(np.zeros(2), schematic)
