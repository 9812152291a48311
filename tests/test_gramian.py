import copy
import math
import pickle
import sys
import threading
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, expm

import fluxcontrol as fc
import fluxcontrol.gramian as gramian
from fluxcontrol.errors import InvalidInputError

from _oracles import (
    gramian_quadrature,
    random_stable_system,
    simpson_scalar_gramian,
    van_loan_block_reference,
)


def _bundle(a, b, t_star):
    return fc.reachability_gramian(fc.LinearSystem(np.atleast_2d(a)), fc.InputSchematic(b), t_star)


class TestReachabilityGramian:
    def test_constant_integrand(self):
        w = _bundle(np.zeros((2, 2)), np.array([[1.0], [0.0]]), 2.0)
        npt.assert_allclose(w.W, [[2.0, 0.0], [0.0, 0.0]], atol=1e-13)

    def test_scalar_analytic(self):
        w = _bundle([[1.0]], [[1.0]], 1.0)
        npt.assert_allclose(w.W, [[(np.e**2 - 1.0) / 2.0]], rtol=1e-12)

    def test_all_ones_column(self):
        w = _bundle(np.zeros((3, 3)), np.ones((3, 1)), 0.5)
        npt.assert_allclose(w.W, 0.5 * np.ones((3, 3)), atol=1e-13)
        assert w.kappa == pytest.approx(4.5, rel=1e-12)

    def test_nonpositive_horizon_rejected(self):
        with pytest.raises(InvalidInputError):
            _bundle(np.zeros((2, 2)), np.eye(2), 0.0)
        with pytest.raises(InvalidInputError):
            _bundle(np.zeros((2, 2)), np.eye(2), -1.0)

    def test_symmetry_and_psd_invariants(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 7))
            a = random_stable_system(rng, n)
            b = rng.standard_normal((n, int(rng.integers(1, n + 1))))
            w = _bundle(a, b, float(rng.uniform(0.5, 3.0)))
            assert np.linalg.norm(w.W - w.W.T) <= 1e-10 * np.linalg.norm(w.W)
            assert w.lam_min >= -1e-10 * w.lam_max
            assert w.kappa >= 0.0

    def test_monotone_in_horizon(self, rng):
        a = random_stable_system(rng, 5)
        b = rng.standard_normal((5, 2))
        w1 = _bundle(a, b, 1.0)
        w2 = _bundle(a, b, 2.5)
        diff = np.linalg.eigvalsh(w2.W - w1.W)
        assert diff[0] >= -1e-10 * max(diff[-1], 1.0)


class TestFluxMatrix:
    def test_zero_dynamics_rank_one(self):
        system = fc.LinearSystem(np.zeros((3, 3)))
        fm = fc.flux_matrix(system, np.ones(3), 1.0)
        npt.assert_allclose(fm.Phi, np.ones((3, 3)), atol=1e-13)
        assert fm.lam_max == pytest.approx(3.0, rel=1e-12)
        npt.assert_allclose(fm.top_vector, np.full(3, 1.0 / np.sqrt(3.0)), rtol=1e-12)
        # At t* = 1e-320 every entry of Phi = t* 1 1^T is subnormal; the top
        # vector comes from the unit start v / ||v||, not from Phi's entries.
        fm = fc.flux_matrix(fc.LinearSystem([[0.0, 1.0], [1.0, 0.0]]), np.ones(2), 1e-320)
        npt.assert_allclose(fm.top_vector, np.full(2, np.sqrt(0.5)), rtol=1e-15)

    def test_diagonal_entrywise_integrals(self):
        system = fc.LinearSystem(np.diag([1.0, -1.0]))
        fm = fc.flux_matrix(system, np.ones(2), 1.0)
        expected = np.array(
            [
                [(np.e**2 - 1.0) / 2.0, 1.0],
                [1.0, (1.0 - np.exp(-2.0)) / 2.0],
            ]
        )
        npt.assert_allclose(fm.Phi, expected, rtol=1e-12)

    def test_transpose_identity_with_reachability(self):
        system = fc.LinearSystem(np.zeros((3, 3)))
        fm = fc.flux_matrix(system, np.array([1.0, 0.0, 0.0]), 2.0)
        w = _bundle(np.zeros((3, 3)).T, np.array([[1.0], [0.0], [0.0]]), 2.0)
        npt.assert_allclose(fm.Phi, w.W, atol=1e-12)

    def test_transpose_identity_random(self, rng):
        a = random_stable_system(rng, 5)
        v = rng.standard_normal(5)
        fm = fc.flux_matrix(fc.LinearSystem(a), v, 1.7)
        w = fc.reachability_gramian(
            fc.LinearSystem(a.T), fc.InputSchematic(v[:, None]), 1.7
        )
        assert np.linalg.norm(fm.Phi - w.W) <= 1e-12 * np.linalg.norm(w.W)

    def test_zero_weighting_rejected(self):
        with pytest.raises(InvalidInputError):
            fc.flux_matrix(fc.LinearSystem(np.zeros((2, 2))), np.zeros(2), 1.0)
        # A nonzero weighting whose flux matrix underflows to zero has no top pair.
        with pytest.raises(InvalidInputError, match="no positive eigenvalue"):
            fc.flux_matrix(fc.LinearSystem(np.zeros((2, 2))), np.full(2, 1e-160), 1e-10)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), symmetric=st.booleans(),
           scale=st.floats(0.05, 5.0), t_star=st.floats(0.01, 3.0), growth=st.floats(-100.0, 1.0))
    @settings(derandomize=True, deadline=None, max_examples=100)
    def test_matches_the_van_loan_reference(self, seed, n, symmetric, scale, t_star, growth):
        # Growth of exp(tA) at most e, as in TestSeriesKernel, and decay down to e^-100.
        a, b = _draw_system(seed, n, 1, scale, symmetric, growth / t_star)
        _check_flux_against_van_loan(a, b[:, 0], t_star)

    @pytest.mark.parametrize("t_star", [1e-3, 0.05, 0.25])
    @pytest.mark.parametrize("v", [[1.0, 1.0, 1.0], [1.0, -2.0, 0.5], [0.0, 0.0, 1.0]])
    def test_jordan_block_matches_the_van_loan_reference(self, t_star, v):
        # ||exp(t* A)|| reaches e^75 at t* = 0.25.
        _check_flux_against_van_loan(300.0 * np.eye(3) + np.eye(3, k=1), np.array(v), t_star)

    def test_strongly_stable_dynamics_match_the_van_loan_reference(self, monkeypatch):
        # -(L + 10 I) on a 10-node path from e_1 over t* = 10: every mode decays
        # at least as e^(-10 s), and the trajectory reaches every node. The
        # stopping bound's growth factor exp(2 mu t*) must not fall below 1, or
        # it would accept k = 1 and return (1/20) e_1 e_1^T.
        adj = np.eye(10, k=1) + np.eye(10, k=-1)
        a = fc.laplacian_system(adj).A - 10.0 * np.eye(10)
        sizes = _record_expm(monkeypatch)
        _check_flux_against_van_loan(a, np.eye(10)[0], 10.0)
        _check_flux_against_van_loan(a + 0.5 * np.triu(adj), np.eye(10)[0], 10.0)
        assert sizes == [10, 10]

    def test_exact_small_coupling_into_growth_is_followed(self, monkeypatch):
        # exp(sA^T) e_1 runs down a chain with links 1 and after eight steps
        # couples 1e-14 into a mode growing as e^(30 s): that link carries 4%
        # of Phi at t* = 2. It is below 4 eps ||A||_F, but the products that
        # form it are exact, so it is no breakdown and Arnoldi goes on to k = 9.
        at = np.diag(np.ones(8), -1)
        at[8, 7], at[8, 8] = 1e-14, 30.0
        sizes = _record_expm(monkeypatch)
        _check_flux_against_van_loan(at.T, np.eye(9)[0], 2.0)
        assert sizes == [9]

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_eigenvector_weighting_breaks_down_after_one_step(self, symmetric, monkeypatch):
        # v an eigenvector of A^T: the Krylov space is span(v), and its Gramian is 1 x 1.
        a, _ = _draw_system(8, 12, 1, 1.0, symmetric)
        if not symmetric:
            a = np.triu(a) + np.diag(np.arange(12.0)) / 6  # real, distinct eigenvalues
        vals, vecs = np.linalg.eig(a.T)
        v = np.real(vecs[:, np.argmax(vals.real)])
        sizes = _record_expm(monkeypatch)
        _check_flux_against_van_loan(a, v, 1.5)
        assert sizes == [1]

    @pytest.mark.parametrize("t_star", [0.015, 1.5, 5.0])
    def test_star_matches_the_van_loan_reference(self, t_star, monkeypatch):
        # The 31-node star's Laplacian has three distinct eigenvalues: the
        # Krylov space of any v has at most three dimensions, and of the
        # all-ones v, one. Arnoldi must stop there, not normalize roundoff.
        adj = np.zeros((31, 31))
        adj[0, 1:] = adj[1:, 0] = 1.0
        a = fc.laplacian_system(adj).A
        sizes = _record_expm(monkeypatch)
        _check_flux_against_van_loan(a, np.ones(31), t_star)
        _check_flux_against_van_loan(a, np.arange(31.0), t_star)
        assert sizes == [1, 3]

    @pytest.mark.parametrize("n", [10, 30])
    def test_long_horizon_fills_the_krylov_space(self, n, monkeypatch):
        # ||A||_1 t* in the hundreds: the stopping bound never passes before
        # k = n, where the result is exact.
        g = np.random.default_rng(n).standard_normal((n, n))
        a = g - g.T - 0.1 * np.eye(n)
        sizes = _record_expm(monkeypatch)
        _check_flux_against_van_loan(a, np.random.default_rng(n + 1).standard_normal(n), 20.0)
        assert sizes[-1] == n

    def test_stopping_bound_counts_the_growth_it_feeds(self, monkeypatch):
        # exp(sA^T) e_1 runs down a chain with weak links 0.1, and after eight
        # steps leaks 1e-5 into a mode growing as e^(40 s). Phi_99 is 1.6e-17
        # against Phi_11 = 1, but the leak's part of Phi is 1e-9 of the whole:
        # the bound at k = 8 must see the growth and go on to k = n = 9. The
        # small Gramian reads G_88 as 0, below its roundoff, so a bound that
        # read it would stop at 8.
        at = np.diag(np.full(8, 0.1), -1)
        at[8, 7], at[8, 8] = 1e-5, 40.0
        sizes = _record_expm(monkeypatch)
        _check_flux_against_van_loan(at.T, np.eye(9)[0], 1.0)
        assert sizes == [9]

    def test_one_small_gramian_on_a_200_node_graph(self, monkeypatch):
        # The flux sweep's workload: the adjacency of a 200-node ring with 100
        # chords, from all ones, at horizons 0.015 to 1.5. The stopping bound
        # needs no Gramian, so each horizon takes one, and it is not n x n.
        n = 200
        rng = np.random.default_rng(13)
        adj = np.roll(np.eye(n), 1, axis=1)
        chords = 0
        while chords < n // 2:
            i, j = rng.integers(n, size=2)
            if i != j and adj[i, j] == adj[j, i] == 0.0:
                adj[i, j], chords = 1.0, chords + 1
        adj = adj + adj.T
        system = fc.LinearSystem(adj)
        for t_star in np.geomspace(0.015, 1.5, 8):
            with pytest.MonkeyPatch.context() as mp:
                sizes = _record_expm(mp)
                fm = fc.flux_matrix(system, np.ones(n), t_star)
            assert len(sizes) == 1 and sizes[0] < n
            exact = fc.GramianEvaluator(system, t_star).flux(np.ones(n))
            assert _rel(fm.Phi, exact) <= 1e-12
            assert abs(fm.top_vector @ eigh(exact)[1][:, -1]) >= 1.0 - 1e-12

    def test_kappa_equals_trace_form(self, rng):
        # v^T W(B) v == tr(B^T Phi_v B) for any schematic.
        a = random_stable_system(rng, 4)
        v = rng.standard_normal(4)
        fm = fc.flux_matrix(fc.LinearSystem(a), v, 1.2)
        for _ in range(10):
            b = rng.standard_normal((4, 2))
            w = fc.reachability_gramian(fc.LinearSystem(a), fc.InputSchematic(b), 1.2)
            trace_form = float(np.trace(b.T @ fm.Phi @ b))
            assert fc.kappa(w, v) == pytest.approx(trace_form, rel=1e-8)


class TestGramianQuadrature:
    def test_exact_for_constant_integrand(self):
        system = fc.LinearSystem(np.zeros((2, 2)))
        schematic = fc.InputSchematic.single_node(2, 0)
        w = gramian_quadrature(system, schematic, 2.0, steps=4)
        npt.assert_allclose(w, [[2.0, 0.0], [0.0, 0.0]], atol=1e-14)

    def test_scalar_convergence(self):
        system = fc.LinearSystem([[1.0]])
        schematic = fc.InputSchematic([[1.0]])
        exact = (np.e**2 - 1.0) / 2.0
        w = gramian_quadrature(system, schematic, 1.0, steps=200)
        assert abs(w[0, 0] - exact) <= 1e-8
        npt.assert_allclose(
            w[0, 0], simpson_scalar_gramian(1.0, 1.0, 200), rtol=1e-13
        )

    def test_fourth_order_richardson(self):
        system = fc.LinearSystem([[1.0]])
        schematic = fc.InputSchematic([[1.0]])
        exact = (np.e**2 - 1.0) / 2.0
        err = [
            abs(gramian_quadrature(system, schematic, 1.0, steps=s)[0, 0] - exact)
            for s in (8, 16, 32)
        ]
        assert err[0] / err[1] > 8.0
        assert err[1] / err[2] > 8.0

    def test_odd_steps_rejected(self):
        system = fc.LinearSystem(np.zeros((2, 2)))
        with pytest.raises(InvalidInputError):
            gramian_quadrature(system, fc.InputSchematic.identity(2), 1.0, steps=5)

    def test_cross_check_block_exponential(self, rng):
        for _ in range(6):
            n = int(rng.integers(2, 9))
            a = random_stable_system(rng, n)
            b = rng.standard_normal((n, int(rng.integers(1, 3))))
            t_star = float(rng.uniform(0.5, 3.0))
            system = fc.LinearSystem(a)
            schematic = fc.InputSchematic(b)
            w_block = fc.reachability_gramian(system, schematic, t_star).W
            w_simpson = gramian_quadrature(system, schematic, t_star, steps=512)
            rel = np.linalg.norm(w_block - w_simpson) / np.linalg.norm(w_block)
            assert rel <= 1e-8


class TestKappa:
    def test_identity(self):
        w = fc.GramianBundle.from_matrix(np.eye(2), 1.0)
        assert fc.kappa(w, np.ones(2)) == pytest.approx(2.0)

    def test_sum_of_entries(self):
        w = fc.GramianBundle.from_matrix(0.5 * np.ones((3, 3)), 0.5)
        assert fc.kappa(w, np.ones(3)) == pytest.approx(4.5)

    def test_orthogonal_direction(self):
        w = fc.GramianBundle.from_matrix(np.diag([2.0, 0.0]), 1.0)
        assert fc.kappa(w, np.array([0.0, 1.0])) == pytest.approx(0.0)


class TestGramianEvaluator:
    def test_symmetric_fast_path_matches_block(self, karate, rng):
        system = karate["system"]
        ev = fc.GramianEvaluator(system, 3.0)
        for _ in range(3):
            b = rng.random((34, 2))
            w_fast = ev.matrix(b)
            w_block = van_loan_block_reference(system.A, b @ b.T, 3.0)
            assert np.linalg.norm(w_fast - w_block) <= 1e-10 * np.linalg.norm(w_block)

    def test_nonsymmetric_falls_back(self, rng):
        a = random_stable_system(rng, 4)
        assert not fc.LinearSystem(a).is_symmetric()
        ev = fc.GramianEvaluator(fc.LinearSystem(a), 1.5)
        b = rng.standard_normal((4, 2))
        w_ref = fc.reachability_gramian(fc.LinearSystem(a), fc.InputSchematic(b), 1.5).W
        npt.assert_allclose(ev.matrix(b), w_ref, rtol=1e-12, atol=1e-14)

    def test_removable_singularity_series(self):
        # Eigenvalue pair summing to ~0 exercises the series limit branch.
        a = np.diag([1e-9, -1e-9])
        ev = fc.GramianEvaluator(fc.LinearSystem(a), 2.0)
        b = np.ones((2, 1))
        w_ref = van_loan_block_reference(a, b @ b.T, 2.0)
        npt.assert_allclose(ev.matrix(b), w_ref, rtol=1e-10)

    def test_weights_just_above_series_cutoff(self):
        # s = 2a = 1.01e-8 takes the closed form, where exp(s t) - 1 cancels.
        a = 0.505e-8
        ev = fc.GramianEvaluator(fc.LinearSystem(np.diag([a, a])), 1.0)
        expected = math.expm1(2.0 * a) / (2.0 * a)
        npt.assert_allclose(ev.matrix(np.eye(2)), expected * np.eye(2), rtol=1e-13, atol=0.0)

    def test_flux_matches_block_exponential(self, karate, rng):
        for system in (karate["system"], fc.LinearSystem(random_stable_system(rng, 5))):
            ev = fc.GramianEvaluator(system, 1.3)
            v = rng.standard_normal(system.n)
            phi = van_loan_block_reference(system.A.T, np.outer(v, v), 1.3)
            assert np.linalg.norm(ev.flux(v) - phi) <= 1e-10 * np.linalg.norm(phi)

    def test_long_horizon_on_laplacian_builds_without_overflow(self, karate):
        # The zero eigenvalue takes the series limit; expm1 past t* ~ 709.8
        # would overflow if evaluated there.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ev = fc.GramianEvaluator(karate["system"], 800.0)
        assert np.all(np.isfinite(ev.matrix(np.ones(34))))

    def test_propagate_matches_expm(self, karate, rng):
        system = karate["system"]
        x0 = rng.standard_normal(34)
        for t in (0.3, 3.0):
            ref = expm(t * system.A) @ x0
            got = fc.GramianEvaluator(system, t).propagate(x0)
            assert np.linalg.norm(got - ref) <= 1e-12 * (1.0 + np.linalg.norm(ref))

    def test_propagate_nonsymmetric_is_the_transition_matrix(self, rng):
        system = fc.LinearSystem(random_stable_system(rng, 5))
        x0 = rng.standard_normal(5)
        got = fc.GramianEvaluator(system, 1.7).propagate(x0)
        npt.assert_array_equal(got, fc.transition_matrix(system, 1.7) @ x0)

    @pytest.mark.parametrize("first", ["matrix", "flux"])
    @pytest.mark.parametrize("t, doubled", [(0.1, False), (3.0, True)], ids=["rung", "squared"])
    def test_propagate_from_the_doubling_ladder_matches_expm(self, rng, first, t, doubled):
        # After a Gramian, exp(t* A) is the ladder's last rung (no doubling) or
        # its square; a first flux call ran the ladder on A^T.
        a = random_stable_system(rng, 5) + 4.0 * np.eye(5, k=1)
        assert (np.linalg.norm(a, 1) * t > 2.0) == doubled
        ev = fc.GramianEvaluator(fc.LinearSystem(a), t)
        getattr(ev, first)(rng.standard_normal((5, 2)) if first == "matrix" else np.ones(5))
        for _ in range(2):
            x0 = rng.standard_normal(5)
            ref = expm(t * a) @ x0
            assert np.linalg.norm(ev.propagate(x0) - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_propagate_shares_the_gramians_exponential(self, rng, monkeypatch):
        import fluxcontrol.gramian as gramian

        calls = []

        def counting(x):
            calls.append(x.shape[0])
            return expm(x)

        monkeypatch.setattr(gramian, "expm", counting)
        system = fc.LinearSystem(random_stable_system(rng, 5) + 4.0 * np.eye(5, k=1))
        b, x0 = rng.standard_normal((5, 2)), rng.standard_normal(5)
        ev = fc.GramianEvaluator(system, 3.0)
        ev.matrix(b)
        ev.propagate(x0)
        ev.propagate(x0)
        assert calls == [5]
        calls.clear()
        ev = fc.GramianEvaluator(system, 3.0)
        ev.propagate(x0)
        ev.matrix(b)
        ev.propagate(x0)
        assert calls == [5, 5]

    def test_overflowing_propagator_is_an_input_error(self):
        # exp(300 * 3) overflows a float; scipy's expm may not warn on the way.
        system = fc.LinearSystem(300.0 * np.eye(3) + np.eye(3, k=1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                fc.GramianEvaluator(system, 3.0).propagate(np.ones(3))

    def test_propagate_rejects_wrong_length(self):
        ev = fc.GramianEvaluator(fc.LinearSystem(np.zeros((3, 3))), 1.0)
        with pytest.raises(InvalidInputError):
            ev.propagate(np.ones(4))

    def test_adjoint_matches_expm(self, karate, rng):
        for system in (karate["system"], fc.LinearSystem(random_stable_system(rng, 5))):
            ev = fc.GramianEvaluator(system, 2.0)
            p = rng.standard_normal(system.n)
            adjoint = ev.adjoint(p, 20)
            for s in (0.0, 0.7, 2.0):
                ref = expm(system.A.T * s) @ p
                lam = adjoint[round(s / 0.1)]
                assert np.linalg.norm(lam - ref) <= 1e-12 * (1.0 + np.linalg.norm(ref))

    def test_adjoint_accumulation_over_many_samples(self, karate, rng):
        # Each sample is one more product with the propagator, so roundoff
        # grows with the sample index; the last rows carry the most.
        non_normal = -np.eye(6) + 5.0 * np.eye(6, k=1)
        for system in (karate["system"], fc.LinearSystem(non_normal)):
            ev = fc.GramianEvaluator(system, 2.0)
            p = rng.standard_normal(system.n)
            adjoint = ev.adjoint(p, 4000)
            assert adjoint.shape == (4001, system.n)
            for j in range(0, 4001, 400):
                ref = expm(system.A.T * (j * 2.0 / 4000)) @ p
                assert np.linalg.norm(adjoint[j] - ref) <= 1e-11 * (1.0 + np.linalg.norm(ref))

    def test_adjoint_needs_a_sample(self):
        ev = fc.GramianEvaluator(fc.LinearSystem(np.zeros((2, 2))), 1.0)
        with pytest.raises(InvalidInputError):
            ev.adjoint(np.ones(2), 0)

    def test_row_count_mismatch_rejected(self):
        ev = fc.GramianEvaluator(fc.LinearSystem(np.zeros((3, 3))), 1.0)
        with pytest.raises(InvalidInputError):
            ev.matrix(np.ones((4, 1)))

    def test_bundle_equals_the_validated_bundle(self, karate, rng):
        # The eigenbasis bundle skips from_matrix's checks; it must carry the
        # same W, kappa and, once read, eigenvalues.
        systems = [karate["system"]]
        for n in (2, 5, 9):
            g = rng.standard_normal((n, n))
            systems.append(fc.LinearSystem(-(g + g.T)))
        for system in systems:
            ev = fc.GramianEvaluator(system, 1.7)
            for m in (1, 3):
                b = rng.standard_normal((system.n, m))
                got = ev.bundle(b)
                ref = fc.GramianBundle.from_matrix(ev.matrix(b), 1.7)
                assert got.W.tobytes() == ref.W.tobytes()
                assert got.kappa == ref.kappa
                assert got.t_star == ref.t_star
                npt.assert_array_equal(got.eigenvalues, ref.eigenvalues)
                assert (got.lam_max, got.lam_min) == (ref.lam_max, ref.lam_min)

    def test_huge_entries_and_horizon_build_without_warnings(self):
        # Entries near 1e300 and t* far past 1e154: no norm or t*^2 may
        # overflow on the way. A stable system gives finite weights, an
        # unstable one the typed error.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stable = fc.LinearSystem([[-1e300, 1.0], [0.0, -1e300]])
            assert np.all(np.isfinite(fc.GramianEvaluator(stable, 1e10).matrix(np.eye(2))))
            with pytest.raises(InvalidInputError, match="Gramian weights overflow"):
                fc.GramianEvaluator(fc.LinearSystem([[1e300, 1.0], [0.0, 1e300]]), 1e10)
            path = fc.laplacian_system(np.array([[0.0, 1.0], [1.0, 0.0]]))
            w = fc.GramianEvaluator(path, 1e200).matrix(np.eye(2))
            npt.assert_allclose(w, np.full((2, 2), 5e199), rtol=1e-12)

    @pytest.mark.parametrize("a", [400.0 * np.eye(3), 300.0 * np.eye(3) + np.eye(3, k=1)],
                             ids=["symmetric", "nonsymmetric"])
    def test_overflowing_gramian_is_an_input_error(self, a):
        # exp(2 * 400 * 3) and exp(2 * 300 * 3) overflow a float; no
        # RuntimeWarning may escape on the way to the typed error.
        system = fc.LinearSystem(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                fc.GramianEvaluator(system, 3.0).bundle(np.eye(3))
            if not system.is_symmetric():
                ev = fc.GramianEvaluator(system, 3.0)
                with pytest.raises(InvalidInputError):
                    ev.flux(np.ones(3))
                with pytest.raises(InvalidInputError):
                    fc.flux_matrix(system, np.ones(3), 3.0)

    def test_non_finite_matrix_is_an_input_error(self):
        with pytest.raises(InvalidInputError):
            fc.GramianBundle.from_matrix(np.array([[1.0, np.nan], [np.nan, 1.0]]), 1.0)

    def test_one_expm_per_block_exponential(self, rng, monkeypatch):
        # exp(hA) of the series' base step drives the horizon doublings, so
        # each integral costs one n x n expm.
        import fluxcontrol.gramian as gramian

        calls = []

        def counting(x):
            calls.append(x.shape[0])
            return expm(x)

        monkeypatch.setattr(gramian, "expm", counting)
        a = random_stable_system(rng, 5) + 4.0 * np.eye(5, k=1)
        system = fc.LinearSystem(a)
        t = 3.0
        assert np.linalg.norm(a, 1) * t > 8.0  # three or more doublings
        ev = fc.GramianEvaluator(system, t)
        b = rng.standard_normal((5, 2))
        w = ev.matrix(b)
        assert calls == [5]
        # The Krylov space of (A^T, 1) fills all five dimensions, so
        # flux_matrix's one small Gramian is 5 x 5.
        fc.flux_matrix(system, np.ones(5), t)
        assert calls == [5, 5]
        w_ref = gramian_quadrature(system, fc.InputSchematic(b), t, 4000)
        assert np.linalg.norm(w - w_ref) <= 1e-8 * np.linalg.norm(w_ref)


def _draw_system(seed, n, m, scale, symmetric, abscissa=None):
    """Random (A, B); A shifted to the given largest eigenvalue real part."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) / np.sqrt(n)
    a = scale * (0.5 * (g + g.T) if symmetric else g)
    if abscissa is not None:
        a = a - (np.max(np.linalg.eigvals(a).real) - abscissa) * np.eye(n)
    return a, rng.standard_normal((n, m))


def _rel(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def _quadrature(a, b, t_star):
    # Simpson with ||A||_1 h <= 1/80 stays within about 1e-9 of the integral.
    steps = 2 * max(100, math.ceil(40 * np.linalg.norm(a, 1) * t_star))
    return gramian_quadrature(fc.LinearSystem(a), fc.InputSchematic(b), t_star, steps)


def _record_thick_series(monkeypatch):
    """Make ``_thick_series`` record the (||ha||_1, terms) of each call."""
    calls, thick = [], gramian._thick_series

    def recording(ha, b, terms):
        calls.append((np.linalg.norm(ha, 1), terms))
        return thick(ha, b, terms)

    monkeypatch.setattr(gramian, "_thick_series", recording)
    return calls


class TestSeriesKernel:
    """The base-step series and its horizon doublings against the 2n x 2n
    block exponential and Simpson quadrature.

    Draws keep the largest eigenvalue real part at or below 1/t*: on strongly
    unstable systems the doubling ladder, which both engines share, amplifies
    roundoff with the growth of exp(tA): a symmetric draw with ||exp(t*A)|| =
    e^9.4 put both 6e-13 to 2e-12 from the exact integral.
    """

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7), symmetric=st.booleans(),
           scale=st.floats(0.05, 5.0), t_star=st.floats(0.01, 3.0),
           growth=st.floats(-2.0, 1.0), data=st.data())
    @settings(derandomize=True, deadline=None, max_examples=150)
    def test_small_systems_match_block_and_quadrature(self, seed, n, symmetric, scale, t_star,
                                                      growth, data):
        m = data.draw(st.integers(1, n))
        a, b = _draw_system(seed, n, m, scale, symmetric, growth / t_star)
        assert fc.LinearSystem(a).is_symmetric() == symmetric
        w = gramian._doubling_gramian(a, b, t_star)[0]
        assert _rel(w, van_loan_block_reference(a, b @ b.T, t_star)) <= 1e-12
        assert _rel(w, _quadrature(a, b, t_star)) <= 1e-8

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(40, 80), symmetric=st.booleans(),
           scale=st.floats(0.1, 2.0), t_star=st.floats(0.05, 1.5),
           growth=st.floats(-2.0, 1.0), data=st.data())
    @settings(derandomize=True, deadline=None, max_examples=25)
    def test_thin_factors_match_block_and_quadrature(self, seed, n, symmetric, scale, t_star,
                                                     growth, data):
        longest = gramian._series_terms(gramian._THETA)
        m = data.draw(st.integers(1, 2 if n > 2 * (longest + 1) else 1))
        assert m * (longest + 1) < n  # the Krylov form runs
        a, b = _draw_system(seed, n, m, scale, symmetric, growth / t_star)
        w = gramian._doubling_gramian(a, b, t_star)[0]
        assert _rel(w, van_loan_block_reference(a, b @ b.T, t_star)) <= 1e-12
        assert _rel(w, _quadrature(a, b, t_star)) <= 1e-8

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 60), m=st.integers(1, 3),
           symmetric=st.booleans(), reach=st.floats(0.0, 1.0))
    @settings(derandomize=True, deadline=None, max_examples=100)
    def test_thin_and_thick_forms_agree(self, seed, n, m, symmetric, reach):
        # Both forms sum the same series; called directly, neither switch applies.
        a, b = _draw_system(seed, n, m, 1.0, symmetric)
        ha = reach * gramian._THETA * a / np.linalg.norm(a, 1)
        terms = gramian._series_terms(reach * gramian._THETA)
        thick = gramian._thick_series(ha, b, terms)
        assert _rel(gramian._thin_series(ha, b, terms), thick) <= 1e-13

    @pytest.mark.parametrize("side", [1.0 - 1e-12, 1.0 + 1e-12], ids=["below", "above"])
    def test_base_step_at_the_series_range(self, side, monkeypatch):
        # Just above _THETA / ||A||_1 the horizon must be doubled; on either
        # side the thick form may double further where that saves products.
        # Whatever it picks, the base step stays in the series range and the
        # series is the shortest whose tail bound at the actual ||hA||_1 is
        # below roundoff.
        a, b = _draw_system(3, 6, 2, 1.0, False)
        t_star = side * gramian._THETA / np.linalg.norm(a, 1)
        calls = _record_thick_series(monkeypatch)
        w, _, doubled = gramian._doubling_gramian(a, b, t_star)
        [(x, terms)] = calls
        assert x <= gramian._THETA
        assert doubled == (x < np.linalg.norm(a, 1) * t_star) and (doubled or side < 1.0)

        def tail(p):
            return (2 * x) ** (p + 1) * math.exp(2 * x) / math.factorial(p + 2)

        assert tail(terms) <= 2.0**-53 < tail(terms - 1)
        assert _rel(w, van_loan_block_reference(a, b @ b.T, t_star)) <= 1e-13

    @pytest.mark.parametrize("reach, expected", [(0.01, (0, 6)), (1.9, (3, 13)),
                                                 (7.0, (5, 13)), (100.0, (9, 12))])
    def test_thick_form_takes_the_fewest_products(self, reach, expected, monkeypatch):
        # n x n products: p Horner terms plus 3d - 1 for d >= 1 doublings.
        # At ||A||_1 t* = 7, as on the steer-directed benchmark matrix,
        # d = 4 (p = 16) and d = 5 (p = 13) both cost 27; ties take the
        # shorter series.
        a, b = _draw_system(3, 6, 6, 1.0, False, abscissa=-0.1)
        t_star = reach / np.linalg.norm(a, 1)
        calls = _record_thick_series(monkeypatch)
        w = gramian._doubling_gramian(a, b, t_star)[0]
        [(x, terms)] = calls
        assert (round(math.log2(reach / x)), terms) == expected
        assert _rel(w, van_loan_block_reference(a, b @ b.T, t_star)) <= 1e-12

    def test_tiny_horizon(self):
        a, b = _draw_system(4, 5, 2, 3.0, False)
        w = gramian._doubling_gramian(a, b, 1e-12)[0]
        assert _rel(w, 1e-12 * (b @ b.T)) <= 1e-11
        assert _rel(w, van_loan_block_reference(a, b @ b.T, 1e-12)) <= 1e-13

    def test_zero_columns_add_nothing(self):
        a, b = _draw_system(5, 6, 2, 2.0, False)
        padded = np.column_stack([b[:, :1], np.zeros(6), b[:, 1:], np.zeros(6)])
        w = gramian._doubling_gramian(a, padded, 2.5)[0]
        assert _rel(w, gramian._doubling_gramian(a, b, 2.5)[0]) <= 1e-14
        assert _rel(w, van_loan_block_reference(a, b @ b.T, 2.5)) <= 1e-12

    def test_two_state_jordan_block_closed_form(self):
        # exp(sA) e_2 = exp(lam s) (s, 1), so W holds int_0^T s^k exp(2 lam s) ds.
        lam, t = -1.0, 2.0
        c = 2.0 * lam
        i0 = math.expm1(c * t) / c
        i1 = (t * math.exp(c * t) - i0) / c
        i2 = (t * t * math.exp(c * t) - 2.0 * i1) / c
        a = np.array([[lam, 1.0], [0.0, lam]])
        w = fc.GramianEvaluator(fc.LinearSystem(a), t).matrix(np.array([[0.0], [1.0]]))
        npt.assert_allclose(w, [[i2, i1], [i1, i0]], rtol=1e-14)

    def test_stiff_nonsymmetric_beyond_the_old_doubling_cap(self):
        # ||A||_1 t* = 1.1e20 needs 66 doublings; capped at 60, the base step
        # would leave the series range and the sum come back wrong.
        big, c = 1e20, 1e19
        a = np.array([[-big, c], [0.0, -big]])
        assert not fc.LinearSystem(a).is_symmetric()
        # exp(sA) = exp(-big s) [[1, c s], [0, 1]]; with B = I the entries of W
        # are integrals of s^k exp(-2 big s), k <= 2.
        s = 2.0 * big
        expected = [[1.0 / s + 2.0 * c * c / s**3, c / s**2], [c / s**2, 1.0 / s]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = fc.GramianEvaluator(fc.LinearSystem(a), 1.0).matrix(np.eye(2))
        npt.assert_allclose(w, expected, rtol=1e-12)

    def test_overflowing_step_count_is_an_input_error(self):
        # ||A||_1 t* overflows a float, so no number of doublings reaches the
        # series range.
        a = np.array([[-1e150, 1e149], [0.0, -1e150]])
        assert not fc.LinearSystem(a).is_symmetric()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError):
                fc.GramianEvaluator(fc.LinearSystem(a), 1e200).matrix(np.eye(2))


def _relation_case(seed, kind, t_star, growth, symmetric=False):
    """(A, B) for a metamorphic check: ``small`` has n = 2-7 and any m;
    ``thin`` has n = 40-80 and the m <= 2 columns the Krylov form serves;
    ``identity`` has n = 40-80 and B = I, which Horner serves."""
    rng = np.random.default_rng(seed)
    if kind == "small":
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, n + 1))
    else:
        n = int(rng.integers(40, 81))
        longest = gramian._series_terms(gramian._THETA)
        m = n if kind == "identity" else (2 if n > 2 * (longest + 1) else 1)
    a, b = _draw_system(seed, n, m, float(rng.uniform(0.1, 2.0)), symmetric, growth / t_star)
    return a, (np.eye(n) if kind == "identity" else b)


def _series_w(a, b, t_star):
    return fc.GramianEvaluator(fc.LinearSystem(a), t_star).matrix(b)


RELATION_KINDS = st.sampled_from(["small", "thin", "identity"])
RELATION_SETTINGS = settings(derandomize=True, deadline=None, max_examples=30)


class TestMetamorphicRelations:
    """Relations the Gramian integral keeps (Chen, Cheung & Yiu 1998), checked
    on the series kernel with nonsymmetric draws, and the eigenbasis form
    against the series on symmetric draws. The growth of exp(tA) stays at or
    below e, as in ``TestSeriesKernel``."""

    @given(seed=st.integers(0, 2**32 - 1), kind=RELATION_KINDS, t_star=st.floats(0.05, 3.0),
           growth=st.floats(-2.0, 1.0), c=st.floats(0.1, 10.0))
    @RELATION_SETTINGS
    def test_time_rescaling(self, seed, kind, t_star, growth, c):
        # int_0^{t/c} exp(s cA) B B^T exp(s cA^T) ds = W_A(t) / c.
        a, b = _relation_case(seed, kind, t_star, growth)
        assert not fc.LinearSystem(a).is_symmetric()
        w = _series_w(a, b, t_star)
        assert _rel(c * _series_w(c * a, b, t_star / c), w) <= 1e-12

    @given(seed=st.integers(0, 2**32 - 1), kind=RELATION_KINDS, t_star=st.floats(0.05, 3.0),
           growth=st.floats(-2.0, 1.0))
    @RELATION_SETTINGS
    def test_column_rotation(self, seed, kind, t_star, growth):
        # (BQ)(BQ)^T = B B^T for orthogonal Q.
        a, b = _relation_case(seed, kind, t_star, growth)
        q = np.linalg.qr(np.random.default_rng(seed).standard_normal((b.shape[1],) * 2))[0]
        assert _rel(_series_w(a, b @ q, t_star), _series_w(a, b, t_star)) <= 1e-12

    @given(seed=st.integers(0, 2**32 - 1), kind=RELATION_KINDS, t_star=st.floats(0.05, 3.0),
           growth=st.floats(-2.0, 1.0))
    @RELATION_SETTINGS
    def test_relabelling(self, seed, kind, t_star, growth):
        # W(P A P^T, P B) = P W(A, B) P^T for a permutation P.
        a, b = _relation_case(seed, kind, t_star, growth)
        perm = np.random.default_rng(seed).permutation(a.shape[0])
        w = _series_w(a, b, t_star)
        relabelled = _series_w(a[perm][:, perm], b[perm], t_star)
        assert _rel(relabelled, w[perm][:, perm]) <= 1e-12

    @given(seed=st.integers(0, 2**32 - 1), kind=RELATION_KINDS, t_star=st.floats(0.05, 3.0),
           growth=st.floats(-2.0, 1.0))
    @RELATION_SETTINGS
    def test_eigenbasis_form_matches_the_series(self, seed, kind, t_star, growth):
        a, b = _relation_case(seed, kind, t_star, growth, symmetric=True)
        assert fc.LinearSystem(a).is_symmetric()
        series = gramian._doubling_gramian(a, b, t_star)[0]
        assert _rel(_series_w(a, b, t_star), series) <= 1e-12


def _rotations(weights):
    """(A, v) whose flux matrix over t* = 2 pi is pi diag(w_1, w_1, w_2, w_2, ...).

    A holds the rotation blocks [[0, j], [-j, 0]], j = 1, 2, ..., and v holds
    sqrt(w_j) in block j's first entry: exp(sA^T) v turns each block's part at
    its own whole frequency, so over one period every cross term integrates
    to zero and each block adds pi w_j I_2."""
    a, v = np.zeros((2 * len(weights),) * 2), np.zeros(2 * len(weights))
    for j, w in enumerate(weights):
        a[2 * j, 2 * j + 1], a[2 * j + 1, 2 * j] = j + 1, -(j + 1)
        v[2 * j] = math.sqrt(w)
    return a, v


def _rotation_flux(weights):
    """The flux matrix of ``_rotations(weights)`` over 2 pi, checked against pi diag(w)."""
    a, v = _rotations(weights)
    fm = fc.flux_matrix(fc.LinearSystem(a), v, 2 * math.pi)
    exact = math.pi * np.repeat(weights, 2)
    assert np.abs(fm.Phi - np.diag(exact)).max() <= 1e-13 * exact.max()
    return fm


def _record_expm(mp):
    """Make ``gramian.expm`` record the size of each matrix it exponentiates."""
    sizes, inner = [], gramian.expm

    def recording(x):
        sizes.append(x.shape[0])
        return inner(x)

    mp.setattr(gramian, "expm", recording)
    return sizes


def _check_flux_against_van_loan(a, v, t_star):
    """Phi and the top vector of ``flux_matrix`` against the 2n x 2n block
    exponential, to 1e-12; both are scaled to unit largest entry first, since
    the norms would square entries past 1e154."""
    fm = fc.flux_matrix(fc.LinearSystem(a), v, t_star)
    ref = van_loan_block_reference(a.T, np.outer(v, v), t_star)
    scale = np.abs(ref).max()
    assert _rel(fm.Phi / scale, ref / scale) <= 1e-12
    vals, vecs = eigh(ref / scale)
    if len(v) == 1 or vals[-1] - vals[-2] > 1e-6 * vals[-1]:
        assert abs(fm.top_vector @ vecs[:, -1]) >= 1.0 - 1e-12
    return fm


def _check_top_pair(phi, lam, u):
    """Value against LAPACK's, unit norm and an eigen-residual at roundoff."""
    ref = eigh(phi, eigvals_only=True)[-1]
    assert abs(lam - ref) <= 1e-14 * ref
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-14
    # Divided first: at 1e300 the squares inside the norm would overflow.
    assert np.linalg.norm((phi @ u) / lam - u) <= 16 * np.finfo(float).eps


class TestTopEigenpair:
    """``flux_matrix``'s top pair, from ``eigh`` of the Krylov Gramian, against
    LAPACK ``eigh`` of the flux matrix it returns and against closed forms."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), data=st.data(),
           symmetric=st.booleans(), decay=st.floats(0.0, 8.0), t_star=st.floats(0.05, 3.0))
    @settings(derandomize=True, deadline=None, max_examples=200)
    def test_psd_matrices_match_lapack(self, seed, n, data, symmetric, decay, t_star):
        # v in an invariant subspace of A^T of the drawn dimension, which is
        # Phi's rank; A shifted by -decay / t*: the larger the decay, the
        # faster Phi's spectrum falls off.
        rank = data.draw(st.integers(1, n))
        a, b = _draw_system(seed, n, 1, 1.0, symmetric, -decay / t_star)
        a[:rank, rank:] = 0.0
        if symmetric:
            a[rank:, :rank] = 0.0
        b[rank:] = 0.0
        rot = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]
        fm = _check_flux_against_van_loan(rot @ a @ rot.T, rot @ b[:, 0], t_star)
        _check_top_pair(fm.Phi, fm.lam_max, fm.top_vector)
        vals, vecs = eigh(fm.Phi)
        if n == 1 or vals[-1] - vals[-2] > 1e-6 * vals[-1]:
            assert abs(fm.top_vector @ vecs[:, -1]) >= 1.0 - 1e-12

    def test_one_and_two_nodes(self):
        fm = fc.flux_matrix(fc.LinearSystem([[-0.5]]), [2.0], 1.0)
        assert fm.lam_max == pytest.approx(4.0 * -math.expm1(-1.0), rel=1e-15)
        assert fm.top_vector.tolist() == [1.0]
        # Phi of diag(1, -1) from (1, 1), as in TestFluxMatrix, against its closed form.
        fm = fc.flux_matrix(fc.LinearSystem(np.diag([1.0, -1.0])), np.ones(2), 1.0)
        vals, vecs = eigh([[(np.e**2 - 1.0) / 2.0, 1.0], [1.0, (1.0 - np.exp(-2.0)) / 2.0]])
        assert fm.lam_max == pytest.approx(vals[-1], rel=1e-14)
        assert abs(fm.top_vector @ vecs[:, -1]) >= 1.0 - 1e-15
        # A weighting on one axis of diagonal dynamics stays on it: Phi = diag(phi, 0).
        for v in ([1.0, 0.0], [0.0, 1.0]):
            fm = fc.flux_matrix(fc.LinearSystem(np.diag([1.0, -1.0])), v, 1.0)
            npt.assert_array_equal(fm.top_vector, v)

    @pytest.mark.parametrize("n", [2, 3, 34, 200])
    def test_rank_one_all_ones(self, n, monkeypatch):
        # Laplacian dynamics conserve the all-ones weighting: Phi = t* 1 1^T,
        # and Arnoldi breaks down after one step, so the one small Gramian is 1 x 1.
        adj = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 2), 2)
        sizes = _record_expm(monkeypatch)
        fm = fc.flux_matrix(fc.laplacian_system(adj + adj.T), np.ones(n), 0.7)
        assert sizes == [1]
        _check_top_pair(fm.Phi, fm.lam_max, fm.top_vector)
        npt.assert_allclose(fm.Phi, np.full((n, n), 0.7), rtol=1e-14)
        npt.assert_allclose(fm.top_vector, np.full(n, 1.0 / np.sqrt(n)), rtol=1e-14)

    @pytest.mark.parametrize("lam", [[2.0, 2.0, 1.0, 0.5, 0.1, 0.0], [1.0] * 5, [1.0, 1.0, 0.0]])
    def test_exact_top_tie_lies_in_the_top_eigenspace(self, lam):
        fm = _rotation_flux(lam)
        _check_top_pair(fm.Phi, fm.lam_max, fm.top_vector)
        tied = np.repeat(np.asarray(lam) == lam[0], 2)
        assert np.linalg.norm(fm.top_vector[tied]) >= 1.0 - 1e-12

    @pytest.mark.parametrize("gap", [1e-10, 1e-14])
    def test_near_tie_lies_in_the_top_pair_of_eigenspaces(self, gap):
        fm = _rotation_flux([1.0, 1.0 - gap, 0.5, 0.3, 0.2, 0.1, 1e-3, 0.0])
        _check_top_pair(fm.Phi, fm.lam_max, fm.top_vector)
        assert np.linalg.norm(fm.top_vector[:4]) >= 1.0 - 1e-12

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_extreme_scales(self, scale):
        # v scaled by sqrt(scale) scales Phi by scale.
        a, b = _draw_system(5, 12, 1, 1.0, False, -0.5)
        fm = fc.flux_matrix(fc.LinearSystem(a), b[:, 0], 1.0)
        fm_s = fc.flux_matrix(fc.LinearSystem(a), math.sqrt(scale) * b[:, 0], 1.0)
        assert fm_s.lam_max == pytest.approx(scale * fm.lam_max, rel=1e-14)
        assert abs(fm_s.top_vector @ fm.top_vector) >= 1.0 - 1e-12
        _check_top_pair(fm_s.Phi, fm_s.lam_max, fm_s.top_vector)

    def test_flat_spectrum(self, monkeypatch):
        # 100 rotation blocks at frequencies up to 100 over 2 pi: ||A|| t* = 628
        # takes the Krylov space to all n = 200 dimensions, and the one small
        # Gramian is the full one.
        sizes = _record_expm(monkeypatch)
        fm = _rotation_flux(np.linspace(2.0, 1.0, 100))
        assert sizes == [200]
        _check_top_pair(fm.Phi, fm.lam_max, fm.top_vector)
        assert np.linalg.norm(fm.top_vector[:2]) >= 1.0 - 1e-12

    def test_fixed_start_reruns_identically_and_leaves_the_global_rng(self):
        # Arnoldi starts from v itself and draws nothing.
        a, b = _draw_system(7, 10, 1, 1.0, False)
        state = np.random.get_state()
        first = fc.flux_matrix(fc.LinearSystem(a), b[:, 0], 1.3)
        after = np.random.get_state()
        assert after[2] == state[2] and np.array_equal(after[1], state[1])
        second = fc.flux_matrix(fc.LinearSystem(a), b[:, 0], 1.3)
        assert first.Phi.tobytes() == second.Phi.tobytes()
        assert first.lam_max == second.lam_max
        assert first.top_vector.tobytes() == second.top_vector.tobytes()


def _krylov_case(seed, kind, n):
    """(A, v, w) for two weightings. "zero" and "blocks" break Arnoldi down
    early: A = 0 after one step, and a block-diagonal A with v in its first
    block of s rows after at most s steps."""
    rng = np.random.default_rng((seed, 1))
    if kind in ("symmetric", "nonsymmetric"):
        a = _draw_system(seed, n, 1, 2.0, kind == "symmetric")[0]
    else:
        a = np.zeros((n, n))
    v, w = rng.standard_normal((2, n))
    if kind == "blocks":
        s = max(1, n // 3)
        a[:s, :s] = rng.standard_normal((s, s))
        a[s:, s:] = rng.standard_normal((n - s, n - s)) / math.sqrt(n)
        v[s:] = 0.0
    return a, v, w


KRYLOV_KINDS = st.sampled_from(["symmetric", "nonsymmetric", "zero", "blocks"])


class TestSharedKrylovSpace:
    """One system keeps the Krylov space of its last weighting and grows it as
    the horizons ask; every result equals that of a fresh system, bit for bit."""

    @given(seed=st.integers(0, 2**32 - 1), kind=KRYLOV_KINDS, n=st.integers(2, 30),
           horizons=st.lists(st.floats(0.01, 4.0), min_size=1, max_size=5))
    @settings(derandomize=True, deadline=None, max_examples=60)
    def test_shuffled_horizons_and_interleaved_weightings_match_a_fresh_system(
            self, seed, kind, n, horizons):
        a, v, w = _krylov_case(seed, kind, n)
        rng = np.random.default_rng(seed)
        system = fc.LinearSystem(a)
        # Runs of v, w, then v again (its space rebuilt), each over every
        # horizon twice in a random order.
        for weighting in (v, w, v):
            for t_star in rng.permutation(horizons + horizons):
                got = fc.flux_matrix(system, weighting, t_star)
                ref = fc.flux_matrix(fc.LinearSystem(a), weighting, t_star)
                assert got.lam_max == ref.lam_max
                npt.assert_array_equal(got.top_vector, ref.top_vector)
                npt.assert_array_equal(got.Phi, ref.Phi)
        assert len(system._krylov) == 1 and system._krylov[0].key == v.tobytes()
        if kind in ("zero", "blocks"):
            assert system._krylov[0].closed

    def test_a_new_weighting_replaces_the_kept_space(self):
        a, v, w = _krylov_case(7, "nonsymmetric", 12)
        u = np.ones(12)
        system = fc.LinearSystem(a)
        for weighting in (v, w, u):
            fc.flux_matrix(system, weighting, 0.5)
            assert len(system._krylov) == 1
            assert system._krylov[0].key == weighting.tobytes()
        got = fc.flux_matrix(system, v, 0.5)
        npt.assert_array_equal(got.Phi, fc.flux_matrix(fc.LinearSystem(a), v, 0.5).Phi)
        assert len(system._krylov) == 1 and system._krylov[0].key == v.tobytes()

    @pytest.mark.parametrize("clone_of", [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy])
    def test_a_system_with_a_kept_space_survives_pickle_and_deepcopy(self, clone_of):
        a, v, _ = _krylov_case(2, "symmetric", 10)
        system = fc.LinearSystem(a)
        first = fc.flux_matrix(system, v, 1.2)
        clone = clone_of(system)
        npt.assert_array_equal(clone.A, system.A)
        assert clone._krylov == [None] and not clone.A.flags.writeable
        again = fc.flux_matrix(clone, v, 1.2)
        assert again.lam_max == first.lam_max
        npt.assert_array_equal(again.Phi, first.Phi)

    @given(seed=st.integers(0, 2**32 - 1), kind=KRYLOV_KINDS, n=st.integers(2, 30),
           horizons=st.lists(st.floats(0.01, 4.0), min_size=1, max_size=6))
    @settings(derandomize=True, deadline=None, max_examples=30)
    def test_sweep_rows_match_fresh_centralities(self, seed, kind, n, horizons):
        a = _krylov_case(seed, kind, n)[0]
        hs = np.sort(horizons)
        rows = fc.flux_sweep(fc.LinearSystem(a), hs).phi
        for t_star, row in zip(hs, rows):
            npt.assert_array_equal(row, fc.flux_centrality(fc.LinearSystem(a), t_star))

    def test_dynamics_are_a_read_only_copy(self):
        a, v, _ = _krylov_case(3, "nonsymmetric", 6)
        system = fc.LinearSystem(a)
        first = fc.flux_matrix(system, v, 1.0)
        with pytest.raises(ValueError):
            system.A[0, 0] = 1.0
        assert a.flags.writeable
        before = a.copy()
        a[0, 0] += 1.0
        # The caller's write reaches neither the system nor its cached space.
        npt.assert_array_equal(system.A, before)
        again = fc.flux_matrix(system, v, 1.0)
        npt.assert_array_equal(again.Phi, first.Phi)
        npt.assert_array_equal(again.top_vector, first.top_vector)

    def test_threads_sharing_a_system_match_a_fresh_system(self):
        a, v, w = _krylov_case(9, "nonsymmetric", 40)
        horizons = [0.05, 3.0, 0.4, 1.5, 0.1, 2.5]
        ref = {(i, t): fc.flux_matrix(fc.LinearSystem(a), (v, w)[i], t)
               for i in (0, 1) for t in horizons}
        systems, results, errors = [fc.LinearSystem(a) for _ in range(5)], [], []

        def work(i):
            try:
                for system in systems:
                    for t in horizons[i:] + horizons[:i]:
                        results.append(((i % 2, t), fc.flux_matrix(system, (v, w)[i % 2], t)))
            except Exception as exc:
                errors.append(exc)

        # Six threads on two cores, each sweeping the shared systems in its own order.
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(th.is_alive() for th in threads)
        assert len(results) == 6 * len(systems) * len(horizons)
        for key, fm in results:
            assert fm.lam_max == ref[key].lam_max
            npt.assert_array_equal(fm.top_vector, ref[key].top_vector)

    def test_phi_is_formed_on_first_read(self):
        a, v, _ = _krylov_case(5, "symmetric", 8)
        fm = fc.flux_matrix(fc.LinearSystem(a), v, 0.9)
        assert "Phi" not in fm.__dict__
        assert fm.Phi is fm.Phi
        assert fm.Phi.shape == (8, 8) and fm.n == 8
        # The basis is a view of the space the system keeps for later horizons.
        with pytest.raises(ValueError):
            fm.basis[0, 0] = 1.0

