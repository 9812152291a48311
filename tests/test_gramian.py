import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy.linalg import expm

import fluxcontrol as fc
from fluxcontrol.errors import InvalidInputError
from fluxcontrol.gramian import _van_loan_gramian

from _oracles import gramian_quadrature, random_stable_system, simpson_scalar_gramian


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
            w_block = _van_loan_gramian(system.A, b @ b.T, 3.0)
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
        w_ref = _van_loan_gramian(a, b @ b.T, 2.0)
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
            phi = _van_loan_gramian(system.A.T, np.outer(v, v), 1.3)
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
