import math
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
        # At t* = 1e-320 every entry of Phi = t* 1 1^T is subnormal; Lanczos on
        # the unscaled matrix returns (-0.689, 0.724).
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
        m = data.draw(st.integers(1, 2 if n > 2 * (gramian._TERMS + 1) else 1))
        assert m * (gramian._TERMS + 1) < n  # the Krylov form runs
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
        thick = gramian._thick_series(ha, b)
        assert _rel(gramian._thin_series(ha, b), thick) <= 1e-13

    @pytest.mark.parametrize("side", [1.0 - 1e-12, 1.0 + 1e-12], ids=["below", "above"])
    def test_base_step_at_the_series_range(self, side):
        a, b = _draw_system(3, 6, 2, 1.0, False)
        t_star = side * gramian._THETA / np.linalg.norm(a, 1)
        w, _, doubled = gramian._doubling_gramian(a, b, t_star)
        assert doubled == (side > 1.0)
        assert _rel(w, van_loan_block_reference(a, b @ b.T, t_star)) <= 1e-13

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


def _spectral(seed, lam):
    """Symmetric matrix with eigenvalues ``lam`` in a seeded orthonormal basis, and the basis."""
    n = len(lam)
    v = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]
    phi = (v * np.asarray(lam, dtype=float)) @ v.T
    return 0.5 * (phi + phi.T), v


def _check_top_pair(phi, lam, u):
    """Value against LAPACK's, unit norm and an eigen-residual at roundoff."""
    ref = eigh(phi, eigvals_only=True)[-1]
    assert abs(lam - ref) <= 1e-14 * ref
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-14
    # Divided first: at 1e300 the squares inside the norm would overflow.
    assert np.linalg.norm((phi @ u) / lam - u) <= 16 * np.finfo(float).eps


class TestTopEigenpair:
    """Lanczos top pair of a PSD matrix against LAPACK ``eigh``."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), data=st.data(),
           decay=st.floats(0.0, 8.0))
    @settings(derandomize=True, deadline=None, max_examples=200)
    def test_psd_matrices_match_lapack(self, seed, n, data, decay):
        rank = data.draw(st.integers(1, n))
        lam = np.random.default_rng(seed).uniform(0.5, 1.0, n) * np.exp(-decay * np.arange(n))
        phi, _ = _spectral(seed, np.where(np.arange(n) < rank, lam, 0.0))
        top, u = gramian._top_eigenpair(phi)
        _check_top_pair(phi, top, u)
        vals, vecs = eigh(phi)
        if n == 1 or vals[-1] - vals[-2] > 1e-6 * vals[-1]:
            assert abs(u @ vecs[:, -1]) >= 1.0 - 1e-12

    def test_one_and_two_nodes(self):
        lam, u = gramian._top_eigenpair(np.array([[3.0]]))
        assert lam == 3.0 and abs(u[0]) == 1.0
        lam, u = gramian._top_eigenpair(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert lam == pytest.approx(3.0, rel=1e-15)
        npt.assert_allclose(np.abs(u), np.full(2, np.sqrt(0.5)), rtol=1e-15)
        for phi in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])):
            lam, u = gramian._top_eigenpair(phi)
            assert lam == pytest.approx(1.0, rel=1e-15)
            npt.assert_allclose(np.abs(u), np.diag(phi), atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 34, 200])
    def test_rank_one_all_ones(self, n):
        # Laplacian dynamics conserve the all-ones weighting: Phi = t* 1 1^T.
        lam, u = gramian._top_eigenpair(np.full((n, n), 0.7))
        _check_top_pair(np.full((n, n), 0.7), lam, u)
        npt.assert_allclose(np.abs(u), np.full(n, 1.0 / np.sqrt(n)), rtol=1e-14)

    @pytest.mark.parametrize("lam", [[2.0, 2.0, 1.0, 0.5, 0.1, 0.0], [1.0] * 5, [1.0, 1.0, 0.0]])
    def test_exact_top_tie_lies_in_the_top_eigenspace(self, lam):
        phi, v = _spectral(3, lam)
        top, u = gramian._top_eigenpair(phi)
        _check_top_pair(phi, top, u)
        tied = v[:, np.asarray(lam) == lam[0]]
        assert np.linalg.norm(tied.T @ u) >= 1.0 - 1e-12

    @pytest.mark.parametrize("gap", [1e-10, 1e-14])
    def test_near_tie_lies_in_the_top_pair_of_eigenspaces(self, gap):
        phi, v = _spectral(4, [1.0, 1.0 - gap, 0.5, 0.3, 0.2, 0.1, 1e-3, 0.0])
        top, u = gramian._top_eigenpair(phi)
        _check_top_pair(phi, top, u)
        assert np.linalg.norm(v[:, :2].T @ u) >= 1.0 - 1e-12

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_extreme_scales(self, scale):
        phi, _ = _spectral(5, np.exp(-np.arange(12.0)))
        lam, u = gramian._top_eigenpair(phi)
        lam_s, u_s = gramian._top_eigenpair(scale * phi)
        assert lam_s == pytest.approx(scale * lam, rel=1e-14)
        assert abs(u_s @ u) >= 1.0 - 1e-12
        _check_top_pair(scale * phi, lam_s, u_s)

    def test_flat_spectrum(self):
        phi, v = _spectral(6, np.linspace(2.0, 1.0, 200))
        lam, u = gramian._top_eigenpair(phi)
        _check_top_pair(phi, lam, u)
        assert abs(u @ v[:, 0]) >= 1.0 - 1e-12

    def test_fixed_start_reruns_identically_and_leaves_the_global_rng(self):
        phi, _ = _spectral(7, np.exp(-np.arange(10.0)))
        state = np.random.get_state()
        first = gramian._top_eigenpair(phi)
        after = np.random.get_state()
        assert after[2] == state[2] and np.array_equal(after[1], state[1])
        second = gramian._top_eigenpair(phi)
        assert first[0] == second[0] and np.array_equal(first[1], second[1])
