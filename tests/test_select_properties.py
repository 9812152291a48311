"""Property tests of the adjoint vector ``p`` every state selection returns.

For each goal kind: ``W p = x* - z``, ``E = p^T W p``, the goal holds at
``x*``, ``E`` is monotone in ``eta`` and scaling ``W`` by ``c`` scales ``E``
by ``1/c``. A goal that starts on its target (``O z = d``) reads only the
pole eigenpairs and must select what the full spectrum selects. Examples are
derandomized so reruns draw the same instances.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fluxcontrol as fc
from fluxcontrol import select as select_module
from fluxcontrol.select import _require_movable

from _oracles import centering_matrix, random_stable_system, variance_energy_bound_dense

KINDS = ["mean", "variance", "expand", "contract", "repulsion", "corner", "limit"]
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=70)


def _centered(x):
    return x - x.mean()


def _reach_floor(og, a):
    """``min_y ||a + O G y||^2``: the least QCLS statistic a Gramian ``G G^T`` reaches."""
    return float(np.sum((a - og @ np.linalg.lstsq(og, a, rcond=None)[0]) ** 2))


def _problem(kind, rng, n, g=None):
    """``(z, select(bundle, eta), statistic(x), (eta_lo, eta_hi), energy_rises)``.

    ``statistic(x)`` equals ``eta`` when the goal holds with equality. With
    the factor ``g`` of a low-rank ``W = g g^T``, contract targets sit above
    the least statistic that ``z + range(g)`` reaches.
    """
    z = rng.standard_normal(n)
    o = rng.standard_normal((n, n))
    d = rng.standard_normal(n)

    def qcls_stat(x):
        r = o @ x - d
        return float(r @ r)

    f0 = qcls_stat(z)
    if kind == "mean":
        v = rng.standard_normal(n)
        base = float(v @ z)
        return (z, lambda b, eta: fc.select_state(b, z, fc.LinearGoal(v, base + eta)),
                lambda x: float(v @ x) - base, (0.5, 2.0), True)
    if kind in ("variance", "corner"):
        z = 0.1 * z if kind == "variance" else 3.0 * z
        spread = float(_centered(z) @ _centered(z))
        etas = (spread + 0.5, spread + 2.0) if kind == "variance" else (0.3 * spread, 0.6 * spread)
        return (z, lambda b, eta: fc.select_state(b, z, fc.VarianceGoal(eta)),
                lambda x: float(_centered(x) @ _centered(x)), etas, True)
    if kind == "expand":
        return (z, lambda b, eta: fc.select_state(b, z, fc.RepulsionGoal(d, eta, o, "expand")),
                qcls_stat, (f0 + 0.5, f0 + 2.0), True)
    if kind == "contract":
        floor = 0.0 if g is None else _reach_floor(o @ g, o @ z - d)
        return (z, lambda b, eta: fc.select_state(b, z, fc.RepulsionGoal(d, eta, o, "contract")),
                qcls_stat, (floor + 0.3 * (f0 - floor), floor + 0.6 * (f0 - floor)), False)
    if kind == "repulsion":
        return (z, lambda b, eta: fc.select_state(b, z, fc.RepulsionGoal(z, eta)),
                lambda x: float((x - z) @ (x - z)), (0.5, 2.0), True)
    # Rank-deficient O with d in its range: eta = 0 is reached only in the
    # lam -> -inf limit.
    o[:, -1] = o[:, :-1] @ rng.standard_normal(n - 1)
    d = o @ rng.standard_normal(n)
    f0 = qcls_stat(z)
    return (z, lambda b, eta: fc.select_state(b, z, fc.RepulsionGoal(d, eta, o, "contract")),
            qcls_stat, (0.0, 0.5 * f0), False)


def _check_selection(w_mat, z, sel, statistic, eta, kind):
    dx = sel.x_star - z
    wp = w_mat @ sel.p
    scale = max(np.linalg.norm(dx), np.finfo(float).tiny)
    assert np.linalg.norm(wp - dx) <= 1e-8 * scale + 1e-14
    assert sel.energy == pytest.approx(float(sel.p @ wp), rel=1e-8, abs=1e-14)
    if kind == "corner":
        assert not sel.binding and sel.energy == 0.0
        assert not np.any(sel.p)
        assert statistic(sel.x_star) >= eta
    else:
        assert sel.binding
        assert statistic(sel.x_star) == pytest.approx(eta, rel=1e-8, abs=1e-10)


def _check_monotone_and_scaling(w_mat, select, etas, rises, scale, z, statistic, kind):
    bundle = fc.GramianBundle.from_matrix(w_mat, 1.0)
    lo, hi = (select(bundle, eta) for eta in etas)
    for sel, eta in zip((lo, hi), etas):
        _check_selection(w_mat, z, sel, statistic, eta, kind)
    e_lo, e_hi = (lo.energy, hi.energy) if rises else (hi.energy, lo.energy)
    assert e_lo <= e_hi * (1.0 + 1e-10) + 1e-14
    scaled = select(fc.GramianBundle.from_matrix(scale * w_mat, 1.0), etas[1])
    assert scaled.energy * scale == pytest.approx(hi.energy, rel=1e-8, abs=1e-14)
    return lo, hi


@PROPERTY_SETTINGS
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 7),
    scale=st.floats(0.1, 10.0),
)
def test_adjoint_properties_on_pd_gramians(kind, seed, n, scale):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    w_mat = a @ a.T + 0.1 * np.eye(n)
    z, select, statistic, etas, rises = _problem(kind, rng, n)
    lo, _ = _check_monotone_and_scaling(w_mat, select, etas, rises, scale, z, statistic, kind)
    if kind == "limit":
        assert lo.multiplier == -np.inf


LOW_RANK_KINDS = ["expand", "contract", "repulsion"]


def _low_rank_factor(rng, n):
    """An n x r factor with 1 <= r < n, so ``g g^T`` is singular."""
    return rng.standard_normal((n, int(rng.integers(1, n))))


@PROPERTY_SETTINGS
@given(
    kind=st.sampled_from(LOW_RANK_KINDS),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 7),
    scale=st.floats(0.1, 10.0),
)
def test_adjoint_properties_on_low_rank_gramians(kind, seed, n, scale):
    # W = G G^T with rank r < n: x* - z must come out as W p in range(G), and
    # a contract goal reaches down to the floor of z + range(G).
    rng = np.random.default_rng(seed)
    g = _low_rank_factor(rng, n)
    z, select, statistic, etas, rises = _problem(kind, rng, n, g=g)
    _check_monotone_and_scaling(g @ g.T, select, etas, rises, scale, z, statistic, kind)


@PROPERTY_SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7), frac=st.floats(0.0, 0.99))
def test_infeasible_contract_on_low_rank_gramian_reports_floor(seed, n, frac):
    # The theta = 0 block of O W O^T keeps its residual, so no contract goal
    # gets below sum_{theta_i = 0} c_i^2, the least-squares floor over range(G).
    rng = np.random.default_rng(seed)
    g = _low_rank_factor(rng, n)
    z, o, d = rng.standard_normal(n), rng.standard_normal((n, n)), rng.standard_normal(n)
    floor = _reach_floor(o @ g, o @ z - d)
    with pytest.raises(fc.errors.InfeasibleGoalError) as exc:
        fc.select_state(fc.GramianBundle.from_matrix(g @ g.T, 1.0), z,
                        fc.RepulsionGoal(d, frac * floor, o, "contract"))
    assert exc.value.min_eta == pytest.approx(floor, rel=1e-8)


@PROPERTY_SETTINGS
@given(
    kind=st.sampled_from(LOW_RANK_KINDS),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 7),
)
def test_goal_outside_range_is_uncontrollable(kind, seed, n):
    # O G = 0 makes O W O^T = 0 (repulsion has O = I, so there W = 0): no
    # input moves the statistic, whichever side of eta the endpoint starts.
    rng = np.random.default_rng(seed)
    g = _low_rank_factor(rng, n) if kind != "repulsion" else np.zeros((n, 1))
    q, _ = np.linalg.qr(g)
    o = rng.standard_normal((n, n)) @ (np.eye(n) - q @ q.T)
    z, d = rng.standard_normal(n), rng.standard_normal(n)
    f0 = float((o @ z - d) @ (o @ z - d))
    bundle = fc.GramianBundle.from_matrix(g @ g.T, 1.0)
    with pytest.raises(fc.errors.GoalUncontrollableError):
        if kind == "repulsion":
            fc.select_state(bundle, z, fc.RepulsionGoal(z, 1.0))
        else:
            eta = f0 + 1.0 if kind == "expand" else 0.5 * f0
            fc.select_state(bundle, z, fc.RepulsionGoal(d, eta, o, kind))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    kind=st.sampled_from(["linear", "variance", "repulsion", "expand", "contract"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 7),
    side=st.sampled_from([-0.5, 0.0, 0.0, 0.5]),
)
def test_select_state_binds_exactly_when_binding_check_does(kind, seed, n, side):
    # binding_check is the one binding test. side = 0 puts z exactly on the
    # constraint surface: the threshold is the statistic computed as
    # binding_check computes it, so the goal already holds there.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    bundle = fc.GramianBundle.from_matrix(a @ a.T + 0.1 * np.eye(n), 1.0)
    z, v, d = rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(n)
    o = rng.standard_normal((n, n)) if kind in ("expand", "contract") else None
    if kind == "linear":
        base = float(v @ z)
        goal = fc.LinearGoal(v, base + side * (1.0 + abs(base)))
    else:
        r = _centered(z) if kind == "variance" else (z if o is None else o @ z) - d
        level = float(r @ r) * (1.0 + side)
        sense = "contract" if kind == "contract" else "expand"
        goal = fc.VarianceGoal(level) if kind == "variance" else fc.RepulsionGoal(
            d, level, o, sense)
    sel = fc.select_state(bundle, z, goal)
    assert sel.binding == fc.binding_check(goal, z)
    if not sel.binding:
        assert np.array_equal(sel.x_star, z) and sel.x_star is not z
        assert not np.any(sel.p) and sel.energy == 0.0 and sel.multiplier == 0.0


@pytest.fixture(scope="module")
def karate_two_inputs(karate):
    system = karate["system"]
    rng = np.random.default_rng(3)
    b = rng.standard_normal((system.n, 2))
    return fc.GramianEvaluator(system, 3.0).bundle(b).W


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(0.1, 10.0),
    z_size=st.sampled_from([0.0, 0.01]),
)
def test_variance_adjoint_on_singular_karate_gramian(karate_two_inputs, seed, scale, z_size):
    # Two inputs on 34 nodes leave W numerically singular (cond ~1e17), so
    # x* - z must come out in range(W) as W p, with no inverse of W anywhere.
    # A zero endpoint puts the selection in the hard case.
    w_mat = karate_two_inputs
    rng = np.random.default_rng(seed)
    z = z_size * rng.standard_normal(w_mat.shape[0])
    spread = float(_centered(z) @ _centered(z))
    etas = (spread + float(rng.uniform(0.1, 1.0)), spread + float(rng.uniform(1.0, 2.0)))
    _check_monotone_and_scaling(
        w_mat, lambda b, eta: fc.select_state(b, z, fc.VarianceGoal(eta)), etas, True, scale, z,
        lambda x: float(_centered(x) @ _centered(x)), "variance",
    )


def _assert_variance_matches_dense_projector(bundle, z, eta):
    # The variance goal applies D by subtracting means; the QCLS goal with
    # the dense D, d = 0 and expand is the same problem by products with D.
    n = z.size
    sel = fc.select_state(bundle, z, fc.VarianceGoal(eta))
    ref = fc.select_state(bundle, z, fc.RepulsionGoal(np.zeros(n), eta, centering_matrix(n)))
    assert sel.binding and ref.binding
    assert sel.energy == pytest.approx(ref.energy, rel=1e-12)
    for got, want in ((sel.x_star, ref.x_star), (sel.p, ref.p)):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert fc.variance_energy_bound(bundle, z, eta) == pytest.approx(
        variance_energy_bound_dense(bundle.W, z, eta), rel=1e-12)


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    symmetric=st.booleans(),
    on_target=st.booleans(),
    data=st.data(),
)
def test_variance_selection_matches_the_dense_projector(seed, n, symmetric, on_target, data):
    # Symmetric dynamics take the eigenbasis Gramian, the rest the series; a
    # zero endpoint is on target (pole pairs only), another one takes Newton.
    rng = np.random.default_rng(seed)
    a = random_stable_system(rng, n)
    if symmetric:
        a = 0.5 * (a + a.T)
        a -= max(float(np.linalg.eigvalsh(a)[-1]) + 0.1, 0.0) * np.eye(n)
    b = rng.standard_normal((n, data.draw(st.integers(1, n))))
    bundle = fc.GramianEvaluator(fc.LinearSystem(a), 1.0).bundle(b)
    z = np.zeros(n) if on_target else rng.standard_normal(n)
    spread = float(_centered(z) @ _centered(z))
    _assert_variance_matches_dense_projector(bundle, z, spread + data.draw(st.floats(0.1, 10.0)))


@pytest.mark.parametrize("on_target", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("m", [1, 2, 4])
def test_karate_variance_selection_matches_the_dense_projector(karate, m, seed, on_target):
    evaluator = fc.GramianEvaluator(karate["system"], 3.0)
    bundle = evaluator.bundle(fc.ram_baseline(34, m, seed))
    rng = np.random.default_rng(seed)
    z = np.zeros(34) if on_target else evaluator.propagate(rng.standard_normal(34))
    _assert_variance_matches_dense_projector(bundle, z, float(_centered(z) @ _centered(z)) + 1.0)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 7),
    rank=st.integers(0, 3),
    magnitude=st.floats(-6.0, 6.0),
    scale=st.floats(1e-3, 1e3),
)
def test_uncontrollability_test_matches_the_eigenvalue_rule(seed, n, rank, magnitude, scale):
    # The selectors' test compares against tr(W) first and reads lam_max only
    # under that bound; it must decide exactly as stat <= 1e-12 scale lam_max,
    # on full and low rank W, with stat near that threshold down to one ulp.
    # For rank-one W the computed tr(W) often falls an ulp below lam_max.
    rng = np.random.default_rng(seed)
    g = 10.0**magnitude * rng.standard_normal((n, min(rank, n)))
    bundle = fc.GramianBundle.from_matrix(g @ g.T, 1.0)
    threshold = 1e-12 * scale * max(bundle.lam_max, np.finfo(float).tiny)
    for offset in (-2.0, -1.0, -1e-3, -1e-9, 0.0, 1e-9, 1e-3, 1.0, 1e12):
        for direction in (-np.inf, None, np.inf):
            stat = threshold * (1.0 + offset)
            if direction is not None:
                stat = float(np.nextafter(stat, direction))
            try:
                _require_movable(bundle, stat, "stuck", scale=scale)
                raised = False
            except fc.errors.GoalUncontrollableError:
                raised = True
            assert raised == (stat <= threshold), (offset, direction)


@PROPERTY_SETTINGS
@given(
    case=st.sampled_from(["expand", "contract", "hard"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 8),
    data=st.data(),
)
def test_identity_observer_as_none_equals_the_dense_identity(case, seed, n, data):
    # O=None skips every product with the identity; the selection must be the
    # one the dense identity gives, on full and low rank W. With d = z the
    # residual misses the pole eigenspace, so expand takes the hard case.
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, data.draw(st.integers(1, n))))
    bundle = fc.GramianBundle.from_matrix(g @ g.T, 1.0)
    z = rng.standard_normal(n)
    d = z.copy() if case == "hard" else rng.standard_normal(n)
    f0 = float((z - d) @ (z - d))
    if case == "contract":
        floor = _reach_floor(g, z - d)
        eta, sense = floor + data.draw(st.floats(0.3, 0.7)) * (f0 - floor), "contract"
    else:
        eta, sense = f0 + data.draw(st.floats(0.5, 2.0)), "expand"
    dense = fc.select_state(bundle, z, fc.RepulsionGoal(d, eta, np.eye(n), sense))
    sel = fc.select_state(bundle, z, fc.RepulsionGoal(d, eta, None, sense))
    assert sel.binding and sel.multiplier == pytest.approx(dense.multiplier, rel=1e-13)
    for got, ref in ((sel.x_star, dense.x_star), (sel.p, dense.p)):
        assert np.linalg.norm(got - ref) <= 1e-13 * max(np.linalg.norm(ref), 1.0)
    assert sel.energy == pytest.approx(dense.energy, rel=1e-13, abs=1e-13)
    if case == "hard":
        rep = fc.select_state(bundle, z, fc.RepulsionGoal(d=z, eta=eta))
        assert np.array_equal(rep.x_star, sel.x_star) and rep.energy == sel.energy


ON_TARGET_KINDS = ["variance", "repulsion", "qcls"]


def _on_target_goal(kind, rng, n, eta, o=None):
    """``(z, goal)`` whose residual ``O z - d`` is exactly zero: variance from
    ``z = 0``, repulsion with ``d = z``, QCLS with ``d = O z``."""
    if kind == "variance":
        return np.zeros(n), fc.VarianceGoal(eta)
    z = rng.standard_normal(n)
    if kind == "repulsion":
        return z, fc.RepulsionGoal(z, eta)
    o = rng.standard_normal((n, n)) if o is None else o
    return z, fc.RepulsionGoal(o @ z, eta, o)


def _on_target_and_full_spectrum(bundle, z, goal):
    """The selection, asserted to take the top-pair path, and the selection
    with the pole eigenpairs read off the full ``eigh`` instead."""
    with mock.patch.object(select_module, "_pole_pairs",
                           wraps=select_module._pole_pairs) as top_pairs:
        got = fc.select_state(bundle, z, goal)
    assert top_pairs.call_count == 1
    with mock.patch.object(select_module, "_pole_pairs", np.linalg.eigh):
        ref = fc.select_state(bundle, z, goal)
    return got, ref


def _assert_same_selection(got, ref):
    assert got.binding and ref.binding
    assert got.energy == pytest.approx(ref.energy, rel=1e-12)
    assert got.multiplier == pytest.approx(ref.multiplier, rel=1e-12)
    for a, b in ((got.x_star, ref.x_star), (got.p, ref.p)):
        assert np.linalg.norm(a - b) <= 1e-10 * (1.0 + np.linalg.norm(b))


def _observed_gramian(goal, w_mat):
    n = w_mat.shape[0]
    o = np.eye(n) - 1.0 / n if isinstance(goal, fc.VarianceGoal) else goal.O
    return w_mat if o is None else o @ w_mat @ o.T


@PROPERTY_SETTINGS
@given(
    kind=st.sampled_from(ON_TARGET_KINDS),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    eta=st.floats(0.1, 10.0),
    data=st.data(),
)
def test_on_target_selection_equals_the_full_spectrum(kind, seed, n, eta, data):
    # On full and low rank W the top pairs give the full eigh's selection,
    # at the energy eta / theta_max.
    n = max(n, 2) if kind == "variance" else n
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, data.draw(st.integers(1, n))))
    w_mat = g @ g.T
    bundle = fc.GramianBundle.from_matrix(w_mat, 1.0)
    z, goal = _on_target_goal(kind, rng, n, eta)
    got, ref = _on_target_and_full_spectrum(bundle, z, goal)
    _assert_same_selection(got, ref)
    theta_max = float(np.linalg.eigvalsh(_observed_gramian(goal, w_mat))[-1])
    assert got.energy == pytest.approx(eta / theta_max, rel=1e-10)


def _star(n, b):
    adj = np.zeros((n, n))
    adj[0, 1:] = adj[1:, 0] = 1.0
    return fc.GramianEvaluator(fc.laplacian_system(adj), 1.0).bundle(b).W


def _karate_twins(karate):
    # Nodes 14, 15, 18, 20 and 22 all border exactly 32 and 33. B excites
    # their mean-zero modes and two other nodes, and is unchanged by any
    # permutation of the five, so the top of D W D is fourfold.
    adj = karate["adj"]
    twins = [i for i in range(34) if set(np.flatnonzero(adj[i])) == {32, 33}]
    assert twins == [14, 15, 18, 20, 22]
    b = np.zeros((34, 7))
    b[np.ix_(twins, range(5))] = np.eye(5) - 0.2
    b[0, 5] = b[33, 6] = 1.0
    return fc.GramianEvaluator(karate["system"], 3.0).bundle(b).W


@pytest.mark.parametrize("case", ["star-4", "star-5", "star-6", "star-8", "karate-twins"])
@pytest.mark.parametrize("kind", ON_TARGET_KINDS)
def test_on_target_selection_with_tied_top_eigenvalues(karate, case, kind):
    # Forced ties: the selection must not depend on which basis of the tied
    # pole eigenspace LAPACK returns, and the top-pair path must widen its
    # index range until it holds every tied eigenvalue.
    if case == "karate-twins":
        w_mat = _karate_twins(karate)
    else:
        # With B = I the top of W is the consensus mode and the leaves' n - 2
        # modes tie below it, at the top of D W D; B = D drops the consensus.
        n = int(case.split("-")[1])
        w_mat = _star(n, np.eye(n) if kind == "variance" else np.eye(n) - 1.0 / n)
    n = w_mat.shape[0]
    rng = np.random.default_rng(7)
    # The QCLS observer keeps the tie: an orthogonal O maps W's top eigenspace.
    o = np.linalg.qr(rng.standard_normal((n, n)))[0]
    z, goal = _on_target_goal(kind, rng, n, 2.0, o=o)
    theta = np.linalg.eigvalsh(_observed_gramian(goal, w_mat))
    tied = int(np.sum(theta >= (1.0 - 1e-10) * theta[-1]))
    assert tied >= 2
    got, ref = _on_target_and_full_spectrum(fc.GramianBundle(w_mat, 1.0), z, goal)
    _assert_same_selection(got, ref)
    assert len(select_module._pole_pairs(_observed_gramian(goal, w_mat))[0]) > tied or tied == n


@PROPERTY_SETTINGS
@given(kind=st.sampled_from(ON_TARGET_KINDS), seed=st.integers(0, 2**32 - 1),
       n=st.integers(2, 8))
def test_on_target_goal_outside_range_is_uncontrollable(kind, seed, n):
    # O W O^T = 0: only the mean moves (variance), W = 0 (repulsion), or
    # O G = 0 (QCLS). The top-pair path raises as the full one does.
    rng = np.random.default_rng(seed)
    if kind == "variance":
        g, o = np.ones((n, 1)), None
    elif kind == "repulsion":
        g, o = np.zeros((n, 1)), None
    else:
        g = _low_rank_factor(rng, n)
        q, _ = np.linalg.qr(g)
        o = rng.standard_normal((n, n)) @ (np.eye(n) - q @ q.T)
    z, goal = _on_target_goal(kind, rng, n, 1.0, o=o)
    with pytest.raises(fc.errors.GoalUncontrollableError):
        fc.select_state(fc.GramianBundle.from_matrix(g @ g.T, 1.0), z, goal)
