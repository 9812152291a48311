"""Property tests of the adjoint vector ``p`` every state selection returns.

For each goal kind: ``W p = x* - z``, ``E = p^T W p``, the goal holds at
``x*``, ``E`` is monotone in ``eta`` and scaling ``W`` by ``c`` scales ``E``
by ``1/c``. Examples are derandomized so reruns draw the same instances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fluxcontrol as fc
from fluxcontrol.select import _require_movable

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
        return (z, lambda b, eta: fc.select_mean_state(b, z, fc.LinearGoal(v, base + eta)),
                lambda x: float(v @ x) - base, (0.5, 2.0), True)
    if kind in ("variance", "corner"):
        z = 0.1 * z if kind == "variance" else 3.0 * z
        spread = float(_centered(z) @ _centered(z))
        etas = (spread + 0.5, spread + 2.0) if kind == "variance" else (0.3 * spread, 0.6 * spread)
        return (z, lambda b, eta: fc.select_variance_state(b, z, eta),
                lambda x: float(_centered(x) @ _centered(x)), etas, True)
    if kind == "expand":
        return (z, lambda b, eta: fc.solve_qcls(b, z, o, d, eta, "expand"),
                qcls_stat, (f0 + 0.5, f0 + 2.0), True)
    if kind == "contract":
        floor = 0.0 if g is None else _reach_floor(o @ g, o @ z - d)
        return (z, lambda b, eta: fc.solve_qcls(b, z, o, d, eta, "contract"),
                qcls_stat, (floor + 0.3 * (f0 - floor), floor + 0.6 * (f0 - floor)), False)
    if kind == "repulsion":
        return (z, lambda b, eta: fc.select_repulsion_state(b, z, eta),
                lambda x: float((x - z) @ (x - z)), (0.5, 2.0), True)
    # Rank-deficient O with d in its range: eta = 0 is reached only in the
    # lam -> -inf limit.
    o[:, -1] = o[:, :-1] @ rng.standard_normal(n - 1)
    d = o @ rng.standard_normal(n)
    f0 = qcls_stat(z)
    return (z, lambda b, eta: fc.solve_qcls(b, z, o, d, eta, "contract"),
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
        fc.solve_qcls(fc.GramianBundle.from_matrix(g @ g.T, 1.0), z, o, d, frac * floor,
                      "contract")
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
            fc.select_repulsion_state(bundle, z, 1.0)
        else:
            eta = f0 + 1.0 if kind == "expand" else 0.5 * f0
            fc.solve_qcls(bundle, z, o, d, eta, kind)


@pytest.fixture(scope="module")
def karate_two_inputs(karate):
    system = karate["system"]
    rng = np.random.default_rng(3)
    b = rng.standard_normal((system.n, 2))
    return fc.reachability_gramian(system, fc.InputSchematic(b), 3.0).W


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
        w_mat, lambda b, eta: fc.select_variance_state(b, z, eta), etas, True, scale, z,
        lambda x: float(_centered(x) @ _centered(x)), "variance",
    )


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
    dense = fc.solve_qcls(bundle, z, np.eye(n), d, eta, sense)
    sel = fc.solve_qcls(bundle, z, None, d, eta, sense)
    assert sel.binding and sel.multiplier == pytest.approx(dense.multiplier, rel=1e-13)
    for got, ref in ((sel.x_star, dense.x_star), (sel.p, dense.p)):
        assert np.linalg.norm(got - ref) <= 1e-13 * max(np.linalg.norm(ref), 1.0)
    assert sel.energy == pytest.approx(dense.energy, rel=1e-13, abs=1e-13)
    if case == "hard":
        rep = fc.select_state(bundle, z, fc.RepulsionGoal(d=z, eta=eta))
        assert np.array_equal(rep.x_star, sel.x_star) and rep.energy == sel.energy
