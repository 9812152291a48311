"""GPGM's analytic energy gradient against finite differences, and its solve count.

By the envelope theorem on ``E = p^T W(B) p`` the gradient is ``-2 Phi(p) B``,
with ``p`` the selection's adjoint and ``Phi`` the flux matrix; the oracle
differentiates the nested selection energy entrywise.
"""

import numpy as np
import pytest
from scipy.linalg import expm

import fluxcontrol as fc
import fluxcontrol.placement as placement

from _oracles import fd_gradient, random_stable_system


def _karate_case(karate, x0, eta):
    return karate["system"], fc.ram_baseline(34, 2, seed=0), x0, 3.0, fc.VarianceGoal(eta)


def _nonsymmetric_case(make_goal):
    rng = np.random.default_rng(5)
    system = fc.LinearSystem(random_stable_system(rng, 4))
    b = fc.project_sphere(rng.standard_normal((4, 2)))
    x0 = rng.standard_normal(4)
    z = expm(system.A) @ x0
    return system, b, x0, 1.0, make_goal(z, rng)


def _qcls_contract(z, rng):
    o, d = rng.standard_normal((4, 4)), rng.standard_normal(4)
    r = o @ z - d
    return fc.RepulsionGoal(d, 0.25 * float(r @ r), O=o, sense="contract")


CASES = {
    # z = 0: the hard case on the pole eigenvector, with cond(W) ~ 1e17.
    "karate-variance-pole": lambda k: _karate_case(k, np.zeros(34), 1.0),
    "karate-variance-interior": lambda k: _karate_case(
        k, np.random.default_rng(11).standard_normal(34), 1.2),
    "nonsymmetric-repulsion-expand": lambda k: _nonsymmetric_case(
        lambda z, rng: fc.RepulsionGoal(z, 0.5)),
    "nonsymmetric-qcls-contract": lambda k: _nonsymmetric_case(_qcls_contract),
    "nonsymmetric-mean": lambda k: _nonsymmetric_case(
        lambda z, rng: fc.mean_goal(4, float(z.mean()) + 1.0)),
}


@pytest.mark.parametrize("case", list(CASES))
def test_adjoint_gradient_matches_finite_differences(karate, case):
    system, b, x0, t_star, goal = CASES[case](karate)
    ev = fc.GramianEvaluator(system, t_star)
    z = expm(t_star * system.A) @ x0
    sel = fc.select_state(ev.bundle(b), z, goal)
    assert sel.binding
    fd = fd_gradient(lambda B: fc.select_state(ev.bundle(B), z, goal).energy, b, sel.energy)
    grad = -2.0 * ev.flux(sel.p) @ b
    assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)


def test_one_selection_per_candidate(karate, monkeypatch):
    calls = []
    select = placement.select_state

    def counting(*args):
        calls.append(None)
        return select(*args)

    monkeypatch.setattr(placement, "select_state", counting)
    cfg = fc.GpgmConfig(sigma=0.1, max_iters=5, seed=0)
    ev = fc.GramianEvaluator(karate["system"], 3.0)
    result = fc.gpgm(ev, np.zeros(34), fc.VarianceGoal(1.0), 2, config=cfg)
    assert result.iterations >= 1
    assert len(calls) <= 1 + result.iterations * (placement._MAX_HALVINGS + 1)
