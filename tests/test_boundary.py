"""The library's boundary: each kind of input a caller hands in (the dynamics
matrix, a schematic, a horizon, a vector, a count) fails typed when it is
malformed, with the argument's name at the head of the message, and no numpy
warning."""

import re
import warnings

import numpy as np
import pytest

import fluxcontrol as fc
from fluxcontrol.errors import InvalidInputError

# A 4-node path: symmetric, so the evaluator takes its eigenbasis path.
_PATH = np.diag(np.ones(3), 1) + np.diag(np.ones(3), -1)


def _evaluator():
    return fc.GramianEvaluator(fc.laplacian_system(_PATH), 1.0)


def _column(bad):
    return np.array([[1.0], [bad], [0.0], [0.0]])


def _gpgm_from(b_init):
    ev = _evaluator()
    return fc.gpgm(ev, ev.propagate(np.zeros(4)), fc.VarianceGoal(1.0), 1, B_init=b_init)


# A three-axis schematic.
_B3 = np.ones((4, 1, 1))

_BAD = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}

# (argument name, call) per case.
_CASES = {
    **{f"matrix-B-{k}": ("B", lambda x=x: _evaluator().matrix(_column(x))) for k, x in _BAD.items()},
    **{f"bundle-B-{k}": ("B", lambda x=x: _evaluator().bundle(_column(x))) for k, x in _BAD.items()},
    **{f"flux-v-{k}": ("v", lambda x=x: _evaluator().flux(_column(x)[:, 0])) for k, x in _BAD.items()},
    **{f"step-B-{k}": ("B", lambda x=x: _evaluator().step(_column(x), 4)) for k, x in _BAD.items()},
    **{f"project_sphere-B-{k}": ("B", lambda x=x: fc.project_sphere(_column(x)[:, 0]))
       for k, x in _BAD.items()},
    "matrix-B-no-columns": ("B", lambda: _evaluator().matrix(np.zeros((4, 0)))),
    "A-3d": ("A", lambda: fc.LinearSystem(np.ones((2, 2, 2)))),
    "simulate-B-3d": ("B", lambda: fc.simulate(_evaluator(), _B3, np.zeros(4), 4)),
    "controllability_report-B-3d": (
        "B", lambda: fc.controllability_report(fc.laplacian_system(_PATH), _B3)),
    "output_controllable_sufficient-B-3d": (
        "B", lambda: fc.output_controllable_sufficient(np.ones(4), _B3)),
    "pgme_driver_select-B-3d": ("B", lambda: fc.pgme_driver_select(_B3, 1)),
    "matrix-B-3d": ("B", lambda: _evaluator().matrix(np.ones((4, 1, 1)))),
    "adjacency-3d": ("adjacency", lambda: fc.laplacian_system(np.ones((2, 2, 2)))),
    "W-3d": ("W", lambda: fc.GramianBundle.from_matrix(np.ones((2, 2, 2)), 1.0)),
    "W-2x3": ("W", lambda: fc.GramianBundle.from_matrix(np.ones((2, 3)), 1.0)),
    "propagate-x0-2x2": ("x0", lambda: _evaluator().propagate(np.ones((2, 2)))),
    "LinearGoal-v-2x2": ("v", lambda: fc.LinearGoal(np.ones((2, 2)), 1.0)),
    "RepulsionGoal-d-2x2": ("d", lambda: fc.RepulsionGoal(np.ones((2, 2)), 1.0)),
    "gpgm-B_init-nan": ("B_init", lambda: _gpgm_from(_column(np.nan))),
    **{f"evaluator-t_star-{k}": (
        "t_star", lambda x=x: fc.GramianEvaluator(fc.laplacian_system(_PATH), x))
       for k, x in {"str": "abc", "numeric-str": "2"}.items()},
    "step-steps-float": ("steps", lambda: _evaluator().step(np.eye(4), 2.5)),
    "step-steps-bool": ("steps", lambda: _evaluator().step(np.eye(4), True)),
    "simulate-steps-float": (
        "steps", lambda: fc.simulate(_evaluator(), np.eye(4), np.zeros(4), 2.5)),
    "gpgm-m-float": ("m", lambda: fc.gpgm(_evaluator(), np.zeros(4), fc.VarianceGoal(1.0), 1.5)),
    "gpgm_multistart-n_starts-float": ("n_starts", lambda: fc.gpgm_multistart(
        _evaluator(), np.zeros(4), fc.VarianceGoal(1.0), 1, n_starts=2.5)),
    "place_mean_optimal-m-float": (
        "m", lambda: fc.place_mean_optimal(fc.laplacian_system(_PATH), np.ones(4), 1.0, 1.5)),
    "GpgmConfig-max_iters-float": ("max_iters", lambda: fc.GpgmConfig(max_iters=2.5)),
    "GpgmConfig-sigma-str": ("sigma", lambda: fc.GpgmConfig(sigma="a")),
    "GpgmConfig-delta_star-None": ("delta_star", lambda: fc.GpgmConfig(delta_star=None)),
    "GpgmConfig-epsilon-nan": ("epsilon", lambda: fc.GpgmConfig(epsilon=np.nan)),
    "GpgmConfig-seed-negative": ("seed", lambda: fc.GpgmConfig(seed=-1)),
    "GpgmConfig-seed-float": ("seed", lambda: fc.GpgmConfig(seed=2.5)),
    "ram_baseline-n-float": ("n", lambda: fc.ram_baseline(3.5, 1, 0)),
    "ram_baseline-m-float": ("m", lambda: fc.ram_baseline(4, 1.5, 0)),
    "ram_baseline-seed-float": ("seed", lambda: fc.ram_baseline(4, 1, 0.5)),
    **{f"ram_baseline-epsilon-{k}": ("epsilon", lambda x=x: fc.ram_baseline(4, 1, 0, epsilon=x))
       for k, x in {"nan": np.nan, "inf": np.inf, "-2": -2.0}.items()},
    "project_sphere-epsilon-nan": (
        "epsilon", lambda: fc.project_sphere(np.ones((3, 1)), epsilon=np.nan)),
    "pgme_driver_select-k-float": ("k", lambda: fc.pgme_driver_select(np.eye(4), 1.5)),
    "pgme_driver_select-k-above-n": ("k", lambda: fc.pgme_driver_select(np.ones((2, 4)), 3)),
    "from_edges-n-float": ("n", lambda: fc.LinearSystem.from_edges(2.5, [0], [1], [1.0])),
}


@pytest.mark.parametrize("case", list(_CASES))
def test_malformed_input_fails_typed_and_names_its_argument(case):
    name, call = _CASES[case]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidInputError) as info:
            call()
    assert re.match(rf"{name}\b", str(info.value)), str(info.value)
    assert [str(w.message) for w in caught] == []
