"""The library's boundary: each kind of input a caller hands in (the dynamics
matrix, a schematic, a horizon, a vector) fails typed when it is malformed,
with the argument's name at the head of the message, and no numpy warning."""

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
    "B-3d": ("B", lambda: fc.InputSchematic(np.ones((4, 1, 1)))),
    "matrix-B-3d": ("B", lambda: _evaluator().matrix(np.ones((4, 1, 1)))),
    "adjacency-3d": ("adjacency", lambda: fc.laplacian_system(np.ones((2, 2, 2)))),
    "W-3d": ("W", lambda: fc.GramianBundle.from_matrix(np.ones((2, 2, 2)), 1.0)),
    "W-2x3": ("W", lambda: fc.GramianBundle.from_matrix(np.ones((2, 3)), 1.0)),
    "propagate-x0-2x2": ("x0", lambda: _evaluator().propagate(np.ones((2, 2)))),
    "LinearGoal-v-2x2": ("v", lambda: fc.LinearGoal(np.ones((2, 2)), 1.0)),
    "RepulsionGoal-d-2x2": ("d", lambda: fc.RepulsionGoal(np.ones((2, 2)), 1.0)),
    "gpgm-B_init-nan": ("B_init", lambda: _gpgm_from(_column(np.nan))),
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
