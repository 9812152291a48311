"""Minimum-energy control of network state distributions.

Builds reachability Gramians and flux matrices for linear network systems,
selects minimum-energy terminal states under mean, repulsion, and variance
goals, optimizes control-input placement (closed-form and projected-gradient),
ranks nodes by flux centrality, and simulates the resulting trajectories.
Each public name is listed once, in its module's ``__all__``.
"""

from . import centrality, errors, gramian, graphio, linsys, placement, select, trajectory
from .centrality import *  # noqa: F403
from .gramian import *  # noqa: F403
from .graphio import *  # noqa: F403
from .linsys import *  # noqa: F403
from .placement import *  # noqa: F403
from .select import *  # noqa: F403
from .trajectory import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "errors",
    *linsys.__all__,
    *gramian.__all__,
    *select.__all__,
    *placement.__all__,
    *centrality.__all__,
    *trajectory.__all__,
    *graphio.__all__,
]
