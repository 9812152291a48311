"""Minimum-energy control of network state distributions.

Builds reachability Gramians and flux matrices for linear network systems,
selects minimum-energy terminal states under mean, repulsion, and variance
goals, optimizes control-input placement (closed-form and projected-gradient),
ranks nodes by flux centrality, and simulates the resulting trajectories.
"""

from . import errors
from .centrality import FluxProfile, centrality_histogram, flux_centrality, flux_sweep
from .gramian import (
    FluxMatrix,
    GramianBundle,
    GramianEvaluator,
    flux_matrix,
    gramian_quadrature,
    kappa,
    reachability_gramian,
)
from .graphio import (
    karate_club_adjacency,
    load_dense_matrix,
    parse_edge_list,
    write_matrix_csv,
)
from .linsys import (
    ControllabilityReport,
    InputSchematic,
    LinearSystem,
    StateVector,
    controllability_matrix,
    controllability_report,
    laplacian_system,
    output_controllable_sufficient,
    transition_matrix,
)
from .placement import (
    GpgmConfig,
    PlacementResult,
    gpgm,
    gpgm_multistart,
    pgme_driver_select,
    place_mean_optimal,
    project_sphere,
    ram_baseline,
)
from .select import (
    LinearGoal,
    RepulsionGoal,
    StateSelection,
    VarianceGoal,
    binding_check,
    mean_goal,
    repulsion_min_threshold,
    select_mean_state,
    select_repulsion_state,
    select_state,
    select_variance_state,
    single_input_scales,
    solve_qcls,
    variance_energy_bound,
)
from .trajectory import Trajectory, min_energy_controller, min_energy_input, simulate

__version__ = "0.1.0"

__all__ = [
    "errors",
    "LinearSystem",
    "StateVector",
    "InputSchematic",
    "ControllabilityReport",
    "transition_matrix",
    "laplacian_system",
    "controllability_matrix",
    "controllability_report",
    "output_controllable_sufficient",
    "GramianBundle",
    "FluxMatrix",
    "GramianEvaluator",
    "reachability_gramian",
    "flux_matrix",
    "gramian_quadrature",
    "kappa",
    "LinearGoal",
    "RepulsionGoal",
    "VarianceGoal",
    "mean_goal",
    "StateSelection",
    "binding_check",
    "select_state",
    "select_mean_state",
    "select_repulsion_state",
    "solve_qcls",
    "select_variance_state",
    "variance_energy_bound",
    "repulsion_min_threshold",
    "single_input_scales",
    "GpgmConfig",
    "PlacementResult",
    "project_sphere",
    "place_mean_optimal",
    "gpgm",
    "gpgm_multistart",
    "ram_baseline",
    "pgme_driver_select",
    "FluxProfile",
    "flux_centrality",
    "flux_sweep",
    "centrality_histogram",
    "Trajectory",
    "min_energy_controller",
    "min_energy_input",
    "simulate",
    "parse_edge_list",
    "load_dense_matrix",
    "write_matrix_csv",
    "karate_club_adjacency",
]
