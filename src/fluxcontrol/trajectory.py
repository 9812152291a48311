"""Open-loop minimum-energy input synthesis and trajectory simulation."""

import csv
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from ._util import as_vector
from .errors import DivergenceError, InvalidInputError, UnreachableStateError
from .gramian import GramianBundle
from .linsys import InputSchematic, LinearSystem, transition_matrix

__all__ = ["Trajectory", "min_energy_controller", "min_energy_input", "simulate"]

# Relative spectral cutoff for the Gramian pseudo-inverse.
_PINV_RCOND = 1e-10


@dataclass(frozen=True)
class Trajectory:
    """Sampled controlled run: states, inputs, and running input energy."""

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    cumulative_energy: np.ndarray

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]

    @property
    def total_energy(self) -> float:
        return float(self.cumulative_energy[-1])

    def write_csv(self, path) -> None:
        n = self.states.shape[1]
        m = self.inputs.shape[1]
        header = (
            ["t"]
            + [f"x_{i + 1}" for i in range(n)]
            + [f"u_{j + 1}" for j in range(m)]
            + ["E_cum"]
        )
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for k in range(self.times.shape[0]):
                row = [self.times[k], *self.states[k], *self.inputs[k], self.cumulative_energy[k]]
                writer.writerow(f"{x:.17g}" for x in row)


def _gramian_matrix(W) -> np.ndarray:
    return W.W if isinstance(W, GramianBundle) else np.asarray(W, dtype=float)


def min_energy_controller(
    system: LinearSystem,
    schematic: InputSchematic,
    W,
    x0,
    x_star,
    t_star: float,
):
    """Open-loop input signal driving x0 to x_star by the horizon.

    The signal back-propagates the Gramian-weighted displacement through the
    adjoint dynamics. The Gramian is pseudo-inverted with a spectral cutoff so
    output-controllable but not fully controllable systems remain simulable;
    displacements outside the Gramian's range raise.
    """
    if not np.isfinite(t_star) or t_star <= 0:
        raise InvalidInputError("t_star must be a positive real")
    x0 = as_vector(x0, n=system.n, name="x0")
    x_star = as_vector(x_star, n=system.n, name="x_star")
    w = _gramian_matrix(W)
    z = transition_matrix(system, t_star) @ x0
    delta = x_star - z
    p = np.linalg.pinv(w, rcond=_PINV_RCOND, hermitian=True) @ delta
    residual = np.linalg.norm(w @ p - delta)
    if residual > 1e-8 * (1.0 + np.linalg.norm(delta)):
        raise UnreachableStateError(
            "target displacement lies outside the range of the Gramian"
        )

    bt = schematic.B.T
    if system.is_symmetric():
        evals, evecs = np.linalg.eigh(system.A)
        pe = evecs.T @ p

        def control(t: float) -> np.ndarray:
            return bt @ (evecs @ (np.exp(evals * (t_star - t)) * pe))

    else:
        at = system.A.T

        def control(t: float) -> np.ndarray:
            return bt @ (expm(at * (t_star - t)) @ p)

    return control


def min_energy_input(
    system: LinearSystem,
    schematic: InputSchematic,
    W,
    x0,
    x_star,
    t_star: float,
    t: float,
) -> np.ndarray:
    """Minimum-energy input value at a single time in [0, t_star]."""
    if not 0.0 <= t <= t_star:
        raise InvalidInputError("t must lie in [0, t_star]")
    return min_energy_controller(system, schematic, W, x0, x_star, t_star)(float(t))


def simulate(
    system: LinearSystem,
    schematic: InputSchematic,
    input_fn,
    x0,
    t_star: float,
    steps: int,
) -> Trajectory:
    """Fixed-grid 4th-order Runge-Kutta run of xdot = A x + B u(t).

    The running input energy integrates the squared input norm by Simpson's
    rule on each interval, reusing the midpoint the integrator already needs.
    Non-finite states abort with the last valid time.
    """
    if steps < 2:
        raise InvalidInputError("steps must be at least 2")
    if not np.isfinite(t_star) or t_star <= 0:
        raise InvalidInputError("t_star must be a positive real")
    if schematic.n != system.n:
        raise InvalidInputError("schematic row count must match system size")
    x0 = as_vector(x0, n=system.n, name="x0")

    a, b = system.A, schematic.B
    m = schematic.m
    h = float(t_star) / steps
    times = np.linspace(0.0, float(t_star), steps + 1)

    def control(t: float) -> np.ndarray:
        u = np.asarray(input_fn(t), dtype=float).ravel()
        if u.shape[0] != m:
            raise InvalidInputError(f"input_fn must return length-{m} vectors")
        return u

    states = np.empty((steps + 1, system.n))
    inputs = np.empty((steps + 1, m))
    energy = np.zeros(steps + 1)
    x = x0.copy()
    states[0] = x
    u_left = control(0.0)
    inputs[0] = u_left
    for k in range(steps):
        t = times[k]
        u_mid = control(t + 0.5 * h)
        u_right = control(t + h)
        # Overflow surfaces as the divergence error below, not as a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = a @ x + b @ u_left
            k2 = a @ (x + 0.5 * h * k1) + b @ u_mid
            k3 = a @ (x + 0.5 * h * k2) + b @ u_mid
            k4 = a @ (x + h * k3) + b @ u_right
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise DivergenceError(
                f"state became non-finite after t={times[k]:.6g}",
                last_valid_time=float(times[k]),
            )
        states[k + 1] = x
        inputs[k + 1] = u_right
        energy[k + 1] = energy[k] + (h / 6.0) * (
            float(u_left @ u_left)
            + 4.0 * float(u_mid @ u_mid)
            + float(u_right @ u_right)
        )
        u_left = u_right
    return Trajectory(
        times=times, states=states, inputs=inputs, cumulative_energy=energy
    )
