"""Open-loop minimum-energy input ``u(t) = B^T exp(A^T (t* - t)) p`` from a state
selection's adjoint ``p``, sampled on the RK4 half-step grid, and fixed-grid RK4 simulation."""

from dataclasses import dataclass

import numpy as np

from ._util import as_vector, write_csv_rows
from .errors import DivergenceError, InvalidInputError
from .gramian import GramianEvaluator
from .linsys import InputSchematic, LinearSystem

__all__ = ["Trajectory", "min_energy_controller", "simulate"]


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
        n, m = self.states.shape[1], self.inputs.shape[1]
        header = ["t", *(f"x_{i + 1}" for i in range(n)),
                  *(f"u_{j + 1}" for j in range(m)), "E_cum"]
        data = np.column_stack([self.times, self.states, self.inputs, self.cumulative_energy])
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\r\n")
            write_csv_rows(fh, data)


def min_energy_controller(evaluator: GramianEvaluator, schematic: InputSchematic, p, steps: int):
    """Open-loop minimum-energy input ``u(t) = B^T exp(A^T (t* - t)) p``.

    ``p`` is the adjoint vector of a state selection made on the Gramian
    ``W(B)`` of this evaluator and schematic (``x* = z + W p``). The input then
    reaches ``x*`` at the evaluator's horizon with energy ``p^T W p``, and no
    Gramian is ever inverted. It is sampled once on the half-step grid
    ``t_j = j t*/(2 steps)`` of ``simulate``; ``u(t)`` accepts only those times.
    """
    if steps < 1:
        raise InvalidInputError("steps must be at least 1")
    samples = 2 * steps
    inputs = (evaluator.adjoint(p, samples) @ schematic.B)[::-1]
    half = evaluator.t_star / samples

    def control(t: float) -> np.ndarray:
        # Off-grid tolerance in half steps: simulate's times carry ~1e-16 t* roundoff.
        j = float(t) / half
        k = round(j) if -1e-6 <= j <= samples + 1e-6 else -1
        if k < 0 or abs(j - k) > 1e-6:
            raise InvalidInputError(f"t={t!r} is not on the controller's time grid")
        return inputs[k].copy()

    return control


def simulate(
    system: LinearSystem,
    schematic: InputSchematic,
    input_fn,
    x0,
    t_star: float,
    steps: int,
) -> Trajectory:
    """Fixed-grid 4th-order Runge-Kutta run of xdot = A x + B u(t).

    On linear dynamics an RK4 step is exactly ``x_{k+1} = R x_k + g_k``, with
    ``H = hA`` and the method's transition polynomial (stability function)
    ``R = I + H + H^2/2 + H^3/6 + H^4/24``. The stages' inputs enter as
    ``g_k = h/6 [(I + H + H^2/2 + H^3/4) B u_k + (4I + 2H + H^2/2) B u_{k+1/2}
    + B u_{k+1}]``, three GEMMs over the run. ``input_fn`` is sampled once, in
    time order, at ``0`` and then ``t_k + h/2`` and ``t_k + h`` for each step.
    Forming ``R`` costs about 3n^3 flops, which one matvec per step in place
    of four stage products repays once ``steps`` exceeds about n/2.

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

    b, m = schematic.B, schematic.m
    h = float(t_star) / steps
    times = np.linspace(0.0, float(t_star), steps + 1)

    def control(t: float) -> np.ndarray:
        u = np.asarray(input_fn(t), dtype=float).ravel()
        if u.shape[0] != m:
            raise InvalidInputError(f"input_fn must return length-{m} vectors")
        return u

    u = np.array([control(0.0)] + [control(t + d) for t in times[:-1] for d in (0.5 * h, h)])
    states = np.empty((steps + 1, system.n))
    states[0] = x = x0
    # Overflow surfaces as the divergence error below, not as a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        eye, hh = np.eye(system.n), h * system.A
        h2 = hh @ hh
        h3 = h2 @ hh
        r = eye + hh + h2 / 2.0 + h3 / 6.0 + (h2 @ h2) / 24.0
        left = (eye + hh + h2 / 2.0 + h3 / 4.0) @ b
        mid = (4.0 * eye + 2.0 * hh + h2 / 2.0) @ b
        g = (h / 6.0) * (u[:-1:2] @ left.T + u[1::2] @ mid.T + u[2::2] @ b.T)
        for k in range(steps):
            x = r @ x + g[k]
            if not np.all(np.isfinite(x)):
                raise DivergenceError(
                    f"state became non-finite after t={times[k]:.6g}",
                    last_valid_time=float(times[k]),
                )
            states[k + 1] = x
    sq = np.einsum("ij,ij->i", u, u)
    energy = np.zeros(steps + 1)
    np.cumsum((h / 6.0) * (sq[:-1:2] + 4.0 * sq[1::2] + sq[2::2]), out=energy[1:])
    return Trajectory(
        times=times, states=states, inputs=u[::2].copy(), cumulative_energy=energy
    )
