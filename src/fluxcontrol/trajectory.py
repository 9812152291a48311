"""The minimum-energy run ``u(t) = B^T lam(t)``, ``lam(t) = exp((t* - t) A^T) p``,
simulated exactly on its grid ``t_k = k h``: by variation of constants,
``x_{k+1} = exp(hA) x_k + W_h(B) lam_{k+1}`` with ``W_h`` the Gramian over one
step, and the step's input energy is ``lam_{k+1}^T W_h lam_{k+1}`` (Van Loan
1978, on integrals of the matrix exponential)."""

from dataclasses import dataclass

import numpy as np

from ._util import as_vector, write_csv_rows
from .errors import DivergenceError, InvalidInputError
from .gramian import GramianEvaluator
from .linsys import InputSchematic

__all__ = ["Trajectory", "simulate"]


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


def simulate(evaluator: GramianEvaluator, schematic: InputSchematic, x0, steps: int,
             p=None) -> Trajectory:
    """Run ``xdot = A x + B u`` from ``x0`` over the evaluator's horizon in
    ``steps`` equal steps, steered by the adjoint ``p`` of a selection made on
    ``W(B)`` to ``x* = z + W p`` with energy ``p^T W p``, or with no input when
    ``p`` is None. Non-finite states abort with the last valid time.
    """
    if steps < 2:
        raise InvalidInputError("steps must be at least 2")
    n = evaluator.system.n
    x0 = as_vector(x0, n=n, name="x0")
    if schematic.B.shape[0] != n:
        raise InvalidInputError("schematic row count must match system size")
    lam = np.zeros((steps + 1, n))
    times = np.linspace(0.0, evaluator.t_star, steps + 1)
    states = np.empty((steps + 1, n))
    states[0] = x = x0
    # Overflow surfaces as a typed error, the evaluator's or the divergence below.
    with np.errstate(over="ignore", invalid="ignore"):
        if p is None:
            # The autonomous run (lam = 0) reads no Gramian over the step.
            e, g = evaluator.propagator(evaluator.t_star / steps), np.zeros((steps, n))
        else:
            lam[-1] = as_vector(p, n=n, name="p")
            e, w = evaluator.step(schematic.B, steps)
            for k in range(steps, 0, -1):
                lam[k - 1] = lam[k] @ e
            g = lam[1:] @ w
        for k in range(steps):
            x = e @ x + g[k]
            if not np.all(np.isfinite(x)):
                raise DivergenceError(
                    f"state became non-finite after t={times[k]:.6g}",
                    last_valid_time=float(times[k]),
                )
            states[k + 1] = x
        energy = np.concatenate(([0.0], np.cumsum(np.einsum("ij,ij->i", g, lam[1:]))))
        inputs = lam @ schematic.B
    return Trajectory(times=times, states=states, inputs=inputs, cumulative_energy=energy)
