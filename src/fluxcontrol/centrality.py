"""Flux centrality: per-node importance for steering the average state."""

import csv
from dataclasses import dataclass

import numpy as np

from ._util import as_vector, write_csv_rows
from .errors import InvalidInputError
from .gramian import flux_matrix
from .linsys import LinearSystem

__all__ = ["FluxProfile", "flux_centrality", "flux_sweep", "centrality_histogram"]


@dataclass(frozen=True)
class FluxProfile:
    """Centrality scores per horizon; each row is a unit vector."""

    horizons: np.ndarray
    phi: np.ndarray

    @property
    def n(self) -> int:
        return self.phi.shape[1]

    def write_csv(self, path, labels=None) -> None:
        """Rows are horizons, columns node scores; header carries node labels."""
        labels = labels if labels is not None else [str(i + 1) for i in range(self.n)]
        if len(labels) != self.n:
            raise InvalidInputError("label count must match node count")
        with open(path, "w", newline="") as fh:
            # Labels may need quoting; the rows are plain numbers.
            csv.writer(fh).writerow(["t_star", *labels])
            write_csv_rows(fh, np.column_stack([self.horizons, self.phi]))


def flux_centrality(system: LinearSystem, t_star: float) -> np.ndarray:
    """Top unit eigenvector of the all-ones flux matrix, sign-fixed to a
    nonnegative entry sum.

    Depends only on the dynamics and the horizon, not on any goal threshold or
    initial state.
    """
    fm = flux_matrix(system, np.ones(system.n), t_star)
    vec = fm.top_vector
    if float(vec.sum()) < -1e-12 * np.sqrt(system.n):
        vec = -vec
    return vec


def flux_sweep(system: LinearSystem, horizons) -> FluxProfile:
    """One centrality row per horizon; horizons must be positive and sorted."""
    hs = as_vector(horizons, name="horizons")
    if hs.size == 0:
        raise InvalidInputError("at least one horizon is required")
    if np.any(hs <= 0):
        raise InvalidInputError("horizons must be positive")
    if np.any(np.diff(hs) < 0):
        raise InvalidInputError("horizons must be sorted ascending")
    rows = np.vstack([flux_centrality(system, float(t)) for t in hs])
    return FluxProfile(horizons=hs, phi=rows)


def centrality_histogram(values):
    """Histogram counts and bin edges with Freedman-Diaconis binning.

    A row whose spread is at roundoff relative to its magnitude (the uniform
    centrality of a vertex-transitive graph) is constant, and gets the one bin
    numpy gives constant data; Freedman-Diaconis would ask for bins narrower
    than the float spacing there.
    """
    v = as_vector(values, name="values")
    flat = np.ptp(v) <= 1e-12 * np.abs(v).max()
    return np.histogram(v, bins=1 if flat else "fd")
