"""Workload inputs, job command lines and correctness gates.

A workload builds its inputs from the workload seed into the current
directory, gives job ``j`` its own seeded command line for ``fluxcontrol``,
and checks a finished job's result files against references computed here
with numpy/scipy alone. Nothing in this module imports fluxcontrol: the
references must stay independent of the code under test.
"""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
from scipy.linalg import expm

KARATE = Path(__file__).resolve().parents[1] / "src" / "fluxcontrol" / "data" / "karate_club.edges"

# Size of the seeded synthetic networks.
N_SYNTH = 200


def ring_chords(n, rng, directed):
    """Adjacency of a ring plus n // 2 random chords; adj[i, j] = 1 is i -> j."""
    adj = np.zeros((n, n))
    idx = np.arange(n)
    adj[idx, (idx + 1) % n] = 1.0
    if not directed:
        adj[(idx + 1) % n, idx] = 1.0
    added = 0
    while added < n // 2:
        i, j = (int(k) for k in rng.integers(n, size=2))
        if i == j or adj[i, j]:
            continue
        adj[i, j] = 1.0
        if not directed:
            adj[j, i] = 1.0
        added += 1
    return adj


def write_edges(path, adj):
    """Undirected edge list, one ``i j`` line per edge, 1-based ids."""
    rows, cols = np.nonzero(np.triu(adj, 1))
    with open(path, "w") as fh:
        for i, j in zip(rows, cols):
            fh.write(f"{i + 1} {j + 1}\n")


def read_edges(path):
    """Symmetric 0/1 adjacency of a 1-based ``i j`` edge list with # comments."""
    pairs = np.loadtxt(path, comments="#", dtype=int, ndmin=2)[:, :2] - 1
    adj = np.zeros((pairs.max() + 1,) * 2)
    adj[pairs[:, 0], pairs[:, 1]] = 1.0
    adj[pairs[:, 1], pairs[:, 0]] = 1.0
    return adj


def exp_integral_weights(a, t):
    """K_ij = int_0^t exp((a_i + a_j) s) ds for a vector of real eigenvalues."""
    s = a[:, None] + a[None, :]
    small = np.abs(s) < 1e-12
    safe = np.where(small, 1.0, s)
    return np.where(small, t, np.expm1(safe * t) / safe)


def digest_dir(path):
    """SHA-256 over the names and bytes of every file in a result directory."""
    h = hashlib.sha256()
    for f in sorted(Path(path).iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


def _floats(values):
    return ",".join(repr(float(x)) for x in values)


class PlaceKarate:
    """GPGM placement for the variance goal on the bundled karate graph.

    Each job is capped at MAX_ITERS descent iterations. Every start needs 66
    or more iterations to converge, so every job does the same amount of work
    and the job time does not depend on which start seed a run draws.
    """

    name = "place-karate"
    ETA, T_STAR, M, SIGMA, EPSILON = 1.0, 3.0, 2, 0.1, 1e-6
    MAX_ITERS = 20

    def __init__(self, seed):
        self.seed = seed
        self.graph = Path("karate_club.edges")
        shutil.copyfile(KARATE, self.graph)

    def prepare(self):
        """Eigenbasis of A = -L and the provable optimum eta / ((m + eps) g_max)."""
        adj = read_edges(self.graph)
        self.n = adj.shape[0]
        self.a, self.v = np.linalg.eigh(np.diag(adj.sum(1)) - adj)
        self.a = -self.a
        self.k = exp_integral_weights(self.a, self.T_STAR)
        nu = -self.a[self.a < -1e-9]
        g_max = float(np.max(-np.expm1(-2.0 * nu * self.T_STAR) / (2.0 * nu)))
        self.bound = self.ETA / ((self.M + self.EPSILON) * g_max)

    def start_seed(self, j):
        return self.seed * 100_000 + j

    def argv(self, j, out):
        return [
            "place", "--input", str(self.graph), "--mode", "laplacian",
            "--method", "gpgm", "--goal", "variance", "--eta", repr(self.ETA),
            "--t-star", repr(self.T_STAR), "--m", str(self.M), "--sigma", repr(self.SIGMA),
            "--epsilon", repr(self.EPSILON), "--max-iters", str(self.MAX_ITERS),
            "--starts", "1", "--seed", str(self.start_seed(j)), "--out", str(out),
        ]

    def reference_energy(self, b):
        """Optimal variance-goal energy from z = 0: eta / lambda_max(D W D)."""
        bt = self.v.T @ b
        w = self.v @ (self.k * (bt @ bt.T)) @ self.v.T
        d = np.eye(self.n) - 1.0 / self.n
        return self.ETA / float(np.linalg.eigvalsh(d @ w @ d)[-1])

    def observe(self, out):
        p = json.loads((Path(out) / "placement.json").read_text())
        return {
            "iterations": p["iterations"],
            "accepted": len(p["trace"]) - 1,
            "energy_gap_rel": p["energy"] / self.bound - 1.0,
        }

    def gates(self, out, j):
        """Names of the gates the job's result files fail."""
        p = json.loads((Path(out) / "placement.json").read_text())
        b = np.loadtxt(Path(out) / "B.csv", delimiter=",", ndmin=2)
        e, trace = float(p["energy"]), np.asarray(p["trace"], dtype=float)
        failed = []
        if b.shape != (self.n, self.M) or not np.array_equal(b, np.asarray(p["B"])):
            failed.append("place.shape")
        elif abs(float(np.sum(b * b)) - (self.M + self.EPSILON)) > 1e-9 * self.M:
            failed.append("place.sphere")
        elif abs(e - self.reference_energy(b)) > 1e-6 * e:
            failed.append("place.energy_ref")
        if not e >= self.bound * (1.0 - 1e-9):
            failed.append("place.lower_bound")
        # An accepted step may raise the energy by the 1e-12 slack GPGM allows.
        rising = np.diff(trace) > 1e-12 * trace[:-1] + 1e-15
        if np.any(rising) or e != trace.min() or not 1 <= p["iterations"] <= self.MAX_ITERS:
            failed.append("place.descent")
        return failed


class FluxSynth:
    """Flux centrality sweep over 8 jittered horizons on a seeded ring-plus-chords graph."""

    name = "flux-synth"
    LO, HI, COUNT = 0.015, 1.5, 8

    def __init__(self, seed):
        self.seed = seed
        self.graph = Path("synth.edges")
        write_edges(self.graph, ring_chords(N_SYNTH, np.random.default_rng(seed), directed=False))

    def prepare(self):
        adj = read_edges(self.graph)
        self.a, self.v = np.linalg.eigh(adj)
        self.c = self.v.T @ np.ones(adj.shape[0])

    def horizons(self, j):
        """Log-spaced horizons, each moved by up to 30% of the log spacing."""
        step = np.log(self.HI / self.LO) / (self.COUNT - 1)
        jitter = np.random.default_rng((self.seed, j)).uniform(-0.3, 0.3, self.COUNT) * step
        logs = np.linspace(np.log(self.LO), np.log(self.HI), self.COUNT) + jitter
        return np.clip(np.exp(logs), self.LO, self.HI)

    def argv(self, j, out):
        return [
            "flux", "--input", str(self.graph), "--mode", "adjacency",
            "--t-star", _floats(self.horizons(j)), "--out", str(out),
        ]

    def reference_vector(self, t):
        """Top eigenvector of V (K(t) o c c^T) V^T, the closed-form flux matrix."""
        core = exp_integral_weights(self.a, t) * np.outer(self.c, self.c)
        return self.v @ np.linalg.eigh(core)[1][:, -1]

    def observe(self, out):
        return {}

    def gates(self, out, j):
        rows = np.loadtxt(Path(out) / "flux.csv", delimiter=",", skiprows=1, ndmin=2)
        if not np.array_equal(rows[:, 0], np.sort(self.horizons(j))):
            return ["flux.horizons"]
        phi = rows[:, 1:]
        failed = []
        if np.any(np.abs(np.linalg.norm(phi, axis=1) - 1.0) > 1e-12):
            failed.append("flux.unit_norm")
        if any(abs(float(row @ self.reference_vector(t))) < 1.0 - 1e-8 for t, row in zip(rows[:, 0], phi)):
            failed.append("flux.reference")
        return failed


class SteerDirected:
    """Simulated minimum-energy steering on a seeded directed network.

    A = -L of a directed ring plus chords (nonsymmetric), identity schematic,
    and a repulsion goal ||x - d||^2 >= eta from a seeded point d, so the
    selection goes through the quadratically constrained solver.
    """

    name = "steer-directed"
    T_STAR, STEPS = 1.0, 200
    # Simpson intervals for the reference Gramian; the rule's error is below 1e-9 here.
    SIMPSON = 400

    def __init__(self, seed):
        self.seed = seed
        rng = np.random.default_rng(seed)
        adj = ring_chords(N_SYNTH, rng, directed=True)
        self.matrix = Path("steer.csv")
        np.savetxt(self.matrix, adj - np.diag(adj.sum(1)), delimiter=",", fmt="%.17g")
        self.d = rng.standard_normal(N_SYNTH)
        # Far above ||z - d||^2 for x0 ~ N(0, I), so every goal binds.
        self.eta = 4.0 * N_SYNTH

    def prepare(self):
        """Reference Gramian by composite Simpson and the transition matrix."""
        a = np.loadtxt(self.matrix, delimiter=",")
        self.n = a.shape[0]
        h = self.T_STAR / self.SIMPSON
        step = expm(a * h)
        x = np.eye(self.n)
        acc = np.zeros((self.n, self.n))
        for k in range(self.SIMPSON + 1):
            weight = 1.0 if k in (0, self.SIMPSON) else (4.0 if k % 2 else 2.0)
            acc += weight * (x @ x.T)
            x = x @ step
        self.w = acc * (h / 3.0)
        self.phi = expm(a * self.T_STAR)

    def x0_seed(self, j):
        return self.seed * 100_000 + j

    def argv(self, j, out):
        return [
            "simulate", "--input", str(self.matrix), "--mode", "raw-matrix",
            "--t-star", repr(self.T_STAR), "--goal", "repulsion", "--sense", "expand",
            "--d=" + _floats(self.d), "--eta", repr(self.eta),
            "--x0", "random", "--x0-seed", str(self.x0_seed(j)),
            "--steps", str(self.STEPS), "--out", str(out),
        ]

    def observe(self, out):
        return {}

    def gates(self, out, j):
        s = json.loads((Path(out) / "simulate.json").read_text())
        with open(Path(out) / "trajectory.csv") as fh:
            last = np.array(fh.read().rstrip("\n").rsplit("\n", 1)[-1].split(","), dtype=float)
        x_star = np.asarray(s["selection"]["x_star"], dtype=float)
        endpoint, e_sim = last[1:1 + self.n], last[-1]
        e_closed = float(s["energy_closed_form"])
        # The CLI defines `--x0 random --x0-seed k` as this draw.
        x0 = np.random.default_rng(self.x0_seed(j)).standard_normal(self.n)
        delta = x_star - self.phi @ x0
        adjoint = np.linalg.solve(self.w, delta)
        e_ref = float(delta @ adjoint)
        failed = []
        r = x_star - self.d
        if abs(float(r @ r) - self.eta) > 1e-8 * self.eta:
            failed.append("steer.goal")
        if np.linalg.norm(endpoint - x_star) > 1e-6 * (1.0 + np.linalg.norm(delta)):
            failed.append("steer.endpoint")
        if abs(e_sim - e_closed) > 1e-6 * e_closed:
            failed.append("steer.energy")
        # Stationarity of ||x - z||^2_{W^-1} on the sphere: W^-1 (x* - z) parallel to x* - d.
        cos = float(adjoint @ r) / (np.linalg.norm(adjoint) * np.linalg.norm(r))
        if abs(e_closed - e_ref) > 1e-6 * e_ref or cos < 1.0 - 1e-8:
            failed.append("steer.energy_ref")
        return failed


WORKLOADS = {w.name: w for w in (PlaceKarate, FluxSynth, SteerDirected)}
