"""Independent reference computations used as test oracles.

These deliberately avoid the library's solution paths: explicit matrix
inverses, KKT linear solves, dense grid searches, and brute-force rank
counting, so agreement is evidence rather than tautology.
"""

import csv
import math
import warnings

import numpy as np
from scipy.linalg import expm, null_space

from fluxcontrol.errors import (
    EdgeListParseError,
    FluxControlError,
    InvalidInputError,
)


def random_stable_system(rng, n, max_real=-0.1, scale=1.0):
    """Dense matrix with all eigenvalue real parts at or below ``max_real``."""
    a = scale * rng.standard_normal((n, n)) / np.sqrt(n)
    shift = np.max(np.linalg.eigvals(a).real) - max_real
    if shift > 0:
        a = a - shift * np.eye(n)
    return a


def kkt_mean_oracle(w_mat, z, v, c):
    """Equality-constrained quadratic program solved via its raw KKT system."""
    n = len(z)
    w_inv = np.linalg.inv(w_mat)
    kkt = np.zeros((n + 1, n + 1))
    kkt[:n, :n] = 2.0 * w_inv
    kkt[:n, n] = v
    kkt[n, :n] = v
    rhs = np.concatenate([2.0 * w_inv @ z, [c]])
    sol = np.linalg.solve(kkt, rhs)
    x = sol[:n]
    energy = float((z - x) @ w_inv @ (z - x))
    return x, float(sol[n]), energy


def scalar_min_energy(delta_x, t_star):
    """Minimum input energy moving a single integrator by delta_x in t_star."""
    return delta_x * delta_x / t_star


def sphere_grid_min_energy(w_mat, z, center, radius_sq, samples=10_000):
    """Dense search over the circle ||x - center||^2 = radius_sq (2-D only)."""
    w_inv = np.linalg.inv(w_mat)
    angles = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    r = np.sqrt(radius_sq)
    best = np.inf
    for th in angles:
        x = center + r * np.array([np.cos(th), np.sin(th)])
        e = float((z - x) @ w_inv @ (z - x))
        best = min(best, e)
    return best


def range_qcls_grid(g, z, o, d, eta, samples=20_000):
    """Least-energy state on ``||O x - d||^2 = eta`` among ``x = z + G y``.

    ``G`` has one or two linearly independent columns, and ``W = G G^T``, so
    reaching ``z + G y`` costs ``||y||^2``. On each ray ``y = t w`` of a grid
    of unit directions the constraint is a quadratic in ``t``, and its root of
    least magnitude is the cheapest point on that ray. Returns
    ``(energy, x)``, or ``(inf, None)`` when no ray meets the constraint.
    """
    if g.shape[1] == 1:
        dirs = np.ones((1, 1))
    elif g.shape[1] == 2:
        angles = np.linspace(0.0, np.pi, samples, endpoint=False)
        dirs = np.vstack([np.cos(angles), np.sin(angles)])
    else:
        raise ValueError("oracle supports one or two columns only")
    a = o @ z - d
    m = o @ g @ dirs
    qa = np.einsum("ij,ij->j", m, m)
    qb = 2.0 * (a @ m)
    disc = qb * qb - 4.0 * qa * (float(a @ a) - eta)
    hit = disc >= 0.0
    if not np.any(hit):
        return np.inf, None
    sq = np.sqrt(np.where(hit, disc, 0.0))
    lo, hi = (-qb - sq) / (2.0 * qa), (-qb + sq) / (2.0 * qa)
    t = np.where(np.abs(lo) < np.abs(hi), lo, hi)
    k = int(np.argmin(np.where(hit, t * t, np.inf)))
    return float(t[k] ** 2), z + g @ (t[k] * dirs[:, k])


def variance_grid_min_energy(w_mat, z, eta, samples=4_000):
    """Dense search over states with fixed sample variance (n = 2 or 3).

    Parameterizes the mean-zero component on its sphere of squared radius
    ``eta`` and minimizes the energy over the mean shift in closed form.
    """
    n = len(z)
    w_inv = np.linalg.inv(w_mat)
    ones = np.ones(n)
    q = null_space(ones[None, :])
    denom = float(ones @ w_inv @ ones)
    if q.shape[1] == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif q.shape[1] == 2:
        angles = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    else:
        raise ValueError("oracle supports n = 2 or 3 only")
    best = np.inf
    r = np.sqrt(eta)
    for w in dirs:
        x_mz = q @ (r * w)
        mu = float(ones @ w_inv @ (z - x_mz)) / denom
        x = x_mz + mu * ones
        e = float((z - x) @ w_inv @ (z - x))
        best = min(best, e)
    return best


def centering_matrix(n):
    """The dense centering projector ``D = I - J/n``, the variance goal's observer."""
    return np.eye(n) - np.full((n, n), 1.0 / n)


def variance_energy_bound_dense(w_mat, z, eta):
    """``(||D z|| + sqrt(eta))^2 / lam_max(D W D)`` with ``D`` formed densely."""
    d = centering_matrix(len(z))
    return (np.linalg.norm(d @ z) + np.sqrt(eta)) ** 2 / np.linalg.eigvalsh(d @ w_mat @ d)[-1]


def mean_zero_basis(n):
    """Orthonormal Helmert basis (n x (n-1)) of the mean-zero subspace.

    Column k has k ones, then -k, then zeros, scaled to unit norm, so every
    column is orthogonal to the all-ones vector.
    """
    q = np.zeros((n, n - 1))
    for k in range(1, n):
        q[:k, k - 1] = 1.0
        q[k, k - 1] = -float(k)
        q[:, k - 1] /= np.sqrt(k * (k + 1.0))
    return q


def fd_gradient(objective, b_mat, e_center, step=1e-6):
    """Entrywise finite-difference gradient of ``objective`` at ``b_mat``.

    Central differences with step ``step * (1 + |b_ij|)``; one-sided when a
    side raises a ``FluxControlError`` (infeasible), zero when both do.
    """
    grad = np.zeros_like(b_mat)
    for i in range(b_mat.shape[0]):
        for j in range(b_mat.shape[1]):
            h = step * (1.0 + abs(b_mat[i, j]))
            plus = b_mat.copy()
            plus[i, j] += h
            minus = b_mat.copy()
            minus[i, j] -= h
            try:
                ep = objective(plus)
            except FluxControlError:
                ep = None
            try:
                em = objective(minus)
            except FluxControlError:
                em = None
            if ep is not None and em is not None:
                grad[i, j] = (ep - em) / (2.0 * h)
            elif ep is not None:
                grad[i, j] = (ep - e_center) / h
            elif em is not None:
                grad[i, j] = (e_center - em) / h
    return grad


def brute_force_min_drivers(a_mat):
    """Largest geometric multiplicity via per-eigenvalue null-space ranks."""
    n = a_mat.shape[0]
    eigs = np.linalg.eigvals(a_mat)
    seen = []
    best = 1
    for lam in eigs:
        if any(abs(lam - s) < 1e-7 * max(1.0, abs(lam)) for s in seen):
            continue
        seen.append(lam)
        gm = n - np.linalg.matrix_rank(lam * np.eye(n) - a_mat)
        best = max(best, int(gm))
    return best


def _laplacian_eigenbasis(a_mat, t_star):
    """Eigenbasis ``V`` of a connected-graph ``A = -L`` and ``K_ij = int e^{-(nu_i+nu_j)t}``.

    Column 0 of ``V`` is the mean mode (``nu_0 = 0``); columns 1.. span the
    mean-zero subspace, ordered by increasing decay rate.
    """
    a_mat = np.asarray(a_mat, dtype=float)
    n = a_mat.shape[0]
    if not np.allclose(a_mat, a_mat.T) or not np.allclose(a_mat @ np.ones(n), 0.0):
        raise ValueError("oracle needs a symmetric A with A @ 1 = 0")
    nu, v = np.linalg.eigh(-a_mat)
    if abs(nu[0]) > 1e-9 or nu[1] <= 1e-9:
        raise ValueError("oracle needs a simple zero eigenvalue (connected graph)")
    nu[0] = 0.0
    s = nu[:, None] + nu[None, :]
    k = np.where(s > 0.0, -np.expm1(-s * t_star) / np.where(s > 0.0, s, 1.0), t_star)
    return v, k


def schur_variance_energy_bound(a_mat, t_star, eta, trace):
    """Lower bound on the variance-goal energy (z = 0) of every schematic.

    For ``A = -L`` the mean-zero block of ``W`` in the eigenbasis is
    ``(V^T B B^T V) o K`` restricted to modes 1.., and Schur's inequality for
    Hadamard products of PSD matrices gives ``lam_max(M o K) <= max_i K_ii *
    lam_max(M) <= max_i K_ii * tr(B^T B)``. Hence every schematic on the
    sphere ``tr(B^T B) = trace`` needs energy at least
    ``eta / (trace * max_{i>=1} K_ii)``.
    """
    _, k = _laplacian_eigenbasis(a_mat, t_star)
    g_max = float(np.max(np.diag(k)[1:]))
    return eta / (trace * g_max)


def variance_energy_eigenbasis(a_mat, b_mat, t_star, eta):
    """Variance-goal energy at z = 0 in closed form: ``eta / lam_max(((V^T B B^T V) o K)[1:, 1:])``.

    Minimizing ``x^T W^{-1} x`` over the free mean leaves the inverse of the
    mean-zero block of ``W``; its best direction on the sphere of squared
    radius ``eta`` is the top eigenvector.
    """
    v, k = _laplacian_eigenbasis(a_mat, t_star)
    vb = v.T @ np.asarray(b_mat, dtype=float)
    block = ((vb @ vb.T) * k)[1:, 1:]
    return eta / float(np.linalg.eigvalsh(block)[-1])


def simpson_scalar_gramian(a, t_star, steps):
    """Composite Simpson for the scalar integral of exp(2 a t)."""
    ts = np.linspace(0.0, t_star, steps + 1)
    f = np.exp(2.0 * a * ts)
    wgt = np.ones(steps + 1)
    wgt[1:-1:2] = 4.0
    wgt[2:-1:2] = 2.0
    return float((t_star / steps) / 3.0 * (wgt @ f))


def gramian_quadrature(system, B, t_star, steps):
    """Composite Simpson approximation of the reachability Gramian of
    ``(system.A, B)``, ``B`` an n x m array.

    Fourth-order oracle kept independent of the library's eigenbasis and
    series paths; ``steps`` is the (even, >= 2) number of intervals.
    """
    if not np.isfinite(t_star) or t_star <= 0:
        raise InvalidInputError("t_star must be a positive real")
    if steps < 2 or steps % 2 != 0:
        raise InvalidInputError("steps must be an even integer >= 2")
    b = np.asarray(B, dtype=float)
    if b.shape[0] != system.n:
        raise InvalidInputError("B row count must match system size")
    h = float(t_star) / steps
    e_h = expm(system.A * h)
    q = b @ b.T

    x = np.eye(system.n)
    acc = np.zeros_like(q)
    for k in range(steps + 1):
        f = x @ q @ x.T
        if k == 0 or k == steps:
            wgt = 1.0
        elif k % 2 == 1:
            wgt = 4.0
        else:
            wgt = 2.0
        acc += wgt * f
        if k < steps:
            x = x @ e_h
    w = acc * (h / 3.0)
    return 0.5 * (w + w.T)


def van_loan_block_reference(a, q, t_star):
    """int_0^t* exp(sa) q exp(sa^T) ds by the 2n x 2n block exponential.

    Exponentiates [[-a, q], [0, a^T]] h (Van Loan 1978); the integral over h
    is the transposed lower-right block times the upper-right block. The raw
    block cancels when ||a|| h is large, so h = t*/2^d with ||a||_1 h <= 2
    (at most 60 doublings) and W(2t) = W(t) + exp(ta) W(t) exp(ta^T) rebuilds
    the horizon. Reference for the library's series kernel.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    norm = float(np.linalg.norm(a, 1))
    doublings = 0
    if norm * t_star > 2.0:
        doublings = min(int(np.ceil(np.log2(norm * t_star / 2.0))), 60)
    h = t_star / 2.0**doublings
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -a
    block[:n, n:] = q
    block[n:, n:] = a.T
    e = expm(block * h)
    prop = e[n:, n:].T
    w = prop @ e[:n, n:]
    for k in range(doublings):
        if k:
            prop = prop @ prop
        w = w + prop @ w @ prop.T
    return 0.5 * (w + w.T)


def exact_grid_reference(a, b, p, x0, t_star, steps):
    """The minimum-energy run of ``xdot = a x + b u``, ``u(t) = b^T lam(t)``,
    ``lam(t) = exp((t* - t) a^T) p``, in closed form at each ``t_k = k t*/steps``.

    Variation of constants gives ``x(t) = exp(ta) x0 + W_t lam(t)`` and the
    energy so far ``lam(t)^T W_t lam(t)``, with ``W_t`` the Gramian of
    ``(a, b)`` over ``[0, t]`` from ``van_loan_block_reference``. Each grid
    point is taken on its own, with no recurrence between them. Returns
    ``(times, states, inputs, energy)``.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    times = np.linspace(0.0, float(t_star), steps + 1)
    states = np.empty((steps + 1, a.shape[0]))
    inputs = np.empty((steps + 1, b.shape[1]))
    energy = np.empty(steps + 1)
    for k, t in enumerate(times):
        lam = expm((t_star - t) * a.T) @ p
        w = van_loan_block_reference(a, b @ b.T, t)
        states[k] = expm(t * a) @ x0 + w @ lam
        inputs[k] = b.T @ lam
        energy[k] = lam @ w @ lam
    return times, states, inputs, energy


def write_trajectory_csv_reference(traj, path):
    """``Trajectory.write_csv`` as ``csv.writer`` with one ``%.17g`` field per value."""
    n, m = traj.states.shape[1], traj.inputs.shape[1]
    header = ["t"] + [f"x_{i + 1}" for i in range(n)] + [f"u_{j + 1}" for j in range(m)] + ["E_cum"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(traj.times.shape[0]):
            row = [traj.times[k], *traj.states[k], *traj.inputs[k], traj.cumulative_energy[k]]
            writer.writerow(f"{x:.17g}" for x in row)


def series_tail(x, p):
    """Tail bound (2x)^(p+1) e^(2x)/(p+2)! of the Gramian series after p terms
    on a base step with ||ha||_1 = x, by the factorial."""
    return (2 * x) ** (p + 1) * math.exp(2 * x) / math.factorial(p + 2)


def series_terms_reference(x):
    """The fewest series terms whose factorial-form tail is below 2^-53."""
    return next(p for p in range(1, 200) if series_tail(x, p) <= 2.0**-53)


def _edge_list_lines(lines, undirected):
    edges: dict[tuple[int, int], float] = {}
    max_node = 0
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise EdgeListParseError(
                f"line {ln}: expected 'i j [w]', got {raw.strip()!r}", line_number=ln
            )
        try:
            i = int(parts[0])
            j = int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise EdgeListParseError(f"line {ln}: {exc}", line_number=ln) from exc
        if i < 1 or j < 1:
            raise EdgeListParseError(
                f"line {ln}: node ids are 1-based positive integers", line_number=ln
            )
        if not np.isfinite(w):
            raise EdgeListParseError(f"line {ln}: non-finite weight", line_number=ln)
        key = (min(i, j) - 1, max(i, j) - 1) if undirected else (i - 1, j - 1)
        if key in edges:
            warnings.warn(
                f"duplicate edge {i} {j} on line {ln}; weights summed", stacklevel=3
            )
            edges[key] += w
        else:
            edges[key] = w
        max_node = max(max_node, i, j)
    if not edges:
        raise EdgeListParseError("no edges")
    return edges, max_node


def parse_edge_list_reference(path, undirected=True):
    """Edge list to adjacency one line and one entry at a time: the dict loop
    and the ``adj[i, j] += w`` fill of the reader as it was before its fill
    became one indexed assignment."""
    with open(path) as fh:
        edges, n = _edge_list_lines(fh, undirected)
    adj = np.zeros((n, n))
    for (i, j), w in edges.items():
        adj[i, j] += w
        if undirected and i != j:
            adj[j, i] += w
    return adj


def parse_edge_arrays_reference(path, undirected=True):
    """``(n, rows, cols, weights)`` from the same line loop: each 0-based
    position in the order of the line that first gives it, then, for
    undirected input, the mirror of each one off the diagonal in that order."""
    with open(path) as fh:
        edges, n = _edge_list_lines(fh, undirected)
    rows, cols = [i for i, _ in edges], [j for _, j in edges]
    weights = list(edges.values())
    if undirected:
        off = [k for k, (i, j) in enumerate(edges) if i != j]
        rows, cols, weights = (rows + [cols[k] for k in off], cols + [rows[k] for k in off],
                               weights + [weights[k] for k in off])
    return (n, np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
            np.array(weights, dtype=float))


def laplacian_reference(adj):
    """Minus the graph Laplacian of a dense adjacency, checked entry by entry
    as the dense path did before systems kept edge arrays: nonnegative, zero
    diagonal, symmetric to 1e-12 of the largest weight (or of 1)."""
    adj = np.asarray(adj, dtype=float)
    if np.any(adj < 0):
        raise InvalidInputError("adjacency weights must be nonnegative")
    if np.any(np.diag(adj) != 0):
        raise InvalidInputError("adjacency must have a zero diagonal")
    scale = max(np.abs(adj).max(), 1.0)
    if not np.allclose(adj, adj.T, rtol=0.0, atol=1e-12 * scale):
        raise InvalidInputError("adjacency must be symmetric")
    adj = 0.5 * (adj + adj.T)
    return -(np.diag(adj.sum(axis=1)) - adj)
