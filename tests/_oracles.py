"""Independent reference computations used as test oracles.

These deliberately avoid the library's solution paths: explicit matrix
inverses, KKT linear solves, dense grid searches, and brute-force rank
counting, so agreement is evidence rather than tautology.
"""

import csv

import numpy as np
from scipy.linalg import expm, null_space

from fluxcontrol.errors import DivergenceError, FluxControlError, InvalidInputError


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


def gramian_quadrature(system, schematic, t_star, steps):
    """Composite Simpson approximation of the reachability Gramian of
    ``(system.A, schematic.B)``.

    Fourth-order oracle kept independent of the library's eigenbasis and
    series paths; ``steps`` is the (even, >= 2) number of intervals.
    """
    if not np.isfinite(t_star) or t_star <= 0:
        raise InvalidInputError("t_star must be a positive real")
    if steps < 2 or steps % 2 != 0:
        raise InvalidInputError("steps must be an even integer >= 2")
    if schematic.n != system.n:
        raise InvalidInputError("schematic row count must match system size")
    h = float(t_star) / steps
    e_h = expm(system.A * h)
    q = schematic.B @ schematic.B.T

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


def rk4_stagewise_reference(a, b, input_fn, x0, t_star, steps):
    """Classical four-stage RK4 of ``xdot = a x + b u(t)``, one step at a time.

    Samples ``input_fn`` at each step's left end, midpoint and right end, adds
    Simpson's rule for the squared input norm, and raises ``DivergenceError``
    at the last finite state. Returns ``(times, states, inputs, energy)``.
    """
    h = float(t_star) / steps
    times = np.linspace(0.0, float(t_star), steps + 1)
    states = np.empty((steps + 1, a.shape[0]))
    inputs = np.empty((steps + 1, b.shape[1]))
    energy = np.zeros(steps + 1)
    x = np.array(x0, dtype=float)
    states[0] = x
    u_left = np.asarray(input_fn(0.0), dtype=float).ravel()
    inputs[0] = u_left
    for k in range(steps):
        t = times[k]
        u_mid = np.asarray(input_fn(t + 0.5 * h), dtype=float).ravel()
        u_right = np.asarray(input_fn(t + h), dtype=float).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = a @ x + b @ u_left
            k2 = a @ (x + 0.5 * h * k1) + b @ u_mid
            k3 = a @ (x + 0.5 * h * k2) + b @ u_mid
            k4 = a @ (x + h * k3) + b @ u_right
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise DivergenceError("state became non-finite", last_valid_time=float(t))
        states[k + 1] = x
        inputs[k + 1] = u_right
        energy[k + 1] = energy[k] + (h / 6.0) * (
            float(u_left @ u_left) + 4.0 * float(u_mid @ u_mid) + float(u_right @ u_right)
        )
        u_left = u_right
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
