"""Independent reference implementations the tests check the library against.

These deliberately re-derive results by brute force (grids, dense scans,
fine integration) without calling the code paths under test.
"""

import math

import numpy as np


def grid_design_oracle(limits, speed_margin, alpha,
                       a_step=0.001, r_step=0.1, v_step=0.1):
    """Best feasible area proxy on a fixed grid over all three parameters.

    The speed axis is eliminated exactly: the two turn-budget inequalities
    are upper bounds on the speed and the overtaking inequality is a lower
    bound, so the grid points of the speed axis inside [lower, upper] are
    feasible and the objective does not depend on the speed.
    """
    k0 = limits.kappa_bound
    r0 = 1.0 / k0
    a_grid = np.arange(a_step, math.pi / 2.0, a_step)
    r_grid = np.arange(r_step, r0, r_step)
    v_lo = limits.v_min + v_step
    best = 0.0
    best_point = None
    for a in a_grid:
        upper = np.minimum(limits.v_max,
                           (limits.omega_max - alpha) / np.sqrt((a / r_grid) ** 2 + k0 ** 2))
        upper = np.minimum(upper, (limits.omega_max - alpha) * (1.0 - k0 * r_grid) / k0)
        lower = (1.0 + k0 * r_grid) * (limits.v_min / (1.0 - k0 * r_grid)
                                       + speed_margin) / math.cos(a)
        # largest speed grid value under the upper bounds
        v_best = limits.v_min + np.floor((upper - limits.v_min) / v_step) * v_step
        ok = (v_best >= lower) & (v_best >= v_lo)
        if ok.any():
            area = a * r_grid[ok].max()
            if area > best:
                best = area
                best_point = (float(a), float(r_grid[ok].max()))
    return best, best_point


def brute_force_projection(path, point, fine_step=0.01, coarse_step=1.0):
    """Distance of the closest path sample to ``point`` by dense arc scan.

    A coarse full-length scan locates candidate basins, then a fine scan at
    ``fine_step`` resolves each of the best few basins.
    """
    coarse = np.arange(0.0, path.total_length + coarse_step, coarse_step)
    pts = np.array([path.point_at(float(s)) for s in coarse])
    d2 = (pts[:, 0] - point[0]) ** 2 + (pts[:, 1] - point[1]) ** 2
    best = math.inf
    order = np.argsort(d2)[:5]
    for i in order:
        lo = max(0.0, coarse[i] - 2.0 * coarse_step)
        hi = min(path.total_length, coarse[i] + 2.0 * coarse_step)
        fine = np.arange(lo, hi + fine_step, fine_step)
        fpts = np.array([path.point_at(float(s)) for s in fine])
        fd = np.hypot(fpts[:, 0] - point[0], fpts[:, 1] - point[1]).min()
        best = min(best, float(fd))
    return best


def integrate_error_dynamics(rho, psi, v, omega, kappa, dt, n_steps):
    """Fine fixed-step RK4 of the path-error equations under held controls."""
    def f(r, p):
        return v * math.sin(p), omega - kappa * v * math.cos(p) / (1.0 - kappa * r)

    for _ in range(n_steps):
        k1 = f(rho, psi)
        k2 = f(rho + 0.5 * dt * k1[0], psi + 0.5 * dt * k1[1])
        k3 = f(rho + 0.5 * dt * k2[0], psi + 0.5 * dt * k2[1])
        k4 = f(rho + dt * k3[0], psi + dt * k3[1])
        rho += dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        psi += dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return rho, psi


def integrate_unicycle(x, y, theta, v, omega, dt, n_steps):
    """Exact constant-turn arcs, stepped; reference for the RK4 integrator."""
    for _ in range(n_steps):
        if abs(omega) < 1.0e-15:
            x += v * math.cos(theta) * dt
            y += v * math.sin(theta) * dt
        else:
            x += v / omega * (math.sin(theta + omega * dt) - math.sin(theta))
            y -= v / omega * (math.cos(theta + omega * dt) - math.cos(theta))
            theta += omega * dt
    return x, y, theta


def error_step(rho, psi, v, omega, kappa, dt):
    """One scalar RK4 step of the path-error equations, heading wrapped to [-pi, pi)."""
    rho, psi = integrate_error_dynamics(rho, psi, v, omega, kappa, dt, 1)
    return rho, (psi + math.pi) % (2.0 * math.pi) - math.pi


def sample_s1_one_at_a_time(rng, params, n):
    """Rejection samples of the coordination set, one (rho, psi) attempt at a time."""
    a, r1 = params.psi_max, params.rho_max
    out = []
    while len(out) < n:
        rho = rng.uniform(-r1, r1)
        psi = rng.uniform(-a, a)
        if abs(a * rho + r1 * psi) <= a * r1:
            out.append((rho, psi))
    return out
