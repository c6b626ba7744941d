"""Independent reference implementations the tests check the library against.

These deliberately re-derive results by brute force (grids, dense scans,
fine integration) without calling the code paths under test.
"""

import bisect
import math

import numpy as np
from scipy.interpolate import BSpline, PPoly

from cpfsim.control_laws import ControlCommand, outside_universe, sat, smoothed_sign
from cpfsim.error_frame import PathError, Region, classify, switching_value
from cpfsim.exceptions import DegenerateSpline, WrongRegion
from cpfsim.param_design import CoordParams
from cpfsim.paths import Projection


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


# -- design grid search pre-change reference ---------------------------------
# _best_on_grid as it was before it evaluated blocks of rows, one numpy pass
# per psi_max row over every column, and the v_coord window as it was before
# it split into its rho_max factors, kept verbatim so the blocked, banded
# search can be held to them with ``==``.

def _v_coord_window(a, r1, limits, speed_margin, alpha):
    """Feasible v_coord interval (lo, hi) for given half-widths; arrays ok."""
    k0 = limits.kappa_bound
    hi = np.minimum(limits.v_max,
                    (limits.omega_max - alpha) / np.sqrt((a / r1) ** 2 + k0 ** 2))
    hi = np.minimum(hi, (limits.omega_max - alpha) * (1.0 - k0 * r1) / k0)
    lo = (1.0 + k0 * r1) * (limits.v_min / (1.0 - k0 * r1) + speed_margin) / np.cos(a)
    return lo, hi


def best_on_grid_per_row(a_grid, r1_grid, limits, speed_margin, alpha):
    """Feasible point maximizing a*r1 on a rectangular grid, or None."""
    best = None
    for a in a_grid:
        lo, hi = _v_coord_window(a, r1_grid, limits, speed_margin, alpha)
        ok = (hi >= lo) & (hi > limits.v_min)
        if not ok.any():
            continue
        r1_ok = r1_grid[ok]
        j = int(np.argmax(a * r1_ok))
        cand = (float(a * r1_ok[j]), float(a), float(r1_ok[j]))
        if best is None or cand > best:
            best = cand
    return best


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


# -- comparison-system reference ----------------------------------------------
# comparison_system_trajectory as it was before its RK4 was flattened, kept
# verbatim so the flat one can be held to it with ``==``.

def comparison_system_trajectory(err0: PathError, params: CoordParams,
                                 which: str, dt: float = 0.01,
                                 max_time: float | None = None) -> float | None:
    """Axis crossing of the worst-case comparison system, or None.

    Integrates the bounding system matching the robust law in the given
    subset ("S21" or "S23") from err0 until the heading error crosses
    zero, returning the crossing abscissa; None when the lateral error
    leaves the universe first.  A crossing inside the universe certifies
    that the robust law cannot push the real trajectory out.
    """
    if which not in ("S21", "S23"):
        raise ValueError("which must be 'S21' or 'S23'")
    k0, v, om = params.kappa_bound, params.v_min, params.omega_max
    r2 = params.rho_universe

    if which == "S21":
        def f(rho, psi):
            if psi >= math.pi / 2.0:
                return v * math.sin(psi), -om - k0 * v * math.cos(psi) / (1.0 - k0 * rho)
            return v * math.sin(psi), -om + k0 * v * math.cos(psi) / (1.0 + k0 * rho)
        crossed = lambda psi: psi <= 0.0
    else:
        def f(rho, psi):
            if psi < -math.pi / 2.0:
                return v * math.sin(psi), om + k0 * v * math.cos(psi) / (1.0 + k0 * rho)
            return v * math.sin(psi), om - k0 * v * math.cos(psi) / (1.0 - k0 * rho)
        crossed = lambda psi: psi >= 0.0

    def rk4(rho, psi, h):
        k1r, k1p = f(rho, psi)
        k2r, k2p = f(rho + 0.5 * h * k1r, psi + 0.5 * h * k1p)
        k3r, k3p = f(rho + 0.5 * h * k2r, psi + 0.5 * h * k2p)
        k4r, k4p = f(rho + h * k3r, psi + h * k3p)
        return (rho + h / 6.0 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r),
                psi + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p))

    rho, psi = err0.rho, err0.psi
    if crossed(psi):
        return rho
    horizon = max_time if max_time is not None else 3.0 * math.pi / om
    steps = int(horizon / dt) + 1
    for _ in range(steps):
        rho_n, psi_n = rk4(rho, psi, dt)
        if crossed(psi_n):
            # bisect the substep length to land on the axis
            lo, hi = 0.0, dt
            for _ in range(50):
                mid = 0.5 * (lo + hi)
                _, psi_m = rk4(rho, psi, mid)
                if crossed(psi_m):
                    hi = mid
                else:
                    lo = mid
            rho_c, _ = rk4(rho, psi, hi)
            return rho_c
        if abs(rho_n) > r2:
            return None
        rho, psi = rho_n, psi_n
    return None


# -- SplinePath pre-change reference ------------------------------------------
# The scalar evaluator and single queries SplinePath had before ``_frame``
# became its only scalar evaluator, and its projection before the warm start
# carried its frame, kept verbatim (``self`` -> ``path``) so the evaluators
# and the projection can be held to them with ``==``.  Their branches before
# 0 and past ``total_length`` are the straight extension ``_frame`` answers.

def spline_eval(path, u, deriv):
    i = bisect.bisect_right(path._breaks, u) - 1
    if i < 0:
        i = 0
    elif i >= len(path._cx):
        i = len(path._cx) - 1
    du = u - path._breaks[i]
    c0, c1, c2, c3 = path._cx[i]
    d0, d1, d2, d3 = path._cy[i]
    if deriv == 0:
        return (((c0 * du + c1) * du + c2) * du + c3,
                ((d0 * du + d1) * du + d2) * du + d3)
    if deriv == 1:
        return ((3.0 * c0 * du + 2.0 * c1) * du + c2,
                (3.0 * d0 * du + 2.0 * d1) * du + d2)
    return (6.0 * c0 * du + 2.0 * c1, 6.0 * d0 * du + 2.0 * d1)


def spline_ends(path):
    """``(head, tail)``: end point and unit end tangent, as the constructor built them."""
    x0, y0 = spline_eval(path, 0.0, 0)
    dx0, dy0 = spline_eval(path, 0.0, 1)
    n0 = math.hypot(dx0, dy0)
    head = (x0, y0, dx0 / n0, dy0 / n0)
    x1, y1 = spline_eval(path, path._u_end, 0)
    dx1, dy1 = spline_eval(path, path._u_end, 1)
    n1 = math.hypot(dx1, dy1)
    return head, (x1, y1, dx1 / n1, dy1 / n1)


def spline_point_at(path, s):
    if s < 0.0:
        x, y, ux, uy = path._head
        return (x + s * ux, y + s * uy)
    if s > path.total_length:
        x, y, ux, uy = path._tail
        ds = s - path.total_length
        return (x + ds * ux, y + ds * uy)
    return spline_eval(path, path._u_at(s), 0)


def spline_tangent_angle_at(path, s):
    if s < 0.0:
        return math.atan2(path._head[3], path._head[2])
    if s > path.total_length:
        return math.atan2(path._tail[3], path._tail[2])
    dx, dy = spline_eval(path, path._u_at(s), 1)
    return math.atan2(dy, dx)


def spline_curvature_at(path, s):
    if s < 0.0 or s > path.total_length:
        return 0.0
    u = path._u_at(s)
    dx, dy = spline_eval(path, u, 1)
    ddx, ddy = spline_eval(path, u, 2)
    sp2 = dx * dx + dy * dy
    if sp2 < 1.0e-18:
        raise DegenerateSpline(f"vanishing spline derivative at s={s:g}")
    return (dx * ddy - dy * ddx) / sp2 ** 1.5


def spline_projection_at(path, s, px, py):
    """The generic projection composed from the three reference single queries."""
    x, y = spline_point_at(path, s)
    ta = spline_tangent_angle_at(path, s)
    rho = math.cos(ta) * (py - y) - math.sin(ta) * (px - x)
    return Projection(s, x, y, ta, spline_curvature_at(path, s), rho)


def spline_project(path, point, hint_s=None):
    """SplinePath.project while its warm start was an arc length: Newton's
    first iterate evaluated ``_frame(hint_s)``."""
    px, py = float(point[0]), float(point[1])
    if hint_s is not None:
        s = spline_newton_refine(path, px, py, hint_s)
        if s is not None:
            if s < 0.0 or s > path.total_length:
                return path._tail_projection(s < 0.0, px, py)
            return path._projection_at(s, px, py)
    return path._global_project(px, py)


def spline_newton_refine(path, px, py, s0, tol=1.0e-9, max_iter=30):
    # Root of g(s) = (q - p(s)) . T(s);  g'(s) = -(1 - kappa*rho).
    s = s0
    for _ in range(max_iter):
        x, y, ta, kappa = path._frame(s)
        tx, ty = math.cos(ta), math.sin(ta)
        ex, ey = px - x, py - y
        g = ex * tx + ey * ty
        rho = tx * ey - ty * ex
        denom = 1.0 - kappa * rho
        if abs(denom) < 1.0e-6:
            return None
        step = g / denom
        if abs(step) > 50.0:
            step = math.copysign(50.0, step)
        s += step
        if abs(step) < tol:
            return s
    return None


def spline_eval_gather(path, u, deriv):
    """SplinePath._eval_vec before it went span by span: a per-point span
    index and a gather of the coefficient columns, for any order of ``u``."""
    idx = np.clip(np.searchsorted(path._breaks, u, side="right") - 1, 0, len(path._cx) - 1)
    du = u - np.asarray(path._breaks)[idx]
    c0, c1, c2, c3 = np.asarray(path._cx)[idx].T
    d0, d1, d2, d3 = np.asarray(path._cy)[idx].T
    if deriv == 0:
        return (((c0 * du + c1) * du + c2) * du + c3,
                ((d0 * du + d1) * du + d2) * du + d3)
    if deriv == 1:
        return ((3.0 * c0 * du + 2.0 * c1) * du + c2,
                (3.0 * d0 * du + 2.0 * d1) * du + d2)
    return (6.0 * c0 * du + 2.0 * c1, 6.0 * d0 * du + 2.0 * d1)


def spline_lut_whole_grid(path, lut_step):
    """``(total_length, s -> u table)`` of SplinePath's build on whole grids.

    The build before it ran block by block: one ``np.linspace`` fine grid,
    one ``np.cumsum`` of the trapezoids, one ``np.interp`` at
    ``np.arange(0.0, total + lut_step, lut_step)``.  ``None`` where the
    speed gate fails.
    """
    n_fine = max(2000, int(path._u_end / 0.05) + 1)
    u = np.linspace(0.0, path._u_end, n_fine)
    speed = np.hypot(*spline_eval_gather(path, u, 1))
    if not speed.min() >= 1.0e-9:
        return None
    s = np.empty(n_fine)
    s[0] = 0.0
    s[1:] = 0.5 * (speed[1:] + speed[:-1]) * np.diff(u)
    np.cumsum(s, out=s)
    u_of_s = np.interp(np.arange(0.0, float(s[-1]) + lut_step, lut_step), s, u)
    u_of_s[-1] = path._u_end
    return float(s[-1]), u_of_s.tolist()


def clamped_knots(waypoints):
    """Waypoints as an (n, 2) array and SplinePath's clamped chord-length cubic knots."""
    k = 3
    pts = np.asarray(waypoints, dtype=float)
    chord = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(pts, axis=0).T))])
    interior = np.array([chord[j + 1:j + k + 1].mean() for j in range(len(pts) - k - 1)])
    knots = np.concatenate([[chord[0]] * (k + 1), interior, [chord[-1]] * (k + 1)])
    return pts, knots


def ppoly_power_coefficients(knots, coeffs):
    """Breaks and power-basis columns of one spline coordinate, by scipy's PPoly.

    SplinePath._power_coefficients as it was while the package called scipy,
    kept verbatim.
    """
    pp = PPoly.from_spline((knots, coeffs, 3))
    keep = np.nonzero(np.diff(pp.x) > 0.0)[0]
    breaks = [float(v) for v in pp.x[keep]]
    cols = [tuple(float(c) for c in pp.c[:, i]) for i in keep]
    return breaks, cols


def bspline_kappa_max(waypoints, total_length):
    """Largest |curvature| on SplinePath's shape-check grid, by scipy's BSpline.

    Rebuilds the clamped cubic with chord-length knots from the waypoints and
    evaluates its derivatives by de Boor's algorithm, not power coefficients.
    """
    k = 3
    pts, knots = clamped_knots(waypoints)
    splx, sply = BSpline(knots, pts[:, 0], k), BSpline(knots, pts[:, 1], k)
    n = max(4000, int(total_length / 0.1) + 1)
    u = np.linspace(0.0, float(knots[-1]), n)
    dx, dy = splx(u, 1), sply(u, 1)
    ddx, ddy = splx(u, 2), sply(u, 2)
    speed = np.hypot(dx, dy)
    return float(np.abs((dx * ddy - dy * ddx) / speed ** 3).max())


# -- hybrid law pre-change reference ------------------------------------------
# The coordinated law's reset and the outer-law bodies as they were before
# they read the per-region tables, kept verbatim, and the supervisor's
# dispatch over them, so the table-driven law can be held to them with ``==``.

def _coord_law(err, zeta, params, chi, region):
    rho, psi, kappa = err.rho, err.psi, err.kappa
    denom = 1.0 - kappa * rho
    v1 = sat(denom / math.cos(psi) * chi(zeta), params.v_min, params.v_max)
    th = switching_value(rho, psi, params)
    omega_d = (v1 * (-params.k1 * th / params.k2 + kappa * math.cos(psi) / denom)
               - params.alpha * smoothed_sign(th, params.sign_eps))
    omega = sat(omega_d, -params.omega_max, params.omega_max)
    v = _reset(v1, omega, region, err, params)
    return ControlCommand(v, omega, region, resetvalue_applied=v != v1)


def _margin_q1q3(v, omega, rho, psi, kappa, params, sign):
    """Boundary inequality value in quadrants 1/3 (<= 0 resp. >= 0 when satisfied)."""
    a, r1 = params.psi_max, params.rho_max
    denom = 1.0 - kappa * rho
    return (v * (a * math.sin(psi) - r1 * kappa * math.cos(psi) / denom)
            + r1 * omega + sign * r1 * params.alpha)


def _reset(v, omega, region, err, params):
    rho, psi, kappa = err.rho, err.psi, err.kappa
    a, r1, alpha = params.psi_max, params.rho_max, params.alpha
    denom = 1.0 - kappa * rho
    kc = kappa * math.cos(psi)

    if region in (Region.S1_1, Region.S1_3):
        sign = 1.0 if region is Region.S1_1 else -1.0
        margin = _margin_q1q3(v, omega, rho, psi, kappa, params, sign)
        violated = margin > 0.0 if region is Region.S1_1 else margin < 0.0
        if violated:
            bracket = a * math.sin(psi) - r1 * kc / denom
            if bracket != 0.0:
                cand = -r1 * (omega + sign * alpha) / bracket
                if params.v_min <= cand < v:
                    return cand
        return v

    psi_dot_ff = omega - kc * v / denom
    if region is Region.S1_2:
        if psi_dot_ff + alpha > 0.0 and kc != 0.0:
            cand = denom / kc * (omega + alpha)
            if params.v_min <= cand < v:
                return cand
        return v
    if region is Region.S1_4:
        if psi_dot_ff - alpha < 0.0 and kc != 0.0:
            cand = denom / kc * (omega - alpha)
            if params.v_min <= cand < v:
                return cand
        return v
    if region is Region.S1_5:
        if psi_dot_ff - alpha < 0.0 and kc != 0.0:
            cand = denom / kc * (omega - alpha)
            if params.v_min <= cand <= params.v_max:
                return cand
        return v
    if region is Region.S1_6:
        if psi_dot_ff + alpha > 0.0 and kc != 0.0:
            cand = denom / kc * (omega + alpha)
            if params.v_min <= cand <= params.v_max:
                return cand
        return v
    raise WrongRegion(f"reset called in {region.value}")


def _s24_law(err, params):
    region = Region.S2_4
    if err.psi >= -params.psi_max + params.eps_switch:
        return ControlCommand(params.v_max, -params.omega_max, region)
    denom = 1.0 - err.kappa * err.rho
    feed = err.kappa * params.v_max * math.cos(err.psi) / denom
    if params.omega_max - feed >= 0.0:
        return ControlCommand(params.v_max, max(-params.omega_max, feed), region)
    v = params.omega_max * denom / (err.kappa * math.cos(err.psi))
    return ControlCommand(v, params.omega_max, region)


def _s22_law(err, params):
    region = Region.S2_2
    if err.psi <= params.psi_max - params.eps_switch:
        return ControlCommand(params.v_max, params.omega_max, region)
    denom = 1.0 - err.kappa * err.rho
    feed = err.kappa * params.v_max * math.cos(err.psi) / denom
    if params.omega_max + feed >= 0.0:
        return ControlCommand(params.v_max, min(params.omega_max, feed), region)
    v = -params.omega_max * denom / (err.kappa * math.cos(err.psi))
    return ControlCommand(v, -params.omega_max, region)


def _robust_law(params, region):
    if region is Region.S2_1:
        return ControlCommand(params.v_min, -params.omega_max, region)
    return ControlCommand(params.v_min, params.omega_max, region)


def hybrid_supervisor(err, zeta, params, chi):
    """The supervisor's dispatch over the law bodies above."""
    region = classify(err, params)
    if region is Region.OUTSIDE:
        raise outside_universe(err.rho, params)
    if region.in_s1:
        return _coord_law(err, zeta, params, chi, region)
    if region is Region.S2_4:
        return _s24_law(err, params)
    if region is Region.S2_2:
        return _s22_law(err, params)
    return _robust_law(params, region)
