"""Hybrid control laws: coordinated in-set law and single-agent outer laws.

Inside the coordination set the law tracks the speed assignment chi(zeta)
along the path and steers the error onto the switching surface; a
reset step trims the forward speed where the boundary margin inequalities
would otherwise fail.  Outside the set, greedy near-time-optimal laws
(outer box subsets) and constant robust laws (remaining outer subsets)
drive the error back.  All commands respect the actuation box exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .error_frame import PathError, Region, classify, switching_value
from .exceptions import OutsideUniverse, WrongRegion
from .param_design import CoordParams


def sat(x: float, lo: float, hi: float) -> float:
    """Clamp x to [lo, hi]."""
    if x <= lo:
        return lo
    if x >= hi:
        return hi
    return x


def smoothed_sign(x: float, eps: float) -> float:
    """Sign of x, optionally linearized on |x| < eps to curb chattering."""
    if eps > 0.0:
        return sat(x / eps, -1.0, 1.0)
    return 0.0 if x == 0.0 else math.copysign(1.0, x)


@dataclass(frozen=True)
class ControlCommand:
    """Forward/angular speed pair plus the region the law was chosen for."""

    v: float
    omega: float
    region: Region
    resetvalue_applied: bool = False


class ChiFunction:
    """Speed-assignment function mapping the spacing zeta to an along-path speed."""

    def __call__(self, zeta: float) -> float:
        raise NotImplementedError


class CoordinationChi(ChiFunction):
    """Piecewise-linear speed assignment for a positive desired spacing.

    Flat at the slow reference below spacing - chi_delta1, reaches the
    blend of slow/fast references at the desired spacing, and continues
    with doubled slope beyond spacing + chi_delta1.  Continuous,
    non-decreasing, strictly increasing around the desired spacing.
    """

    def __init__(self, params: CoordParams):
        if params.spacing <= 0.0:
            raise ValueError("coordination chi needs a positive desired spacing")
        if not 0.0 < params.chi_delta2 <= params.chi_delta1 < params.spacing:
            raise ValueError("need 0 < chi_delta2 <= chi_delta1 < spacing")
        self.spacing = params.spacing
        self.delta1 = params.chi_delta1
        self.floor = params.v_min_ref
        at_spacing = (params.chi_blend * params.v_min_ref
                      + (1.0 - params.chi_blend) * params.v_fast_ref)
        self.slope = (at_spacing - self.floor) / self.delta1

    def __call__(self, zeta):
        lo = self.spacing - self.delta1
        hi = self.spacing + self.delta1
        if zeta < lo:
            return self.floor
        if zeta <= hi:
            return self.floor + self.slope * (zeta - lo)
        return self.floor + 2.0 * self.slope * (zeta - self.spacing)


class LinearChi(ChiFunction):
    """Affine speed assignment, used for in-line formations (zero spacing)."""

    def __init__(self, params: CoordParams, slope: float):
        if slope <= 0.0:
            raise ValueError("slope must be positive")
        self.floor = params.v_min_ref
        self.slope = slope

    def __call__(self, zeta):
        return self.floor + self.slope * zeta


def build_chi(params: CoordParams, kind: str = "coordination",
              slope: float | None = None) -> ChiFunction:
    if kind == "coordination":
        return CoordinationChi(params)
    if kind == "linear":
        return LinearChi(params, 0.475 if slope is None else slope)
    raise ValueError(f"unknown chi kind {kind!r}")


# -- coordinated law ---------------------------------------------------------


def coord_control(err: PathError, zeta: float, params: CoordParams,
                  chi: ChiFunction) -> ControlCommand:
    """Coordinated law inside the coordination set.

    Forward speed tracks chi(zeta) along the path; angular speed combines
    curvature feedforward with switching-surface feedback; the reset step
    may then lower the forward speed to restore a margin inequality.
    """
    region = classify(err, params)
    if not region.in_s1:
        raise WrongRegion(f"coordinated law called in {region.value}")
    return _coord_law(err, zeta, params, chi, region)


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


def reset_value(cmd: ControlCommand, err: PathError, params: CoordParams) -> float:
    """Forward-speed reset of the coordinated law.

    Each coordination subset carries one margin inequality; when the
    provisional command violates it, the speed is recomputed to hold the
    inequality with equality.  A recomputed speed is adopted only when it
    is admissible, and for the four boundary subsets only when it lowers
    the speed (a raise there can only come from the smoothed switching
    term near the surface, where the inequality is not load-bearing).
    """
    return _reset(cmd.v, cmd.omega, cmd.region, err, params)


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


# -- near-time-optimal outer laws --------------------------------------------


def near_optimal_control_s24(err: PathError, params: CoordParams) -> ControlCommand:
    """Greedy descent toward the set from the lower-right outer box.

    Full speed with maximal right turn until the heading nears the box
    floor, then the constrained minimizer that keeps the heading error
    from drifting below it.
    """
    region = classify(err, params)
    if region is not Region.S2_4:
        raise WrongRegion(f"S2_4 law called in {region.value}")
    return _s24_law(err, params)


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


def near_optimal_control_s22(err: PathError, params: CoordParams) -> ControlCommand:
    """Mirror of the S2_4 law under (rho, psi, omega, kappa) -> negation."""
    region = classify(err, params)
    if region is not Region.S2_2:
        raise WrongRegion(f"S2_2 law called in {region.value}")
    return _s22_law(err, params)


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


def robust_control_s21_s23(err: PathError, params: CoordParams) -> ControlCommand:
    """Constant laws minimizing the heading-to-lateral drift ratio."""
    region = classify(err, params)
    if region is not Region.S2_1 and region is not Region.S2_3:
        raise WrongRegion(f"robust law called in {region.value}")
    return _robust_law(params, region)


def _robust_law(params, region):
    if region is Region.S2_1:
        return ControlCommand(params.v_min, -params.omega_max, region)
    return ControlCommand(params.v_min, params.omega_max, region)


def hybrid_supervisor(err: PathError, zeta: float, params: CoordParams,
                      chi: ChiFunction) -> ControlCommand:
    """Dispatch to the unique law owning the error's region.

    Classifies once and hands the region to the law bodies; the public
    per-region laws classify again only to guard direct callers.
    """
    region = classify(err, params)
    if region is Region.OUTSIDE:
        raise OutsideUniverse(
            f"|rho|={abs(err.rho):.3f} exceeds rho_universe={params.rho_universe:.3f}")
    if region.in_s1:
        return _coord_law(err, zeta, params, chi, region)
    if region is Region.S2_4:
        return _s24_law(err, params)
    if region is Region.S2_2:
        return _s22_law(err, params)
    return _robust_law(params, region)


# -- comparison systems for the robust outer subsets --------------------------


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


def comparison_admissible(err0: PathError, params: CoordParams, which: str) -> bool:
    """Whether the comparison trajectory certifies containment in the universe."""
    crossing = comparison_system_trajectory(err0, params, which)
    if crossing is None:
        return False
    return crossing <= params.rho_universe if which == "S21" else crossing >= -params.rho_universe
