"""Hybrid control laws: coordinated in-set law and single-agent outer laws.

Inside the coordination set the law tracks the speed assignment chi(zeta)
along the path and steers the error onto the switching surface; a
reset step trims the forward speed where the boundary margin inequalities
would otherwise fail.  Outside the set, greedy near-time-optimal laws
(outer box subsets) and constant robust laws (remaining outer subsets)
drive the error back.  All commands respect the actuation box exactly.

The scalar law (``hybrid_supervisor``) and its lane-by-lane form
(``batch_hybrid_law``) read each per-region decision from one table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .error_frame import N_S1, REGIONS, PathError, Region, classify, switching_value
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


def batch_sat(x, lo, hi):
    """sat lane by lane on an array."""
    return np.where(x <= lo, lo, np.where(x >= hi, hi, x))


def _batch_smoothed_sign(x, eps):
    if eps > 0.0:
        return batch_sat(x / eps, -1.0, 1.0)
    return np.where(x == 0.0, 0.0, np.copysign(1.0, x))


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

    def many(self, zeta: np.ndarray) -> np.ndarray:
        """The assignment of each element of an array of spacings."""
        raise NotImplementedError


class CoordinationChi(ChiFunction):
    """Piecewise-linear speed assignment for a positive desired spacing.

    Flat at the slow reference below spacing - chi_delta1, reaches the
    blend of slow/fast references at the desired spacing, and continues
    with doubled slope beyond spacing + chi_delta1.  Continuous,
    non-decreasing, strictly increasing around the desired spacing.
    """

    def __init__(self, params: CoordParams):
        if not 0.0 < params.chi_delta1 < params.spacing:   # so the spacing is positive
            raise ValueError("need 0 < chi_delta1 < spacing")
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

    def many(self, zeta):
        lo = self.spacing - self.delta1
        hi = self.spacing + self.delta1
        return np.where(zeta < lo, self.floor,
                        np.where(zeta <= hi, self.floor + self.slope * (zeta - lo),
                                 self.floor + 2.0 * self.slope * (zeta - self.spacing)))


class LinearChi(ChiFunction):
    """Affine speed assignment, used for in-line formations (zero spacing)."""

    def __init__(self, params: CoordParams, slope: float):
        if slope <= 0.0:
            raise ValueError("slope must be positive")
        self.floor = params.v_min_ref
        self.slope = slope

    def __call__(self, zeta):
        return self.floor + self.slope * zeta

    many = __call__


def build_chi(params: CoordParams, slope: float | None = None) -> ChiFunction:
    """The speed assignment the desired spacing calls for: piecewise for L > 0,
    linear (``slope``, default 0.475) for L = 0."""
    if params.spacing > 0.0:
        return CoordinationChi(params)
    return LinearChi(params, 0.475 if slope is None else slope)


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


def reset_value(cmd: ControlCommand, err: PathError, params: CoordParams) -> float:
    """Forward-speed reset of the coordinated law.

    Each coordination subset carries one margin inequality; when the
    provisional command violates it, the speed is recomputed to hold the
    inequality with equality.  A recomputed speed is adopted only when it
    is admissible, and for the four boundary subsets only when it lowers
    the speed (a raise there can only come from the smoothed switching
    term near the surface, where the inequality is not load-bearing).
    """
    if not cmd.region.in_s1:
        raise WrongRegion(f"reset called in {cmd.region.value}")
    return _reset(cmd.v, cmd.omega, cmd.region, err, params)


# by S1 code: the sign that turns the subset's margin test x > 0 or x < 0
# into sign * x > 0 and its reset's omega +- alpha into omega + sign * alpha
# (both exact), and whether a reset may only lower the speed (else it may
# raise it up to v_max)
_RESET_SIGN = (1.0, 1.0, -1.0, -1.0, -1.0, 1.0)
_LOWER_ONLY = (True, True, True, True, False, False)


def _reset(v, omega, region, err, params):
    rho, psi, kappa = err.rho, err.psi, err.kappa
    a, r1, alpha = params.psi_max, params.rho_max, params.alpha
    sign = _RESET_SIGN[region.code]
    denom = 1.0 - kappa * rho
    kc = kappa * math.cos(psi)
    if region is Region.S1_1 or region is Region.S1_3:
        margin = (v * (a * math.sin(psi) - r1 * kappa * math.cos(psi) / denom)
                  + r1 * omega + sign * r1 * alpha)
        bracket = a * math.sin(psi) - r1 * kc / denom
        if not (sign * margin > 0.0 and bracket != 0.0):
            return v
        cand = -r1 * (omega + sign * alpha) / bracket
    elif sign * (omega - kc * v / denom + sign * alpha) > 0.0 and kc != 0.0:
        cand = denom / kc * (omega + sign * alpha)
    else:
        return v
    below = cand < v if _LOWER_ONLY[region.code] else cand <= params.v_max
    return cand if params.v_min <= cand and below else v


# -- single-agent outer laws ---------------------------------------------------


# by region code: the outer laws' turn direction, and whether the region is
# an outer box subset (near-time-optimal law) rather than a robust subset
_TURN = tuple(-1.0 if r in (Region.S2_1, Region.S2_4) else 1.0 for r in REGIONS)
_BOX = tuple(r in (Region.S2_2, Region.S2_4) for r in REGIONS)


def _outer_law(err, params, region):
    """Single-agent law of an outer subset.

    S2_4 (lower-right outer box): greedy descent toward the set.  Full
    speed with maximal right turn until the heading nears the box floor,
    then the constrained minimizer that keeps the heading error from
    drifting below it.  S2_2 is its mirror under (rho, psi, omega, kappa)
    -> negation.  S2_1 and S2_3: constant laws minimizing the
    heading-to-lateral drift ratio.

    With the turn t = -1 (S2_4) the tests read as S2_4's own, exactly:
    ``t * psi <= psi_max - eps_switch`` is ``psi >= -psi_max + eps_switch``,
    ``om_max + t * feed`` is ``om_max - feed`` and ``feed if t * feed <
    om_max else t * om_max`` is ``max(-om_max, feed)``; t = +1 gives S2_2's.
    """
    om_max = params.omega_max
    turn = _TURN[region.code]
    turn_om = turn * om_max
    if not _BOX[region.code]:
        return ControlCommand(params.v_min, turn_om, region)
    if turn * err.psi <= params.psi_max - params.eps_switch:
        return ControlCommand(params.v_max, turn_om, region)
    denom = 1.0 - err.kappa * err.rho
    feed = err.kappa * params.v_max * math.cos(err.psi) / denom
    turn_feed = turn * feed
    if om_max + turn_feed >= 0.0:
        return ControlCommand(params.v_max, feed if turn_feed < om_max else turn_om, region)
    return ControlCommand(-turn_om * denom / (err.kappa * math.cos(err.psi)), -turn_om, region)


def hybrid_supervisor(err: PathError, zeta: float, params: CoordParams,
                      chi: ChiFunction) -> ControlCommand:
    """Dispatch to the unique law owning the error's region.

    Classifies once and hands the region to the law bodies; the public
    coordinated law classifies again only to guard direct callers.
    """
    region = classify(err, params)
    if region is Region.OUTSIDE:
        raise outside_universe(err.rho, params)
    if region.in_s1:
        return _coord_law(err, zeta, params, chi, region)
    return _outer_law(err, params, region)


def outside_universe(rho: float, params: CoordParams) -> OutsideUniverse:
    """The error hybrid_supervisor raises for a lateral error beyond the universe."""
    return OutsideUniverse(
        f"|rho|={abs(rho):.3f} exceeds rho_universe={params.rho_universe:.3f}")


# -- batched hybrid law -------------------------------------------------------

# the region tables as arrays, indexed by the lanes' codes
_RESET_SIGN_ARR, _LOWER_ONLY_ARR, _TURN_ARR, _BOX_ARR = (
    np.array(table) for table in (_RESET_SIGN, _LOWER_ONLY, _TURN, _BOX))


def batch_hybrid_law(rho, psi, kappa, zeta, params: CoordParams, chi: ChiFunction,
                     code) -> tuple[np.ndarray, np.ndarray]:
    """``hybrid_supervisor`` lane by lane on arrays: (v, omega).

    ``code`` holds the lanes' region codes from ``batch_classify``;
    ``kappa`` and ``zeta`` may be scalars.  Each region's branch runs only
    when some lane is in that region and evaluates the scalar law's float
    expressions in the same order, so every command equals the scalar one.
    Lanes outside the universe get NaN; the caller decides how they fail.
    """
    if np.ndim(kappa) == 0:
        kappa = np.broadcast_to(kappa, rho.shape)
    count = np.bincount(code, minlength=len(REGIONS)).tolist()
    n_s1, n_outer = sum(count[:N_S1]), sum(count[N_S1:Region.OUTSIDE.code])
    with np.errstate(divide="ignore", invalid="ignore"):
        # lanes all in S1 or all in the outer subsets need no mask
        if n_s1 == rho.size:
            chi_z = chi(zeta) if np.ndim(zeta) == 0 else chi.many(zeta)
            return _batch_coord_law(rho, psi, kappa, chi_z, params, code)
        if n_outer == rho.size:
            return _batch_outer_law(rho, psi, kappa, params, code)
        v = np.full(rho.shape, np.nan)
        omega = np.full(rho.shape, np.nan)
        if n_s1:
            m = code < N_S1
            chi_z = chi(zeta) if np.ndim(zeta) == 0 else chi.many(zeta[m])
            v[m], omega[m] = _batch_coord_law(rho[m], psi[m], kappa[m], chi_z, params,
                                              code[m])
        if n_outer:
            m = (code >= N_S1) & (code < Region.OUTSIDE.code)
            v[m], omega[m] = _batch_outer_law(rho[m], psi[m], kappa[m], params, code[m])
    return v, omega


def _batch_coord_law(rho, psi, kappa, chi_z, params, code):
    denom = 1.0 - kappa * rho
    cos_psi = np.cos(psi)
    sin_psi = np.sin(psi)
    v1 = batch_sat(denom / cos_psi * chi_z, params.v_min, params.v_max)
    th = params.k1 * rho + params.k2 * psi + params.k3 * sin_psi
    omega_d = (v1 * (-params.k1 * th / params.k2 + kappa * cos_psi / denom)
               - params.alpha * _batch_smoothed_sign(th, params.sign_eps))
    omega = batch_sat(omega_d, -params.omega_max, params.omega_max)
    return _batch_reset(v1, omega, code, sin_psi, cos_psi, kappa, denom, params), omega


def _batch_reset(v1, omega, code, sin_psi, cos_psi, kappa, denom, params):
    """``_reset`` lane by lane; see ``reset_value`` for the rule."""
    a, r1, alpha = params.psi_max, params.rho_max, params.alpha
    sign = _RESET_SIGN_ARR[code]
    kc = kappa * cos_psi
    quad = (code == Region.S1_1.code) | (code == Region.S1_3.code)
    lower_only = _LOWER_ONLY_ARR[code]

    def admissible(cand):
        return (params.v_min <= cand) & np.where(lower_only, cand < v1, cand <= params.v_max)

    v = v1
    if quad.any():
        margin = (v1 * (a * sin_psi - r1 * kappa * cos_psi / denom) + r1 * omega
                  + sign * r1 * alpha)
        bracket = a * sin_psi - r1 * kc / denom
        cand = -r1 * (omega + sign * alpha) / bracket
        take = quad & (sign * margin > 0.0) & (bracket != 0.0) & admissible(cand)
        v = np.where(take, cand, v)
    if not quad.all():
        shifted = omega - kc * v1 / denom + sign * alpha
        cand = denom / kc * (omega + sign * alpha)
        take = ~quad & (sign * shifted > 0.0) & (kc != 0.0) & admissible(cand)
        v = np.where(take, cand, v)
    return v


def _batch_outer_law(rho, psi, kappa, params, code):
    """``_outer_law`` lane by lane, in one pass over all outer subsets."""
    om_max = params.omega_max
    turn = _TURN_ARR[code]
    box = _BOX_ARR[code]
    turn_om = turn * om_max
    if not box.any():
        return np.full(rho.shape, params.v_min), turn_om
    turning = turn * psi <= params.psi_max - params.eps_switch
    denom = 1.0 - kappa * rho
    cos_psi = np.cos(psi)
    feed = kappa * params.v_max * cos_psi / denom
    turn_feed = turn * feed
    hold = om_max + turn_feed >= 0.0
    held = np.where(turn_feed < om_max, feed, turn_om)
    v = np.where(turning | hold, params.v_max, -turn_om * denom / (kappa * cos_psi))
    omega = np.where(turning, turn_om, np.where(hold, held, -turn_om))
    if not box.all():
        v = np.where(box, v, params.v_min)
        omega = np.where(box, omega, turn_om)
    return v, omega


# -- comparison systems for the robust outer subsets --------------------------


def comparison_system_trajectory(err0: PathError, params: CoordParams,
                                 which: str, dt: float = 0.01) -> float | None:
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
    # heading rate w + kv*cos(psi)/(1 + k0*rho) below the edge, else
    # w - kv*cos(psi)/(1 - k0*rho); k0 * v * cos(psi) is (k0 * v) * cos(psi)
    kv = k0 * v
    if which == "S21":
        w, edge, turn = -om, math.pi / 2.0, -1.0
    else:
        w, edge, turn = om, -math.pi / 2.0, 1.0
    sin, cos = math.sin, math.cos

    def rk4(rho, psi, h):
        hh = 0.5 * h
        k1r = v * sin(psi)
        k1p = (w + kv * cos(psi) / (1.0 + k0 * rho) if psi < edge
               else w - kv * cos(psi) / (1.0 - k0 * rho))
        r, p = rho + hh * k1r, psi + hh * k1p
        k2r = v * sin(p)
        k2p = w + kv * cos(p) / (1.0 + k0 * r) if p < edge else w - kv * cos(p) / (1.0 - k0 * r)
        r, p = rho + hh * k2r, psi + hh * k2p
        k3r = v * sin(p)
        k3p = w + kv * cos(p) / (1.0 + k0 * r) if p < edge else w - kv * cos(p) / (1.0 - k0 * r)
        r, p = rho + h * k3r, psi + h * k3p
        k4r = v * sin(p)
        k4p = w + kv * cos(p) / (1.0 + k0 * r) if p < edge else w - kv * cos(p) / (1.0 - k0 * r)
        h6 = h / 6.0
        return (rho + h6 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r),
                psi + h6 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p))

    # the heading has crossed the axis when turn * psi >= 0
    rho, psi = err0.rho, err0.psi
    if turn * psi >= 0.0:
        return rho
    horizon = 3.0 * math.pi / om
    steps = int(horizon / dt) + 1
    for _ in range(steps):
        rho_n, psi_n = rk4(rho, psi, dt)
        if turn * psi_n >= 0.0:
            # bisect the substep length to land on the axis
            lo, hi = 0.0, dt
            for _ in range(50):
                mid = 0.5 * (lo + hi)
                if turn * rk4(rho, psi, mid)[1] >= 0.0:
                    hi = mid
                else:
                    lo = mid
            return rk4(rho, psi, hi)[0]
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
