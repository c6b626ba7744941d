"""Coordination-set parameter design.

Picks the set half-widths (psi_max, rho_max) and the design speed v_coord by
maximizing the product psi_max * rho_max subject to the admissibility
inequalities that make the set invariant (turn-rate budget) and overtaking-
free (speed budget).  Deterministic grid search with local refinement,
each block of psi_max rows evaluated only on its band of rho_max columns
where a point can be feasible (``_best_on_grid``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import Infeasible

# Grid points per _best_on_grid pass; bounds the temporaries (128 KB each).
_GRID_BLOCK = 16384


@dataclass(frozen=True)
class SpeedLimits:
    """Actuation limits shared by all UAVs plus the path curvature bound."""

    v_min: float
    v_max: float
    omega_max: float
    kappa_bound: float

    def validate(self) -> None:
        if not (0.0 < self.v_min <= self.v_max):
            raise ValueError("need 0 < v_min <= v_max")
        if self.omega_max <= 0.0:
            raise ValueError("omega_max must be positive")
        if self.kappa_bound <= 0.0:
            raise ValueError("kappa_bound must be positive")


# The three design inequalities, each as its bound on v_coord: the grid
# search, the designed v_coord and ``CoordParams.constraint_slacks`` all read
# these, so a design meets its own validation exactly.  Arrays ok.

def _speed_num(r1, limits: SpeedLimits, speed_margin):
    """Speed budget: v_coord >= _speed_num / cos(psi_max)."""
    k0 = limits.kappa_bound
    return (1.0 + k0 * r1) * (limits.v_min / (1.0 - k0 * r1) + speed_margin)


def _side_bound(r1, limits: SpeedLimits, alpha):
    """Side turn budget: v_coord <= _side_bound."""
    k0 = limits.kappa_bound
    return (limits.omega_max - alpha) * (1.0 - k0 * r1) / k0


def _corner_bound(a, r1, limits: SpeedLimits, alpha):
    """Corner turn budget: v_coord <= _corner_bound.

    ``q * q`` is how numpy squares an array; Python's ``float ** 2`` can round
    one ulp away from it, and a float ``q`` must give the array's bound.
    """
    q = a / r1
    return (limits.omega_max - alpha) / np.sqrt(q * q + limits.kappa_bound ** 2)


@dataclass(frozen=True)
class CoordParams:
    """Designed set parameters, control gains and margins.

    psi_max / rho_max bound the coordination set; rho_universe bounds the
    supervised universe.  v_coord is the design speed the in-set law may
    fall back to; alpha is the inward margin of the boundary inequalities;
    speed_margin separates the slow and fast along-path speed references.
    chi_* shape the speed-assignment function; sign_eps > 0 smooths the
    switching term (0 selects the pure sign, used by the invariant suites).
    """

    psi_max: float
    rho_max: float
    v_coord: float
    rho_universe: float
    v_min: float
    v_max: float
    omega_max: float
    kappa_bound: float
    alpha: float = 0.01
    speed_margin: float = 1.0
    k1: float = 1.0
    k2: float = 0.0
    k3: float = 1.0
    eps_switch: float = 0.05
    chi_blend: float = 0.05
    chi_delta1: float = 6.0
    spacing: float = 0.0
    sign_eps: float = 1.0e-3

    @property
    def r0(self) -> float:
        return 1.0 / self.kappa_bound

    @property
    def v_min_ref(self) -> float:
        """Slow along-path speed reference v_min / (1 - kappa_bound*rho_max)."""
        return self.v_min / (1.0 - self.kappa_bound * self.rho_max)

    @property
    def v_fast_ref(self) -> float:
        """Fast along-path speed reference cos(psi_max)*v_coord/(1 + kappa_bound*rho_max)."""
        return math.cos(self.psi_max) * self.v_coord / (1.0 + self.kappa_bound * self.rho_max)

    def limits(self) -> SpeedLimits:
        return SpeedLimits(self.v_min, self.v_max, self.omega_max, self.kappa_bound)

    def constraint_slacks(self) -> dict[str, float]:
        """Margin (m/s, >= 0 means satisfied) of v_coord on each design inequality's bound."""
        lim, a, r1, v = self.limits(), self.psi_max, self.rho_max, self.v_coord
        return {
            "turn_budget_corner": float(_corner_bound(a, r1, lim, self.alpha)) - v,
            "turn_budget_side": _side_bound(r1, lim, self.alpha) - v,
            "speed_budget": v - _speed_num(r1, lim, self.speed_margin) / math.cos(a),
        }

    def validate_basic(self) -> None:
        """Structural sanity only; admissibility inequalities not enforced."""
        self.limits().validate()
        if not 0.0 < self.psi_max < math.pi / 2.0:
            raise ValueError("need 0 < psi_max < pi/2")
        if not 0.0 < self.rho_max < self.r0:
            raise ValueError("need 0 < rho_max < 1/kappa_bound")
        if not self.v_min < self.v_coord <= self.v_max:
            raise ValueError("need v_min < v_coord <= v_max")
        if not self.rho_max <= self.rho_universe < self.r0:   # where 1 - kappa*rho > 0
            raise ValueError("need rho_max <= rho_universe < 1/kappa_bound")
        if self.k1 <= 0.0 or self.k2 < 1.0 or self.k3 < 1.0:
            raise ValueError("need k1 > 0 and k2, k3 >= 1")
        if not self.psi_max <= self.rho_max * self.k1 < self.psi_max * self.k2:
            raise ValueError("gains must satisfy psi_max <= rho_max*k1 < psi_max*k2")
        if not 0.0 < self.alpha < self.omega_max:   # else the turn budgets go negative
            raise ValueError("need 0 < alpha < omega_max")
        if self.speed_margin <= 0.0:
            raise ValueError("speed_margin must be positive")
        if not 0.0 < self.chi_blend < 1.0:
            raise ValueError("chi_blend must lie in (0, 1)")
        if self.sign_eps < 0.0:
            raise ValueError("sign_eps must be >= 0")
        if self.spacing < 0.0:
            raise ValueError("spacing must be >= 0")
        if self.spacing > 0.0 and not 0.0 < self.chi_delta1 < self.spacing:
            raise ValueError("need 0 < chi_delta1 < spacing")

    def validate(self) -> None:
        """Full re-check of every design invariant."""
        self.validate_basic()
        slacks = self.constraint_slacks()
        for name, slack in slacks.items():
            if slack < 0.0:
                raise ValueError(f"design inequality violated: {name} (slack {slack:g} m/s)")
        if not self.rho_universe < self.r0 - self.v_min / self.omega_max:
            raise ValueError("rho_universe must stay below 1/kappa_bound - v_min/omega_max")


def _best_on_grid(a_grid, r1_grid, limits, speed_margin, alpha):
    """Feasible point maximizing a*r1 on a rectangular grid, or None.

    Rows of ``a_grid`` (in (0, pi/2), where cos is positive) are evaluated
    as many at a time as fit in ``_GRID_BLOCK`` points (at least one), and
    each block only on its band: the columns from the first to the last
    where ``num / max(cos a) <= cap``.  Outside it every point of the block
    is infeasible: ``hi <= cap`` exactly, and division rounds monotonically,
    so ``lo = num / cos a >= num / max(cos a) > cap`` for ``num >= 0``, and
    ``hi <= cap < 0 < v_min`` otherwise; a NaN ``num`` or ``cap`` fails the
    band test and the feasibility test alike.  Each row's first maximum over
    its feasible points (infeasible ones count as -inf), visited in row
    order, gives the floats and the tie-break of a pass per row.
    """
    r1_list = r1_grid.tolist()
    num = _speed_num(r1_grid, limits, speed_margin)
    cap = np.minimum(limits.v_max, _side_bound(r1_grid, limits, alpha))
    rows = max(1, _GRID_BLOCK // len(r1_list))
    best = None
    for start in range(0, len(a_grid), rows):
        a = a_grid[start:start + rows, None]
        cos_a = np.cos(a)
        band = np.flatnonzero(num / cos_a.max() <= cap)
        if not band.size:
            continue
        j0, j1 = int(band[0]), int(band[-1]) + 1
        r1 = r1_grid[j0:j1]
        lo = num[j0:j1] / cos_a
        hi = np.minimum(cap[j0:j1], _corner_bound(a, r1, limits, alpha))
        prod = np.where((hi >= lo) & (hi > limits.v_min), a * r1, -np.inf)
        row_max = prod.max(axis=1).tolist()
        for p, a_row, jj in zip(row_max, a[:, 0].tolist(), prod.argmax(axis=1).tolist()):
            if p == -math.inf:
                continue
            cand = (p, a_row, r1_list[j0 + jj])
            if best is None or cand > best:
                best = cand
    return best


def derived_defaults(limits: SpeedLimits, psi_max: float, rho_max: float) -> dict[str, float]:
    """rho_universe at 90% of its admissible bound, and the gain k2 = rho_max/psi_max + 1."""
    r0 = 1.0 / limits.kappa_bound
    return {"rho_universe": 0.9 * (r0 - limits.v_min / limits.omega_max),
            "k2": rho_max / psi_max + 1.0}


def design_coordination_set(limits: SpeedLimits, speed_margin: float = 1.0,
                            alpha: float = 0.01, *, spacing: float = 0.0) -> CoordParams:
    """Choose (psi_max, rho_max, v_coord) maximizing the set area proxy.

    Exhaustive coarse grid over the two half-widths with the speed window
    solved analytically, then three zoom rounds around the winner.  v_coord
    is the largest feasible value, min(v_max, side, corner) of the turn-budget
    bounds (it loosens the speed budget and speeds up coordination); the grid
    and ``validate`` read the same bounds, so the design meets them exactly.
    Deterministic; ties break lexicographically.

    The other fields take their defaults: gains k1=1, k3=1, ``derived_defaults``
    and the ``CoordParams`` defaults; ``dataclasses.replace`` sets them otherwise.
    """
    limits.validate()
    if speed_margin <= 0.0:
        raise ValueError("speed_margin must be positive")
    if not 0.0 < alpha < limits.omega_max:   # else the turn budget leaves no speed
        raise ValueError("need 0 < alpha < omega_max")
    if limits.kappa_bound > limits.omega_max / limits.v_max:
        raise Infeasible("feasibility precondition fails: curvature bound exceeds omega_max/v_max")
    if limits.v_min + speed_margin > limits.v_max:
        raise Infeasible("feasibility precondition fails: v_min + speed_margin exceeds v_max")

    r0 = 1.0 / limits.kappa_bound
    a_lo, a_hi = 1.0e-4, math.pi / 2.0 - 1.0e-6
    r_lo, r_hi = 1.0e-3, r0 * (1.0 - 1.0e-6)
    best = _best_on_grid(np.linspace(a_lo, a_hi, 400),
                         np.linspace(r_lo, r_hi, 1200),
                         limits, speed_margin, alpha)
    if best is None:
        raise Infeasible("no feasible point on the design grid")
    for _ in range(3):
        _, a_c, r_c = best
        da = (a_hi - a_lo) / 400 * 3.0
        dr = (r_hi - r_lo) / 1200 * 3.0
        a_grid = np.linspace(max(a_lo, a_c - da), min(a_hi, a_c + da), 121)
        r_grid = np.linspace(max(r_lo, r_c - dr), min(r_hi, r_c + dr), 121)
        refined = _best_on_grid(a_grid, r_grid, limits, speed_margin, alpha)
        if refined is not None and refined > best:
            best = refined
        a_lo, a_hi = max(a_lo, a_c - da), min(a_hi, a_c + da)
        r_lo, r_hi = max(r_lo, r_c - dr), min(r_hi, r_c + dr)

    _, a, r1 = best
    v_coord = min(limits.v_max, _side_bound(r1, limits, alpha),
                  float(_corner_bound(a, r1, limits, alpha)))
    params = CoordParams(
        psi_max=a, rho_max=r1, v_coord=v_coord,
        v_min=limits.v_min, v_max=limits.v_max,
        omega_max=limits.omega_max, kappa_bound=limits.kappa_bound,
        alpha=alpha, speed_margin=speed_margin,
        k1=1.0, k3=1.0, spacing=spacing, **derived_defaults(limits, a, r1),
    )
    params.validate()
    return params


def coordination_rate_bound(params: CoordParams) -> float:
    """Upper bound on the spacing-error decay rate |zeta_dot| (m/s)."""
    return (1.0 - params.chi_blend) * (params.v_fast_ref - params.v_min_ref)
