"""Path-following error state and its region classification.

The error of a UAV with respect to its path is phi = (rho, psi): signed
lateral offset to the closest projection and heading relative to the path
tangent there.  The plane of errors is partitioned into a coordination set
(six subsets), four outer subsets, and the exterior; the hybrid supervisor
dispatches on the resulting tag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .paths import Path, wrap_angle


@dataclass(slots=True)
class PathError:
    """(rho, psi) plus the projection arc position and local curvature."""

    rho: float
    psi: float
    s_proj: float = 0.0
    kappa: float = 0.0


class Region(str, Enum):
    """Tags partitioning the error plane; values appear verbatim in traces.

    ``in_s1`` is a plain member attribute, set once per member;
    ``code`` is the member's index in ``REGIONS``, the integer tag of the
    batched kernels.
    """

    S1_1 = "S1_1"
    S1_2 = "S1_2"
    S1_3 = "S1_3"
    S1_4 = "S1_4"
    S1_5 = "S1_5"
    S1_6 = "S1_6"
    S2_1 = "S2_1"
    S2_2 = "S2_2"
    S2_3 = "S2_3"
    S2_4 = "S2_4"
    OUTSIDE = "OutsideS"

    def __init__(self, tag: str):
        self.in_s1 = tag.startswith("S1")


REGIONS = tuple(Region)
for _code, _region in enumerate(REGIONS):
    _region.code = _code
N_S1 = 6  # codes 0..5 are the coordination subsets S1_1..S1_6


def switching_value(rho: float, psi: float, params) -> float:
    """Switching-surface value k1*rho + k2*psi + k3*sin(psi)."""
    return params.k1 * rho + params.k2 * psi + params.k3 * math.sin(psi)


def compute_error(state, path: Path) -> PathError:
    """Path-following error of a UAV state against its path.

    The projection warm-starts from ``state.s_hint``, the state's previous
    projection (None: a global search), and stores itself there for the next
    step.  Uniqueness is only guaranteed for |rho| < path.r0; the warm start
    keeps the projection continuous between steps.
    """
    proj = state.s_hint = path.project((state.x, state.y), state.s_hint)
    psi = wrap_angle(state.theta - proj.tangent_angle)
    return PathError(proj.rho, psi, proj.s, proj.curvature)


def batch_error_rates(rho, psi, v, omega, kappa):
    """Right-hand side (rho_dot, psi_dot) of the error equations, lane by lane
    on arrays; nothing checks for 1 - kappa*rho <= 0."""
    return v * np.sin(psi), omega - kappa * v * np.cos(psi) / (1.0 - kappa * rho)


def batch_error_step(rho, psi, v, omega, kappa, dt: float):
    """One RK4 step of the error dynamics under held (v, omega), constant curvature.

    Lane by lane on arrays (``kappa`` may be a scalar).  The heading error
    is wrapped to [-pi, pi).
    """
    k1r, k1p = batch_error_rates(rho, psi, v, omega, kappa)
    k2r, k2p = batch_error_rates(rho + 0.5 * dt * k1r, psi + 0.5 * dt * k1p, v, omega, kappa)
    k3r, k3p = batch_error_rates(rho + 0.5 * dt * k2r, psi + 0.5 * dt * k2p, v, omega, kappa)
    k4r, k4p = batch_error_rates(rho + dt * k3r, psi + dt * k3p, v, omega, kappa)
    rho = rho + dt / 6.0 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
    psi = psi + dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    return rho, (psi + math.pi) % (2.0 * math.pi) - math.pi


def _s1_subset(rho: float, psi: float, th: float) -> Region:
    """Subset of the coordination set from the signs of rho, psi and theta."""
    if rho > 0.0 and psi >= 0.0 and th > 0.0:
        return Region.S1_1
    if rho <= 0.0 and psi >= 0.0 and th >= 0.0:
        return Region.S1_2
    if rho < 0.0 and psi <= 0.0 and th < 0.0:
        return Region.S1_3
    if rho >= 0.0 and psi <= 0.0 and th <= 0.0:
        return Region.S1_4
    if rho < 0.0 and psi > 0.0 and th < 0.0:
        return Region.S1_5
    return Region.S1_6


def classify(err: PathError, params) -> Region:
    """Unique region tag for an error state.

    Membership is tested in a fixed order so boundary states resolve
    deterministically: the coordination set and its six subsets first (the
    origin lands in S1_2), then the two outer box subsets, then the two
    remaining outer subsets.
    """
    return classify_with_switching(err, params)[0]


def classify_with_switching(err: PathError, params) -> tuple[Region, float | None]:
    """``classify``'s region and, inside the coordination set, the switching
    value that chose its subset (None outside): the coordinated law reads it."""
    rho, psi = err.rho, err.psi
    a, r1, r2 = params.psi_max, params.rho_max, params.rho_universe
    if abs(rho) <= r1 and abs(psi) <= a and abs(a * rho + r1 * psi) <= a * r1:
        th = switching_value(rho, psi, params)
        return _s1_subset(rho, psi, th), th
    if abs(rho) > r2:
        return Region.OUTSIDE, None
    if -r2 <= rho < -r1 and 0.0 < psi <= a:
        return Region.S2_2, None
    if r1 < rho <= r2 and -a <= psi < 0.0:
        return Region.S2_4, None
    if psi > 0.0 or (psi == 0.0 and rho > r1):
        return Region.S2_1, None
    return Region.S2_3, None


def _sign_class(x):
    """0, 1 or 2 for x < 0, x == 0 and x > 0 (NaN counts as negative)."""
    return np.add(x > 0.0, x >= 0.0, dtype=np.intp)


# S1 subset by the signs of (rho, psi, theta), indexed 9*rho + 3*psi + theta
# in _sign_class terms: _s1_subset only compares the three with zero
_S1_BY_SIGNS = np.array([_s1_subset(r, p, t).code for r in (-1.0, 0.0, 1.0)
                         for p in (-1.0, 0.0, 1.0) for t in (-1.0, 0.0, 1.0)])


def batch_classify(rho, psi, params) -> np.ndarray:
    """Region codes (see ``REGIONS``) of arrays of error states.

    The same tests as ``classify``, in the same order, lane by lane.
    """
    a, r1, r2 = params.psi_max, params.rho_max, params.rho_universe
    abs_rho = np.abs(rho)
    in_set = (abs_rho <= r1) & (np.abs(psi) <= a) & (np.abs(a * rho + r1 * psi) <= a * r1)
    if in_set.any():
        th = params.k1 * rho + params.k2 * psi + params.k3 * np.sin(psi)
        s1 = _S1_BY_SIGNS[9 * _sign_class(rho) + 3 * _sign_class(psi) + _sign_class(th)]
        if in_set.all():
            return s1
    # the |rho| <= r2 bounds of S2_2 and S2_4 hold wherever OUTSIDE does not
    outer = np.where(
        abs_rho > r2, Region.OUTSIDE.code, np.where(
            (rho < -r1) & (0.0 < psi) & (psi <= a), Region.S2_2.code, np.where(
                (r1 < rho) & (-a <= psi) & (psi < 0.0), Region.S2_4.code, np.where(
                    (psi > 0.0) | ((psi == 0.0) & (rho > r1)), Region.S2_1.code,
                    Region.S2_3.code))))
    return np.where(in_set, s1, outer) if in_set.any() else outer
