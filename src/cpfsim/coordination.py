"""Pre-neighbor relations and inter-UAV arc distances.

A UAV's pre-neighbor is the UAV whose path projection lies nearest ahead of
its own, with no other projection in between; the relation only involves
UAVs whose lateral error is inside the projection-uniqueness radius.  The
spacing zeta of a UAV is the forward arc distance to its pre-neighbor's
projection, or the desired spacing when it has none.

Two topologies are supported: the projection ordering above (cyclic on a
closed path, a chain on an open one) and a fixed chain for fleets flying
translated copies of one path, where arc positions correspond 1:1.

The scalar functions are the simulator's relation.  ``batch_relation`` and
``batch_overtake_counts`` compute the projection ordering and its events for
many independent fleets at once (runs x UAVs arrays) and equal the scalar
functions run by run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .paths import Path

ZERO_CROSS_EPS = 1.0e-6


@dataclass(frozen=True)
class OvertakeEvent:
    uav_id: int
    kind: str  # "pre_neighbor_change" | "zeta_zero_cross"
    detail: str = ""


@dataclass
class CoordinationState:
    """Snapshot of the relation: single writer per step, frozen between steps."""

    spacing: float
    path_closed: bool
    path_length: float
    arc_pos: dict[int, float] = field(default_factory=dict)
    rho: dict[int, float] = field(default_factory=dict)
    pre_neighbor: dict[int, int | None] = field(default_factory=dict)


def update_pre_neighbors(projections: list[tuple[int, float, float]], path: Path,
                         spacing: float) -> CoordinationState:
    """Build the relation from current projections (uav_id, s_proj, rho).

    Eligible UAVs (|rho| < uniqueness radius) are ordered by arc position,
    ties broken by ascending id; each one's pre-neighbor is its successor
    in that order (wrapping on closed paths).  The head of an open-path
    chain, and every ineligible UAV, has none.
    """
    state = CoordinationState(spacing, path.closed, path.total_length)
    r0 = path.r0
    eligible = []
    for uav_id, s_proj, rho in projections:
        state.arc_pos[uav_id] = s_proj
        state.rho[uav_id] = rho
        state.pre_neighbor[uav_id] = None
        if abs(rho) < r0:
            eligible.append((path.wrap_s(s_proj), uav_id))
    eligible.sort()
    m = len(eligible)
    if m < 2:
        return state
    for i, (_, uav_id) in enumerate(eligible):
        if path.closed:
            state.pre_neighbor[uav_id] = eligible[(i + 1) % m][1]
        elif i + 1 < m:
            state.pre_neighbor[uav_id] = eligible[i + 1][1]
    return state


def chain_coordination(projections: list[tuple[int, float, float]],
                       parents: dict[int, int | None], path: Path,
                       spacing: float) -> CoordinationState:
    """Fixed-chain relation for translated parallel paths.

    ``parents`` maps each UAV to its configured pre-neighbor (None for the
    leader).  The eligibility condition still applies to both ends of each
    edge; arc positions are comparable across paths because the paths are
    translates of each other.
    """
    state = CoordinationState(spacing, path.closed, path.total_length)
    r0 = path.r0
    for uav_id, s_proj, rho in projections:
        state.arc_pos[uav_id] = s_proj
        state.rho[uav_id] = rho
    for uav_id, _, rho in projections:
        parent = parents.get(uav_id)
        if (parent is not None and parent in state.arc_pos
                and abs(rho) < r0 and abs(state.rho[parent]) < r0):
            state.pre_neighbor[uav_id] = parent
        else:
            state.pre_neighbor[uav_id] = None
    return state


def compute_zeta(state: CoordinationState, uav_id: int) -> float:
    """Forward arc distance to the pre-neighbor, or the desired spacing."""
    pre = state.pre_neighbor.get(uav_id)
    if pre is None:
        return state.spacing
    d = state.arc_pos[pre] - state.arc_pos[uav_id]
    if state.path_closed:
        d %= state.path_length
    return d


def _wrapped_gap(state: CoordinationState, uav_id: int) -> float | None:
    """Signed gap to the pre-neighbor, wrapped to +-half length when closed."""
    pre = state.pre_neighbor.get(uav_id)
    if pre is None or pre not in state.arc_pos or uav_id not in state.arc_pos:
        return None
    d = state.arc_pos[pre] - state.arc_pos[uav_id]
    if state.path_closed:
        c = state.path_length
        d %= c
        if d > 0.5 * c:
            d -= c
    return d


def detect_overtaking(prev: CoordinationState, curr: CoordinationState) -> list[OvertakeEvent]:
    """Events between two consecutive snapshots.

    Fires when a UAV's pre-neighbor changed, and when its signed gap to an
    unchanged pre-neighbor crossed zero (the spacing collapsing to zero
    means it is being overtaken or overtaking).
    """
    events = []
    for uav_id, pre_now in curr.pre_neighbor.items():
        if uav_id not in prev.pre_neighbor:
            continue
        pre_before = prev.pre_neighbor[uav_id]
        if pre_before != pre_now:
            events.append(OvertakeEvent(
                uav_id, "pre_neighbor_change", f"{pre_before} -> {pre_now}"))
            continue
        g0 = _wrapped_gap(prev, uav_id)
        g1 = _wrapped_gap(curr, uav_id)
        if g0 is None or g1 is None:
            continue
        jump_ok = abs(g1 - g0) < 0.25 * curr.path_length if curr.path_closed else True
        if jump_ok and ((g0 > ZERO_CROSS_EPS and g1 < -ZERO_CROSS_EPS)
                        or (g0 < -ZERO_CROSS_EPS and g1 > ZERO_CROSS_EPS)):
            events.append(OvertakeEvent(
                uav_id, "zeta_zero_cross", f"{g0:.6f} -> {g1:.6f}"))
    return events


# -- batched relation ---------------------------------------------------------


def batch_relation(s, rho, path: Path, spacing: float):
    """``update_pre_neighbors`` and ``compute_zeta`` for runs x UAVs arrays.

    Row r holds one fleet; a UAV's id is its column.  Ineligible UAVs sort
    last (key inf) and a stable sort keeps equal arc positions in id order,
    as the scalar tuple sort does.  Returns ``(pre, zeta, gap)``: the
    pre-neighbor's column (-1 for none), the spacing, and the signed gap of
    ``_wrapped_gap`` (meaningful only where ``pre >= 0``).
    """
    runs, n = s.shape
    eligible = np.abs(rho) < path.r0
    order = np.argsort(np.where(eligible, path.wrap_s(s), np.inf), axis=1, kind="stable")
    m = eligible.sum(axis=1, keepdims=True)
    j = np.arange(n)
    row0 = n * np.arange(runs)[:, None]     # flat index of each row's first lane
    # successor in the eligible prefix: a cycle when closed, a chain when open
    has = (j < m) & (m >= 2) if path.closed else j + 1 < m
    succ = order.ravel()[row0 + np.where(j + 1 < m, j + 1, 0)]
    pre = np.empty(s.size, dtype=order.dtype)
    pre[row0 + order] = np.where(has, succ, -1)
    pre = pre.reshape(runs, n)
    d = s.ravel()[row0 + np.maximum(pre, 0)] - s
    if path.closed:
        d %= path.total_length
        gap = np.where(d > 0.5 * path.total_length, d - path.total_length, d)
    else:
        gap = d
    return pre, np.where(pre >= 0, d, spacing), gap


def batch_overtake_counts(prev_pre, prev_gap, pre, gap, path: Path) -> np.ndarray:
    """Per row, the number of ``detect_overtaking`` events between two
    ``batch_relation`` results of the same fleets."""
    changed = prev_pre != pre
    cross = (((prev_gap > ZERO_CROSS_EPS) & (gap < -ZERO_CROSS_EPS))
             | ((prev_gap < -ZERO_CROSS_EPS) & (gap > ZERO_CROSS_EPS)))
    if path.closed:
        cross &= np.abs(gap - prev_gap) < 0.25 * path.total_length
    return (changed | ((pre >= 0) & cross)).sum(axis=1)
