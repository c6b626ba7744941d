"""Pre-neighbor relations and inter-UAV arc distances.

A UAV's pre-neighbor is the UAV whose path projection lies nearest ahead of
its own, with no other projection in between; the relation only involves
UAVs whose lateral error is inside the projection-uniqueness radius.  The
spacing zeta of a UAV is the forward arc distance to its pre-neighbor's
projection, or the desired spacing when it has none.

Two relations are supported: the projection ordering above (cyclic on a
closed path, a chain on an open one) and, for a scenario that gives
``parents``, a fixed chain for fleets flying translated copies of one path,
where arc positions correspond 1:1.

Both give one record per UAV, ``{uav_id: (pre, zeta, gap)}``: the
pre-neighbor (None for none), zeta, and the signed gap to the pre-neighbor,
wrapped to +-half length on a closed path (None without a pre-neighbor).
These scalar functions are the simulator's relation; ``batch_relation`` and
``batch_overtake_counts`` give the same records and event counts for many
independent fleets at once (runs x UAVs arrays).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import Path

ZERO_CROSS_EPS = 1.0e-6

Relation = dict[int, tuple[int | None, float, float | None]]


@dataclass(frozen=True)
class OvertakeEvent:
    t: float
    uav_id: int
    kind: str  # "pre_neighbor_change" | "zeta_zero_cross"
    detail: str = ""


def update_pre_neighbors(projections: list[tuple[int, float, float]], path: Path,
                         spacing: float) -> Relation:
    """The relation of the current projections (uav_id, s_proj, rho).

    Eligible UAVs (|rho| < uniqueness radius) are ordered by arc position,
    ties broken by ascending id; each one's pre-neighbor is its successor
    in that order (wrapping on closed paths).  The head of an open-path
    chain, and every ineligible UAV, has none.
    """
    r0 = path.r0
    order = sorted((path.wrap_s(s_proj), uav_id)
                   for uav_id, s_proj, rho in projections if abs(rho) < r0)
    ids = [uav_id for _, uav_id in order]
    pre = dict.fromkeys(uav_id for uav_id, _, _ in projections)
    if len(ids) >= 2:
        pre.update(zip(ids, ids[1:] + ids[:1] if path.closed else ids[1:]))
    return compute_zeta(projections, pre, path, spacing)


def chain_coordination(projections: list[tuple[int, float, float]],
                       parents: dict[int, int | None], path: Path,
                       spacing: float) -> Relation:
    """Fixed-chain relation for translated parallel paths.

    ``parents`` maps each UAV to its configured pre-neighbor (None for the
    leader).  The eligibility condition still applies to both ends of each
    edge; arc positions are comparable across paths because the paths are
    translates of each other.
    """
    r0 = path.r0
    near = {uav_id: abs(rho) < r0 for uav_id, _, rho in projections}
    pre = {}
    for uav_id, ok in near.items():
        parent = parents.get(uav_id)
        pre[uav_id] = parent if ok and near.get(parent, False) else None
    return compute_zeta(projections, pre, path, spacing)


def compute_zeta(projections, pre: dict[int, int | None], path: Path,
                 spacing: float) -> Relation:
    """(pre, zeta, gap) per UAV from its pre-neighbor: one arc difference each."""
    s = {uav_id: s_proj for uav_id, s_proj, _ in projections}
    length = path.total_length
    out = {}
    for uav_id, p in pre.items():
        if p is None:
            out[uav_id] = (None, spacing, None)
        elif path.closed:
            d = (s[p] - s[uav_id]) % length
            out[uav_id] = (p, d, d - length if d > 0.5 * length else d)
        else:
            d = s[p] - s[uav_id]
            out[uav_id] = (p, d, d)
    return out


def detect_overtaking(prev: Relation, curr: Relation, path: Path,
                      t: float) -> list[OvertakeEvent]:
    """Events at time t between two consecutive relations on ``path``.

    Fires when a UAV's pre-neighbor changed, and when its signed gap to an
    unchanged pre-neighbor crossed zero (the spacing collapsing to zero
    means it is being overtaken or overtaking).
    """
    events = []
    for uav_id, (pre_now, _, g1) in curr.items():
        if uav_id not in prev:
            continue
        pre_before, _, g0 = prev[uav_id]
        if pre_before != pre_now:
            events.append(OvertakeEvent(
                t, uav_id, "pre_neighbor_change", f"{pre_before} -> {pre_now}"))
        elif pre_now is not None:
            jump_ok = abs(g1 - g0) < 0.25 * path.total_length if path.closed else True
            if jump_ok and ((g0 > ZERO_CROSS_EPS and g1 < -ZERO_CROSS_EPS)
                            or (g0 < -ZERO_CROSS_EPS and g1 > ZERO_CROSS_EPS)):
                events.append(OvertakeEvent(
                    t, uav_id, "zeta_zero_cross", f"{g0:.6f} -> {g1:.6f}"))
    return events


# -- batched relation ---------------------------------------------------------


def batch_relation(s, rho, path: Path, spacing: float):
    """``update_pre_neighbors`` for runs x UAVs arrays.

    Row r holds one fleet; a UAV's id is its column.  Ineligible UAVs sort
    last (key inf) and a stable sort keeps equal arc positions in id order,
    as the scalar tuple sort does.  Returns ``(pre, zeta, gap)`` as the
    scalar relation does, with -1 for no pre-neighbor; ``gap`` is
    meaningful only where ``pre >= 0``.
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
