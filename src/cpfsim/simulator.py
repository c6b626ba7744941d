"""Deterministic fixed-step closed-loop simulation of the UAV fleet.

Each step evaluates errors, coordination and commands from the frozen
previous-step state, then integrates the unicycle kinematics with RK4 under
zero-order-hold controls.  Identical scenarios produce bit-identical traces.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass, field
from operator import attrgetter

from .control_laws import build_chi, hybrid_supervisor
from .coordination import (OvertakeEvent, Relation, chain_coordination, detect_overtaking,
                           update_pre_neighbors)
from .error_frame import compute_error
from .exceptions import ConfigError, OutsideUniverse
from .param_design import CoordParams
from .paths import Path, Projection, wrap_angle

_SPAWN_TOL = 1.0e-12   # a UAV joins at the first row with t >= spawn_time - _SPAWN_TOL

TRACE_COLUMNS = ("t", "uav", "x", "y", "theta", "rho", "psi", "region",
                 "v", "omega", "zeta", "pre_neighbor", "reset")


@dataclass
class UavState:
    """Configuration of one UAV bound to one path, plus its projection warm start."""

    id: int
    x: float
    y: float
    theta: float
    path_index: int = 0
    s_hint: Projection | None = None   # the previous step's projection


@dataclass(frozen=True)
class UavSpec:
    """Initial state plus the time the UAV joins the fleet."""

    id: int
    x: float
    y: float
    theta: float
    path_index: int = 0
    spawn_time: float = 0.0


@dataclass
class Scenario:
    """Everything a run needs; validated before stepping."""

    params: CoordParams
    paths: list[Path]
    uavs: list[UavSpec]
    duration: float
    dt: float = 0.01
    # the fixed chain (pre-neighbor by id, None for a leader); without it the
    # projection ordering on one path
    parents: dict[int, int | None] = field(default_factory=dict)

    @property
    def n_steps(self) -> int:   # the run's rows are at t = k * dt for k = 0..n_steps
        return int(round(self.duration / self.dt))

    def validate(self) -> None:
        # written so that NaN fails too (the CLI overrides skip the config checks)
        if not 0.0 < self.dt < math.inf:
            raise ConfigError(f"dt must be positive and finite, got {self.dt!r}")
        if not 0.0 <= self.duration < math.inf:
            raise ConfigError(f"duration must be finite and >= 0, got {self.duration!r}")
        if not self.paths:
            raise ConfigError("at least one path required")
        if not self.uavs:
            raise ConfigError("at least one UAV required")
        ids = [u.id for u in self.uavs]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate UAV ids")
        last_t = self.n_steps * self.dt   # the run loop's t at its last row
        for u in self.uavs:
            if not 0 <= u.path_index < len(self.paths):
                raise ConfigError(f"UAV {u.id}: path index {u.path_index} out of range")
            # a UAV spawning after the run ends would be missing from the metrics
            if not 0.0 <= u.spawn_time <= self.duration:
                raise ConfigError(f"UAV {u.id}: spawn_time {u.spawn_time!r} outside "
                                  f"[0, duration={self.duration!r}]")
            if not u.spawn_time <= last_t + _SPAWN_TOL:
                raise ConfigError(f"UAV {u.id}: spawn_time {u.spawn_time!r} after the last "
                                  f"step at t={last_t!r}")
        if not self.parents and len({u.path_index for u in self.uavs}) > 1:
            raise ConfigError("without coordination.parents all UAVs must share one path "
                              "(the cyclic projection ordering)")
        for uav_id, parent in self.parents.items():
            if uav_id not in ids or not (parent is None or parent in ids):
                raise ConfigError(f"coordination.parents: {uav_id}: {parent} names no UAV "
                                  f"of the scenario")
            if parent == uav_id:
                raise ConfigError(f"coordination.parents: UAV {uav_id} is its own parent")
        self.params.validate_basic()


class Trace:
    """Per-step per-UAV rows plus coordination events, CSV-serializable."""

    def __init__(self):
        self.rows: list[tuple] = []
        self.events: list[OvertakeEvent] = []

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(TRACE_COLUMNS) + "\n")
            for r in self.rows:
                pre = "" if r[11] is None else str(r[11])
                fh.write(f"{r[0]!r},{r[1]},{r[2]!r},{r[3]!r},{r[4]!r},{r[5]!r},"
                         f"{r[6]!r},{r[7]},{r[8]!r},{r[9]!r},{r[10]!r},{pre},{r[12]}\n")

    def write_events_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t,uav,kind,detail\n")
            for ev in self.events:
                fh.write(f"{ev.t!r},{ev.uav_id},{ev.kind},{ev.detail}\n")

    def write_long_csv(self, path, every: int = 10) -> None:
        """Plot-ready long format (t, series, value), every ``every``-th step."""
        if every < 1:
            raise ValueError(f"every must be at least 1, got {every!r}")
        series = (("rho", 5), ("psi", 6), ("v", 8), ("omega", 9), ("zeta", 10))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t,series,value\n")
            step_of = {}
            for r in self.rows:
                k = step_of.setdefault(r[0], len(step_of))
                if k % every:
                    continue
                for name, idx in series:
                    fh.write(f"{r[0]!r},{name}[{r[1]}],{r[idx]!r}\n")


@dataclass
class UavMetrics:
    s1_entry_time: float | None
    max_abs_rho_final: float
    max_abs_psi_final: float
    final_zeta_error: float
    final_rho: float
    final_psi: float


@dataclass
class Metrics:
    duration: float
    dt: float
    n_steps: int
    all_in_s1_time: float | None
    overtake_events_before: int
    overtake_events_after: int
    per_uav: dict[int, UavMetrics]

    def to_dict(self) -> dict:
        return {**vars(self),
                "per_uav": {str(k): vars(v) for k, v in sorted(self.per_uav.items())}}


def rk4_unicycle(x: float, y: float, theta: float, v: float, omega: float,
                 dt: float) -> tuple[float, float, float]:
    """One RK4 step of the unicycle kinematics under held (v, omega)."""
    h = 0.5 * dt
    k1x, k1y = v * math.cos(theta), v * math.sin(theta)
    t2 = theta + h * omega
    k2x, k2y = v * math.cos(t2), v * math.sin(t2)
    t4 = theta + dt * omega
    k4x, k4y = v * math.cos(t4), v * math.sin(t4)
    x += dt / 6.0 * (k1x + 4.0 * k2x + k4x)
    y += dt / 6.0 * (k1y + 4.0 * k2y + k4y)
    return x, y, wrap_angle(theta + dt * omega)


def run_scenario(scenario: Scenario) -> tuple[Trace, Metrics]:
    """Run to the configured duration and compute convergence metrics.

    Aborts with OutsideUniverse (time, UAV and pose identified) when any error
    leaves the supervised universe, including at t = 0; that step records no row.
    """
    scenario.validate()
    params, paths, dt = scenario.params, scenario.paths, scenario.dt
    ref, chi = paths[0], build_chi(params)
    pending = sorted(scenario.uavs, key=lambda u: (u.spawn_time, u.id))
    active: list[UavState] = []
    coord_prev: Relation = {}
    trace = Trace()
    n_steps = scenario.n_steps
    for k in range(n_steps + 1):
        t = k * dt
        while pending and pending[0].spawn_time <= t + _SPAWN_TOL:
            u = pending.pop(0)
            insort(active, UavState(u.id, u.x, u.y, u.theta, u.path_index), key=attrgetter("id"))
        errs = [compute_error(u, paths[u.path_index]) for u in active]
        projections = [(u.id, e.s_proj, e.rho) for u, e in zip(active, errs)]
        if scenario.parents:
            coord = chain_coordination(projections, scenario.parents, ref, params.spacing)
        else:
            coord = update_pre_neighbors(projections, ref, params.spacing)
        trace.events += detect_overtaking(coord_prev, coord, ref, t)
        coord_prev = coord
        cmds = []
        for u, e in zip(active, errs):
            try:
                cmds.append(hybrid_supervisor(e, coord[u.id][1], params, chi))
            except OutsideUniverse as exc:
                raise OutsideUniverse(
                    f"t={t:.3f}s UAV {u.id} at ({u.x:.2f}, {u.y:.2f}, "
                    f"{u.theta:.4f}): {exc}") from exc
        for u, e, c in zip(active, errs, cmds):
            pre, zeta, _ = coord[u.id]
            trace.rows.append((t, u.id, u.x, u.y, u.theta, e.rho, e.psi, c.region.value,
                               c.v, c.omega, zeta, pre, 1 if c.resetvalue_applied else 0))
            if k < n_steps:
                u.x, u.y, u.theta = rk4_unicycle(u.x, u.y, u.theta, c.v, c.omega, dt)
    return trace, compute_metrics(trace, scenario)


def compute_metrics(trace: Trace, scenario: Scenario) -> Metrics:
    duration, dt = scenario.duration, scenario.dt
    per_rows: dict[int, list[tuple]] = {}
    for r in trace.rows:
        per_rows.setdefault(r[1], []).append(r)
    per_uav = {}
    entries = []
    final_window = 0.9 * duration
    for uav_id, rows in per_rows.items():
        entry = None
        for r in reversed(rows):
            if r[7].startswith("S1"):
                entry = r[0]
            else:
                break
        tail = [r for r in rows if r[0] >= final_window]
        last = rows[-1]
        per_uav[uav_id] = UavMetrics(
            s1_entry_time=entry,
            max_abs_rho_final=max(abs(r[5]) for r in tail),
            max_abs_psi_final=max(abs(r[6]) for r in tail),
            final_zeta_error=abs(last[10] - scenario.params.spacing),
            final_rho=last[5],
            final_psi=last[6],
        )
        entries.append(entry)
    all_in = None if any(e is None for e in entries) else max(entries)
    before = after = 0
    for ev in trace.events:
        if all_in is not None and ev.t > all_in:
            after += 1
        else:
            before += 1
    return Metrics(duration, dt, scenario.n_steps, all_in,
                   before, after, per_uav)
