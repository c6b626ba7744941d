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

import numpy as np

from .control_laws import ChiFunction, build_chi, hybrid_supervisor
from .coordination import (OvertakeEvent, Relation, chain_coordination, detect_overtaking,
                           update_pre_neighbors)
from .error_frame import PathError, batch_error_step, compute_error, in_escape_set
from .exceptions import ConfigError, OutsideUniverse
from .param_design import CoordParams
from .paths import Path, wrap_angle

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
    s_hint: float | None = None


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
    chi_slope: float | None = None

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
        for u in self.uavs:
            if not 0 <= u.path_index < len(self.paths):
                raise ConfigError(f"UAV {u.id}: path index {u.path_index} out of range")
            # a UAV spawning after the run ends would be missing from the metrics
            if not 0.0 <= u.spawn_time <= self.duration:
                raise ConfigError(f"UAV {u.id}: spawn_time {u.spawn_time!r} outside "
                                  f"[0, duration={self.duration!r}]")
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

    def chi(self) -> ChiFunction:
        return build_chi(self.params, self.chi_slope)


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
        """Plot-ready long format (t, series, value), decimated."""
        series = (("rho", 5), ("psi", 6), ("v", 8), ("omega", 9), ("zeta", 10))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t,series,value\n")
            step_of = {}
            for r in self.rows:
                k = step_of.setdefault(r[0], len(step_of))
                if k % max(every, 1):
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
        return {
            "duration": self.duration,
            "dt": self.dt,
            "n_steps": self.n_steps,
            "all_in_s1_time": self.all_in_s1_time,
            "overtake_events_before": self.overtake_events_before,
            "overtake_events_after": self.overtake_events_after,
            "per_uav": {str(k): vars(v) for k, v in sorted(self.per_uav.items())},
        }


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
    ref, chi = paths[0], scenario.chi()
    pending = sorted(scenario.uavs, key=lambda u: (u.spawn_time, u.id))
    active: list[UavState] = []
    coord_prev: Relation = {}
    trace = Trace()
    n_steps = int(round(scenario.duration / dt))
    for k in range(n_steps + 1):
        t = k * dt
        while pending and pending[0].spawn_time <= t + 1.0e-12:
            u = pending.pop(0)
            insort(active, UavState(u.id, u.x, u.y, u.theta, u.path_index), key=attrgetter("id"))
        errs = [compute_error(u, paths[u.path_index], u.s_hint) for u in active]
        projections = []
        for u, e in zip(active, errs):
            u.s_hint = e.s_proj
            projections.append((u.id, e.s_proj, e.rho))
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
    return Metrics(duration, dt, int(round(duration / dt)), all_in,
                   before, after, per_uav)


# -- escape-set demonstration -------------------------------------------------


@dataclass(frozen=True)
class EscapeReport:
    eps0: float
    kappa: float
    n_states: int
    n_controls: int
    n_pairs: int
    exited: int
    exit_fraction: float
    max_exit_time: float
    dt: float

    def summary(self) -> str:
        return (f"{self.n_states} states x {self.n_controls} controls "
                f"({self.n_pairs} pairs, kappa={self.kappa:g}, eps0={self.eps0:g}): "
                f"{self.exit_fraction:.4f} exited, slowest {self.max_exit_time:.2f}s")


def escape_demo(params: CoordParams, eps0: float | None = None,
                state_grid: tuple[int, int] = (20, 20),
                control_grid: tuple[int, int] = (21, 21),
                kappa: float = 0.0, dt: float = 0.01) -> EscapeReport:
    """Brute-force check that the escape sliver admits no safe constant control.

    Grids the escape set (lateral offsets near the uniqueness radius with
    forward heading error) and the full actuation box, integrates the error
    dynamics for every (state, control) pair on a path of constant
    curvature in (-kappa_bound, 0], and reports the fraction of pairs whose
    lateral error exits the uniqueness radius.  Expected: all of them.
    """
    if eps0 is None:
        eps0 = params.eps_switch
    if not 0.0 < eps0 < math.pi / 2.0:
        raise ValueError("eps0 must lie in (0, pi/2)")
    if not -params.kappa_bound < kappa <= 0.0:
        raise ValueError("kappa must lie in (-kappa_bound, 0]")
    r0 = 1.0 / params.kappa_bound
    n_psi, n_rho = state_grid
    gain = params.v_min * math.sin(eps0) / params.omega_max

    psis, rhos = [], []
    for j in range(n_psi):
        psi = eps0 + (j + 0.5) / n_psi * (math.pi / 2.0 - eps0)
        rho_lo = max(0.0, r0 - gain * (psi - eps0))
        for i in range(n_rho):
            rho = rho_lo + (i + 0.5) / n_rho * (r0 - rho_lo)
            psis.append(psi)
            rhos.append(rho)
    for rho, psi in zip(rhos, psis):
        if not in_escape_set(PathError(rho, psi), params, eps0):
            raise ValueError(f"grid state (rho={rho!r}, psi={psi!r}) is not in the "
                             f"escape set for eps0={eps0!r}")

    nv, nw = control_grid
    vs = np.linspace(params.v_min, params.v_max, nv)
    ws = np.linspace(-params.omega_max, params.omega_max, nw)
    v_grid, w_grid = [a.ravel() for a in np.meshgrid(vs, ws, indexing="ij")]

    n_states, n_controls = len(rhos), len(v_grid)
    rho = np.repeat(np.asarray(rhos), n_controls)
    psi = np.repeat(np.asarray(psis), n_controls)
    v = np.tile(v_grid, n_states)
    w = np.tile(w_grid, n_states)

    worst = (r0 - min(rhos)) / (params.v_min * math.sin(eps0))
    n_steps = int(math.ceil(2.0 * worst / dt)) + 100
    exit_time = np.full(rho.shape, np.inf)
    t = 0.0
    for _ in range(n_steps):
        alive = np.isinf(exit_time)
        if not alive.any():
            break
        rho, psi = batch_error_step(rho, psi, v, w, kappa, dt, wrap=False)
        t += dt
        out = alive & (np.abs(rho) > r0)
        exit_time[out] = t

    exited = int(np.isfinite(exit_time).sum())
    return EscapeReport(
        eps0=eps0, kappa=kappa, n_states=n_states, n_controls=n_controls,
        n_pairs=n_states * n_controls, exited=exited,
        exit_fraction=exited / (n_states * n_controls),
        max_exit_time=float(exit_time[np.isfinite(exit_time)].max()) if exited else math.nan,
        dt=dt)
