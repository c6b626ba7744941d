"""Randomized verification suites for the closed-loop guarantees.

Each suite checks one provable property of the hybrid law on randomized
states or runs and reports counts plus the first counterexample.  The
invariant suites evaluate the laws with the pure sign term (sign_eps = 0);
the run-based suites use the scenario's configured law.

Starts are drawn from the suite's seeded generator in the order of
one-at-a-time draws (an array draw gives the same values); the states and
runs then advance together as lanes of the batched law of the one level
each suite tests (``batch_classify``, then ``batch_coord_law`` in the
coordination set or ``batch_outer_law`` outside it, and
``batch_error_step``), which equal the scalar law and RK4 lane by lane.
A lane outside the suite's level fails its run or leaves the batch
before the law runs.  ``no_overtaking`` also batches
its pre-neighbor relation and overtake detection across runs
(``batch_relation``, ``batch_overtake_counts``), which give the
``(pre, zeta, gap)`` records and event counts of the simulator's
``update_pre_neighbors`` and ``detect_overtaking`` run by run.  A run's
clock is shared by all lanes and accumulated as ``t += _DT``, and the first
counterexample is that of the lowest-index failing state or run.  Each
suite's law uses the speed assignment the parameters call for,
``build_chi(params)``: piecewise for a positive spacing, linear for zero.

``escape_demo`` steps the same error RK4 on a grid of escape-set states
under a grid of constant controls; it passes only if every pair leaves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .control_laws import (batch_coord_law, batch_outer_law, batch_sat, build_chi,
                           comparison_admissible, outside_universe)
from .coordination import batch_overtake_counts, batch_relation
from .error_frame import (N_S1, REGIONS, PathError, Region, batch_classify, batch_error_rates,
                          batch_error_step, classify)
from .param_design import CoordParams

# Largest number of states whose draws or commands are evaluated at once.
_BLOCK = 2048
_DRIVE_TOL = 1.0e-9       # switch_drive: rounding allowance on each inequality
_BOUND_MARGIN = 0.10      # reach_box, reach_robust: relative margin on the analytic time bound
_PSI_MIN_SAMPLE = 0.05    # reach_box: smallest start |psi|; keeps the entry-time bound finite
_SETTLE_HORIZON = 600.0   # reach_robust: time (s) a start has to reach the coordination set
_N_UAVS = 5               # no_overtaking: UAVs per run
_DT = 0.01                # invariance, reach_box, reach_robust, no_overtaking: step (s)

SUITE_NAMES = ("invariance", "reset_bound", "no_overtaking", "reach_box",
               "reach_robust", "switch_drive")


@dataclass
class SuiteResult:
    name: str
    passed: bool
    checked: int
    failures: int
    first_counterexample: str | None = None
    info: dict = field(default_factory=dict)

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = f"{self.name:<14} {status}  checked={self.checked} failures={self.failures}"
        if self.first_counterexample:
            line += f"\n    first counterexample: {self.first_counterexample}"
        return line


def sample_s1(rng: np.random.Generator, params: CoordParams,
              n: int) -> tuple[np.ndarray, np.ndarray]:
    """n uniform samples of the coordination set as two arrays (rho, psi).

    Rejection in the set's bounding box by ``batch_classify``.  Draws (rho,
    psi) per attempt in the order of a one-at-a-time rejection loop.  Each
    attempt yields at most one sample, so a round of at most n - found
    attempts never draws past the attempt that completes the n samples.
    Rounds hold at most ``_BLOCK`` attempts.
    """
    a, r1 = params.psi_max, params.rho_max
    rhos, psis, found = [np.empty(0)], [np.empty(0)], 0
    while found < n:
        m = min(n - found, _BLOCK)
        rho, psi = rng.uniform(np.tile([-r1, -a], m), np.tile([r1, a], m)).reshape(m, 2).T
        ok = batch_classify(rho, psi, params) < N_S1
        rhos.append(rho[ok])
        psis.append(psi[ok])
        found += len(rhos[-1])
    return np.concatenate(rhos), np.concatenate(psis)


def _first(messages: dict[int, str]) -> str | None:
    """The message of the lowest-index failing lane."""
    return messages[min(messages)] if messages else None


def suite_invariance(params: CoordParams, n_runs: int = 200, duration: float = 200.0,
                     seed: int = 0) -> SuiteResult:
    """Coordination-set forward invariance under the coordinated law.

    Runs the closed-loop error dynamics from random in-set states with a
    per-run constant curvature inside the bound.  A run fails, and leaves
    the batch, at the first step that ``batch_classify`` puts outside the
    coordination set; that classification is the next step's region.  The
    spacing error is the desired one, or for L = 0 (the linear chi) a
    per-run constant drawn after the curvatures from [0, z), where
    chi(z) = v_max.
    """
    rng = np.random.default_rng(seed)
    chi = build_chi(params)
    a, r1 = params.psi_max, params.rho_max
    n_steps = int(duration / _DT)
    rho0, psi0 = sample_s1(rng, params, n_runs)
    kappas = rng.uniform(-0.99 * params.kappa_bound, 0.99 * params.kappa_bound, n_runs)
    # the linear chi (L = 0) is checked over its range, not at its floor alone
    chi_z = (chi.many(rng.uniform(0.0, _zeta_top(params, chi), n_runs))
             if params.spacing == 0.0 else chi(params.spacing))
    lanes = np.arange(n_runs)
    rho, psi, kappa = rho0, psi0, kappas
    code = batch_classify(rho, psi, params)
    failed = {}
    for k in range(n_steps):
        if not lanes.size:
            break
        v, omega = batch_coord_law(rho, psi, kappa, chi_z, params, code)
        rho, psi = batch_error_step(rho, psi, v, omega, kappa, _DT)
        code = batch_classify(rho, psi, params)
        dead = code >= N_S1
        if dead.any():
            for j in np.flatnonzero(dead).tolist():
                run, r, p = int(lanes[j]), float(rho[j]), float(psi[j])
                slack = max(abs(r) - r1, abs(p) - a, abs(a * r + r1 * p) - a * r1)
                failed[run] = (f"run {run}: start=({rho0[run]:.4f}, {psi0[run]:.4f}) "
                               f"kappa={kappas[run]:.5f} t={k * _DT:.2f}s "
                               f"state=({r:.6f}, {p:.6f}) slack={slack:.3e}")
            keep = ~dead
            lanes, rho, psi, kappa, code = (x[keep] for x in (lanes, rho, psi, kappa, code))
            if np.ndim(chi_z):
                chi_z = chi_z[keep]
    return SuiteResult("invariance", not failed, n_runs, len(failed), _first(failed))


def _zeta_top(params: CoordParams, chi) -> float:
    """Top of a drawn spacing error: 2 L, or for L = 0 the z where chi(z) = v_max."""
    return 2.0 * params.spacing if params.spacing > 0.0 else (params.v_max - chi(0.0)) / chi.slope


def _coord_states(rng: np.random.Generator, pure: CoordParams, n: int):
    """n in-set states with a curvature and a spacing each, and their commands.

    The curvature and spacing of each state are drawn in turn after all
    states (an array draw gives the values of one-at-a-time draws).  The
    spacing lies in [0, 2 L), or for L = 0 (the linear chi) in [0, z) where
    chi(z) = v_max.  Draws and the law run on blocks of ``_BLOCK`` states,
    which bounds their temporaries.
    Returns the arrays (rho, psi, kappa, zeta, code, v, omega).
    """
    chi = build_chi(pure)
    rho, psi = sample_s1(rng, pure, n)
    lo, hi = [-0.999 * pure.kappa_bound, 0.0], [0.999 * pure.kappa_bound, _zeta_top(pure, chi)]
    kappa, zeta, v, omega = (np.empty(n) for _ in range(4))
    code = np.empty(n, dtype=np.intp)
    for start in range(0, n, _BLOCK):
        b = slice(start, start + _BLOCK)
        m = min(_BLOCK, n - start)
        kappa[b], zeta[b] = rng.uniform(np.tile(lo, m), np.tile(hi, m)).reshape(m, 2).T
        code[b] = batch_classify(rho[b], psi[b], pure)
        v[b], omega[b] = batch_coord_law(rho[b], psi[b], kappa[b], chi.many(zeta[b]), pure,
                                         code[b])
    return rho, psi, kappa, zeta, code, v, omega


def suite_reset_bound(params: CoordParams, n: int = 100_000, seed: int = 0) -> SuiteResult:
    """Reset bound: a changed speed lands in [v_coord, v_before); box always exact."""
    pure = replace(params, sign_eps=0.0)
    rng = np.random.default_rng(seed)
    rho, psi, kappa, zeta, _, v, omega = _coord_states(rng, pure, n)
    v_before = batch_sat((1.0 - kappa * rho) / np.cos(psi) * build_chi(pure).many(zeta),
                         pure.v_min, pure.v_max)
    off_box = ~((pure.v_min <= v) & (v <= pure.v_max) & (np.abs(omega) <= pure.omega_max))
    reset = ~off_box & (v != v_before)
    off_bound = reset & ~((pure.v_coord <= v) & (v < v_before))
    bad = np.flatnonzero(off_box | off_bound)
    first = None
    if bad.size:
        i = int(bad[0])
        if off_box[i]:
            why = f"command outside box: v={float(v[i])!r} omega={float(omega[i])!r}"
        else:
            why = f"reset bound violated: v={float(v[i])!r} v_before={float(v_before[i])!r}"
        first = (f"state {i}: ({rho[i]:.4f}, {psi[i]:.4f}) kappa={kappa[i]:.5f} "
                 f"zeta={zeta[i]:.2f}: {why}")
    return SuiteResult("reset_bound", not bad.size, n, int(bad.size), first,
                       info={"resets_observed": int(reset.sum())})


def suite_switch_drive(params: CoordParams, n: int = 100_000, seed: int = 0) -> SuiteResult:
    """Switching-surface drive and the lateral/heading drift-ratio bound."""
    pure = replace(params, sign_eps=0.0)
    rng = np.random.default_rng(seed)
    a_over_r1 = pure.psi_max / pure.rho_max
    rho, psi, kappa, _, code, v, omega = _coord_states(rng, pure, n)
    rho_dot, psi_dot = batch_error_rates(rho, psi, v, omega, kappa)
    th = pure.k1 * rho + pure.k2 * psi + pure.k3 * np.sin(psi)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = psi_dot / rho_dot
    up = (th > 0.0) & (psi_dot > -pure.alpha + _DRIVE_TOL)
    down = ~up & (th < 0.0) & (psi_dot < pure.alpha - _DRIVE_TOL)
    drift = (~up & ~down
             & ((code == Region.S1_1.code) | (code == Region.S1_3.code))
             & (np.abs(np.sin(psi)) > 1.0e-12) & (ratio > -a_over_r1 + _DRIVE_TOL))
    bad = np.flatnonzero(up | down | drift)
    first = None
    if bad.size:
        i = int(bad[0])
        if up[i]:
            why = f"theta>0 but psi_dot={float(psi_dot[i])!r}"
        elif down[i]:
            why = f"theta<0 but psi_dot={float(psi_dot[i])!r}"
        else:
            why = f"drift ratio {float(ratio[i])!r} > {-a_over_r1!r}"
        first = f"state {i}: ({rho[i]:.4f}, {psi[i]:.4f}) kappa={kappa[i]:.5f}: {why}"
    return SuiteResult("switch_drive", not bad.size, n, int(bad.size), first)


# by region code: whether a start in S2_1/S2_3 has left its robust subset
_LEFT_ROBUST = np.array([r.in_s1 or r in (Region.S2_2, Region.S2_4) for r in REGIONS])


def _run_to_s1(params: CoordParams, rho, psi, kappa, limit):
    """Advance lanes under the outer laws until each is in the coordination set.

    A lane runs while the shared clock (``t += _DT`` from 0) is at most its
    ``limit``.  Per lane, returns lists of: the time it was first seen in
    S1 (None if never), the time it was first seen in S1, S2_2 or S2_4, and
    the lateral error at which it was seen outside the universe (None if
    never; the lane stops there).
    """
    n = rho.size
    entered, left, outside = [None] * n, [None] * n, [None] * n
    lanes = np.arange(n)
    limit = np.broadcast_to(limit, (n,))
    not_left = np.ones(n, dtype=bool)
    t = 0.0
    while True:
        keep = t <= limit
        if not keep.all():
            lanes, rho, psi, kappa, limit, not_left = (
                x[keep] for x in (lanes, rho, psi, kappa, limit, not_left))
        if not lanes.size:
            break
        code = batch_classify(rho, psi, params)
        leaving = not_left & _LEFT_ROBUST[code]
        if leaving.any():
            for lane in lanes[leaving].tolist():
                left[lane] = t
            not_left &= ~leaving
        done = (code < N_S1) | (code == Region.OUTSIDE.code)
        if done.any():
            for j in np.flatnonzero(done).tolist():
                if code[j] < N_S1:
                    entered[int(lanes[j])] = t
                else:
                    outside[int(lanes[j])] = float(rho[j])
            keep = ~done
            lanes, rho, psi, kappa, limit, not_left, code = (
                x[keep] for x in (lanes, rho, psi, kappa, limit, not_left, code))
            if not lanes.size:
                break
        v, omega = batch_outer_law(rho, psi, kappa, params, code)
        rho, psi = batch_error_step(rho, psi, v, omega, kappa, _DT)
        t += _DT
    return entered, left, outside


def suite_reach_box(params: CoordParams, n_per_class: int = 200, seed: int = 0) -> SuiteResult:
    """Entry into the coordination set from the outer box subsets.

    Start headings are kept away from zero so the analytic entry-time bound
    (lateral gap over the worst-case closing speed) stays finite.  A start
    that leaves the universe raises ``OutsideUniverse``.
    """
    rng = np.random.default_rng(seed)
    a, r1, r2 = params.psi_max, params.rho_max, params.rho_universe
    starts = []
    for label, sign in (("S2_4", -1.0), ("S2_2", 1.0)):
        for run in range(n_per_class):
            rho0 = rng.uniform(r1 + 1.0e-6, r2) * -sign
            psi0 = sign * rng.uniform(_PSI_MIN_SAMPLE, a)
            kappa = rng.uniform(-0.99 * params.kappa_bound, 0.99 * params.kappa_bound)
            bound = (-sign * r1 - rho0) / (params.v_min * math.sin(psi0))
            starts.append((label, run, rho0, psi0, kappa, bound, bound * (1.0 + _BOUND_MARGIN)))
    rho0s, psi0s, kappas, deadlines = (np.array([st[c] for st in starts], dtype=float)
                                       for c in (2, 3, 4, 6))
    entered, _, outside = _run_to_s1(params, rho0s, psi0s, kappas, deadlines + _DT)
    for rho in outside:
        if rho is not None:
            raise outside_universe(rho, params)
    failed = {}
    for i, (label, run, rho0, psi0, kappa, bound, deadline) in enumerate(starts):
        # entry is only observed at whole steps: the true entry time lies
        # in (entered - _DT, entered]
        if entered[i] is None or entered[i] - _DT > deadline:
            failed[i] = (f"{label} run {run}: start=({rho0:.3f}, {psi0:.4f}) "
                         f"kappa={kappa:.5f} bound={bound:.2f}s entered={entered[i]}")
    return SuiteResult("reach_box", not failed, len(starts), len(failed), _first(failed))


def suite_reach_robust(params: CoordParams, n_per_class: int = 200, seed: int = 0) -> SuiteResult:
    """Exit of the robust outer subsets within the turn-budget time bound.

    Only starts whose worst-case comparison trajectory re-crosses the axis
    inside the universe are admissible.  Each must leave its subset for the
    box subsets or the coordination set within pi/alpha1 (plus
    ``_BOUND_MARGIN``) and reach the coordination set within
    ``_SETTLE_HORIZON``.
    """
    rng = np.random.default_rng(seed)
    r2 = params.rho_universe
    alpha1 = params.omega_max - params.kappa_bound * params.v_min / (
        1.0 - params.kappa_bound * r2)
    phase_bound = math.pi / alpha1 * (1.0 + _BOUND_MARGIN)
    starts = []
    for region in (Region.S2_1, Region.S2_3):
        found = 0
        attempts = 0
        while found < n_per_class and attempts < 200 * n_per_class:
            attempts += 1
            rho0 = rng.uniform(-r2, r2)
            psi0 = rng.uniform(1.0e-4, math.pi - 1.0e-4)
            if region is Region.S2_3:
                psi0 = -psi0
            err0 = PathError(rho0, psi0)
            if classify(err0, params) is not region:
                continue
            if not comparison_admissible(err0, params, region):
                continue
            found += 1
            kappa = rng.uniform(-0.99 * params.kappa_bound, 0.99 * params.kappa_bound)
            starts.append((region.value, rho0, psi0, kappa))
    rho0s, psi0s, kappas = (np.array([st[c] for st in starts], dtype=float)
                            for c in (1, 2, 3))
    entered, left, outside = _run_to_s1(params, rho0s, psi0s, kappas, _SETTLE_HORIZON)
    failed = {}
    for i, (label, rho0, psi0, kappa) in enumerate(starts):
        if outside[i] is not None:
            failed[i] = (f"{label}: start=({rho0:.3f}, {psi0:.4f}) kappa={kappa:.5f}: "
                         f"{outside_universe(outside[i], params)}")
        elif left[i] is None or left[i] > phase_bound or entered[i] is None:
            failed[i] = (f"{label}: start=({rho0:.3f}, {psi0:.4f}) kappa={kappa:.5f} "
                         f"left_subset={left[i]} bound={phase_bound:.2f}s "
                         f"entered_s1={entered[i]}")
    return SuiteResult("reach_robust", not failed, len(starts), len(failed), _first(failed),
                       info={"phase_bound_s": phase_bound})


def suite_no_overtaking(params: CoordParams, path, n_runs: int = 20, duration: float = 100.0,
                        seed: int = 0) -> SuiteResult:
    """Fixed ordering once the whole fleet is inside the coordination set.

    Random in-set errors are planted at distinct arc positions on the path;
    no overtaking event may occur for the rest of the run.  The relation,
    the overtake detection, the law and the error dynamics of all runs'
    UAVs advance as one batch (``batch_relation``, which equals the
    simulator's scalar relation run by run).  The claim's premise is that
    every UAV stays in the set: a run fails, and leaves the batch, at its
    first UAV that ``batch_classify`` puts outside it.

    The arc positions are drawn by rejection until every cyclic gap is over
    1 m; five positions on a path of length L pass with probability
    (1 - 5/L)^4, which is 0 for L <= 5 m.  A path shorter than 10 m, where it
    falls below 1/16, raises ``ValueError`` before the first draw.
    """
    if path.total_length < 10.0:
        raise ValueError(f"no_overtaking needs a path of at least 10 m, "
                         f"got {path.total_length:g} m")
    rng = np.random.default_rng(seed)
    chi = build_chi(params)
    n_steps = int(duration / _DT)
    starts = np.empty((3, n_runs, _N_UAVS))
    for run in range(n_runs):
        while True:
            arc = np.sort(rng.uniform(0.0, path.total_length, _N_UAVS))
            gaps = np.diff(np.concatenate([arc, [arc[0] + path.total_length]]))
            if gaps.min() > 1.0:
                break
        rho, psi = sample_s1(rng, params, _N_UAVS)
        starts[:, run] = arc, 0.6 * rho, 0.6 * psi
    s, rho, psi = starts.reshape(3, -1)
    runs = np.arange(n_runs)            # runs still in the batch, in lane order
    events = np.zeros(n_runs, dtype=int)
    prev = None
    left = {}
    for k in range(n_steps):
        if not runs.size:
            break
        pre, zeta, gap = batch_relation(s.reshape(-1, _N_UAVS), rho.reshape(-1, _N_UAVS),
                                        path, params.spacing)
        if prev is not None:
            events[runs] += batch_overtake_counts(*prev, pre, gap, path)
        zeta = zeta.ravel()
        kappa = path.curvature_many(s)
        code = batch_classify(rho, psi, params)
        out = code >= N_S1
        if out.any():
            # the run fails, and leaves the batch, at its first UAV outside S1
            for j in np.flatnonzero(out).tolist():
                run = int(runs[j // _N_UAVS])
                left.setdefault(run, f"run {run}: UAV {j % _N_UAVS} left the coordination set "
                                     f"at t={k * _DT:.2f}s in {REGIONS[code[j]].value}")
            keep = ~out.reshape(-1, _N_UAVS).any(axis=1)
            runs, pre, gap = runs[keep], pre[keep], gap[keep]
            lane_keep = np.repeat(keep, _N_UAVS)
            s, rho, psi, kappa, code, zeta = (
                x[lane_keep] for x in (s, rho, psi, kappa, code, zeta))
            if not runs.size:
                break
        prev = pre, gap
        v, omega = batch_coord_law(rho, psi, kappa, chi.many(zeta), params, code)
        s_dot = v * np.cos(psi) / (1.0 - kappa * rho)
        rho, psi = batch_error_step(rho, psi, v, omega, kappa, _DT)
        s = path.wrap_s(s + s_dot * _DT)
    failed = {run: f"run {run}: {n} overtaking event(s)"
              for run, n in enumerate(events.tolist()) if n}
    failed.update(left)
    return SuiteResult("no_overtaking", not failed, n_runs, len(failed), _first(failed))


def run_suites(params: CoordParams, path, names: list[str] | None = None,
               seed: int = 0) -> list[SuiteResult]:
    """Run the requested suites (all by default); results ordered by name."""
    wanted = sorted(set(names) if names else SUITE_NAMES)
    unknown = [n for n in wanted if n not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}; "
                         f"available: {', '.join(SUITE_NAMES)}")
    results = []
    for name in wanted:
        args = (params, path) if name == "no_overtaking" else (params,)
        results.append(globals()[f"suite_{name}"](*args, seed=seed))
    return results


def in_escape_set(err: PathError, params: CoordParams, eps0: float) -> bool:
    """Whether phi lies in the escape sliver of the unconstrained design.

    On paths with curvature in (-kappa_bound, 0], no admissible constant
    control can keep such an error inside |rho| <= 1/kappa_bound.
    """
    rho, psi = err.rho, err.psi
    r0 = 1.0 / params.kappa_bound
    if not (0.0 <= rho <= r0 and 0.0 <= psi <= math.pi / 2.0):
        return False
    return params.v_min * (psi - eps0) * math.sin(eps0) / params.omega_max + rho - r0 > 0.0


@dataclass(frozen=True)
class EscapeReport:
    eps0: float
    kappa: float
    n_states: int
    n_controls: int
    n_pairs: int
    exited: int
    exit_fraction: float
    max_exit_time: float | None   # None when no pair exits
    dt: float

    def summary(self) -> str:
        slowest = ("no pair exited" if self.max_exit_time is None
                   else f"slowest {self.max_exit_time:.2f}s")
        return (f"{self.n_states} states x {self.n_controls} controls "
                f"({self.n_pairs} pairs, kappa={self.kappa:g}, eps0={self.eps0:g}): "
                f"{self.exit_fraction:.4f} exited, {slowest}")


def escape_demo(params: CoordParams, eps0: float | None = None,
                state_grid: tuple[int, int] = (20, 20),
                control_grid: tuple[int, int] = (21, 21),
                kappa: float = 0.0, dt: float = 0.01) -> EscapeReport:
    """Brute-force check that the escape sliver admits no safe constant control.

    Grids the escape set (lateral offsets near the uniqueness radius with
    forward heading error) and the full actuation box, integrates the error
    dynamics for every (state, control) pair on a path of constant
    curvature in (-kappa_bound, 0], and reports the fraction of pairs whose
    lateral error exits the uniqueness radius.  Expected: all of them; the
    check passes only if ``exited == n_pairs``.
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
        rho, psi = batch_error_step(rho, psi, v, w, kappa, dt)
        t += dt
        out = alive & (np.abs(rho) > r0)
        exit_time[out] = t

    exited = int(np.isfinite(exit_time).sum())
    return EscapeReport(
        eps0=eps0, kappa=kappa, n_states=n_states, n_controls=n_controls,
        n_pairs=n_states * n_controls, exited=exited,
        exit_fraction=exited / (n_states * n_controls),
        max_exit_time=float(exit_time[np.isfinite(exit_time)].max()) if exited else None,
        dt=dt)
