"""Randomized verification suites for the closed-loop guarantees.

Each suite checks one provable property of the hybrid law on randomized
states or runs and reports counts plus the first counterexample.  The
invariant suites evaluate the laws with the pure sign term (sign_eps = 0);
the run-based suites use the scenario's configured law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .control_laws import (build_chi, comparison_admissible, coord_control,
                           hybrid_supervisor, sat)
from .coordination import compute_zeta, detect_overtaking, update_pre_neighbors
from .error_frame import PathError, Region, classify, error_dynamics, switching_value
from .exceptions import OutsideUniverse
from .param_design import CoordParams

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


def sample_s1(rng: np.random.Generator, params: CoordParams, n: int) -> list[tuple[float, float]]:
    """Uniform samples of the coordination set (rejection in its bounding box)."""
    a, r1 = params.psi_max, params.rho_max
    out = []
    while len(out) < n:
        rho = rng.uniform(-r1, r1)
        psi = rng.uniform(-a, a)
        if abs(a * rho + r1 * psi) <= a * r1:
            out.append((rho, psi))
    return out


def _error_step(rho, psi, v, omega, kappa, dt):
    """RK4 step of the error dynamics under held (v, omega), constant curvature."""
    def f(r, p):
        return v * math.sin(p), omega - kappa * v * math.cos(p) / (1.0 - kappa * r)

    k1r, k1p = f(rho, psi)
    k2r, k2p = f(rho + 0.5 * dt * k1r, psi + 0.5 * dt * k1p)
    k3r, k3p = f(rho + 0.5 * dt * k2r, psi + 0.5 * dt * k2p)
    k4r, k4p = f(rho + dt * k3r, psi + dt * k3p)
    rho += dt / 6.0 * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
    psi += dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    return rho, (psi + math.pi) % (2.0 * math.pi) - math.pi


def suite_invariance(params: CoordParams, n_runs: int = 200, duration: float = 200.0,
                     dt: float = 0.01, seed: int = 0, one_step_slack: float = 1.0e-4,
                     resident_slack: float = 1.0e-9) -> SuiteResult:
    """Coordination-set forward invariance under the coordinated law.

    Runs the closed-loop error dynamics from random in-set states with a
    per-run constant curvature inside the bound.  A single-step boundary
    graze below ``one_step_slack`` is tolerated (discretized sliding);
    anything larger or longer fails.
    """
    rng = np.random.default_rng(seed)
    chi = build_chi(params)
    a, r1 = params.psi_max, params.rho_max
    n_steps = int(duration / dt)
    failures = 0
    first = None
    for run, (rho0, psi0) in enumerate(sample_s1(rng, params, n_runs)):
        kappa = rng.uniform(-0.99 * params.kappa_bound, 0.99 * params.kappa_bound)
        rho, psi = rho0, psi0
        consecutive = 0
        for k in range(n_steps):
            try:
                cmd = hybrid_supervisor(PathError(rho, psi, 0.0, kappa),
                                        params.spacing, params, chi)
            except OutsideUniverse:
                slack = math.inf
                cmd = None
            if cmd is not None:
                rho, psi = _error_step(rho, psi, cmd.v, cmd.omega, kappa, dt)
                slack = max(abs(rho) - r1, abs(psi) - a,
                            abs(a * rho + r1 * psi) - a * r1)
            if slack > resident_slack:
                consecutive += 1
            else:
                consecutive = 0
            if slack > one_step_slack or consecutive > 1:
                failures += 1
                if first is None:
                    first = (f"run {run}: start=({rho0:.4f}, {psi0:.4f}) kappa={kappa:.5f} "
                             f"t={k * dt:.2f}s state=({rho:.6f}, {psi:.6f}) slack={slack:.3e}")
                break
    return SuiteResult("invariance", failures == 0, n_runs, failures, first)


def suite_reset_bound(params: CoordParams, n: int = 100_000, seed: int = 0) -> SuiteResult:
    """Reset bound: a changed speed lands in [v_coord, v_before); box always exact."""
    pure = replace(params, sign_eps=0.0)
    rng = np.random.default_rng(seed)
    chi = build_chi(pure)
    failures = 0
    first = None
    resets = 0
    states = sample_s1(rng, pure, n)
    for i, (rho, psi) in enumerate(states):
        kappa = rng.uniform(-0.999 * pure.kappa_bound, 0.999 * pure.kappa_bound)
        zeta = rng.uniform(0.0, 2.0 * pure.spacing)
        err = PathError(rho, psi, 0.0, kappa)
        cmd = coord_control(err, zeta, pure, chi)
        denom = 1.0 - kappa * rho
        v_before = sat(denom / math.cos(psi) * chi(zeta), pure.v_min, pure.v_max)
        bad = None
        if not (pure.v_min <= cmd.v <= pure.v_max and abs(cmd.omega) <= pure.omega_max):
            bad = f"command outside box: v={cmd.v!r} omega={cmd.omega!r}"
        elif cmd.resetvalue_applied:
            resets += 1
            if not (pure.v_coord <= cmd.v < v_before):
                bad = f"reset bound violated: v={cmd.v!r} v_before={v_before!r}"
        if bad:
            failures += 1
            if first is None:
                first = f"state {i}: ({rho:.4f}, {psi:.4f}) kappa={kappa:.5f} zeta={zeta:.2f}: {bad}"
    return SuiteResult("reset_bound", failures == 0, n, failures, first,
                       info={"resets_observed": resets})


def suite_switch_drive(params: CoordParams, n: int = 100_000, seed: int = 0,
                  tol: float = 1.0e-9) -> SuiteResult:
    """Switching-surface drive and the lateral/heading drift-ratio bound."""
    pure = replace(params, sign_eps=0.0)
    rng = np.random.default_rng(seed)
    chi = build_chi(pure)
    a_over_r1 = pure.psi_max / pure.rho_max
    failures = 0
    first = None
    for i, (rho, psi) in enumerate(sample_s1(rng, pure, n)):
        kappa = rng.uniform(-0.999 * pure.kappa_bound, 0.999 * pure.kappa_bound)
        err = PathError(rho, psi, 0.0, kappa)
        cmd = coord_control(err, rng.uniform(0.0, 2.0 * pure.spacing), pure, chi)
        rho_dot, psi_dot = error_dynamics(err, cmd)
        th = switching_value(rho, psi, pure)
        bad = None
        if th > 0.0 and psi_dot > -pure.alpha + tol:
            bad = f"theta>0 but psi_dot={psi_dot!r}"
        elif th < 0.0 and psi_dot < pure.alpha - tol:
            bad = f"theta<0 but psi_dot={psi_dot!r}"
        elif cmd.region in (Region.S1_1, Region.S1_3) and abs(math.sin(psi)) > 1.0e-12:
            if psi_dot / rho_dot > -a_over_r1 + tol:
                bad = f"drift ratio {psi_dot / rho_dot!r} > {-a_over_r1!r}"
        if bad:
            failures += 1
            if first is None:
                first = f"state {i}: ({rho:.4f}, {psi:.4f}) kappa={kappa:.5f}: {bad}"
    return SuiteResult("switch_drive", failures == 0, n, failures, first)


def suite_reach_box(params: CoordParams, n_per_class: int = 200, dt: float = 0.01,
                    seed: int = 0, margin: float = 0.10,
                    psi_min_sample: float = 0.05) -> SuiteResult:
    """Entry into the coordination set from the outer box subsets.

    Start headings are kept away from zero so the analytic entry-time bound
    (lateral gap over the worst-case closing speed) stays finite.
    """
    rng = np.random.default_rng(seed)
    chi = build_chi(params)
    a, r1, r2 = params.psi_max, params.rho_max, params.rho_universe
    failures = 0
    first = None
    checked = 0
    for label, sign in (("S2_4", -1.0), ("S2_2", 1.0)):
        for run in range(n_per_class):
            rho0 = rng.uniform(r1 + 1.0e-6, r2) * -sign
            psi0 = sign * rng.uniform(psi_min_sample, a)
            kappa = rng.uniform(-0.99 * params.kappa_bound, 0.99 * params.kappa_bound)
            bound = (-sign * r1 - rho0) / (params.v_min * math.sin(psi0))
            deadline = bound * (1.0 + margin)
            rho, psi = rho0, psi0
            entered = None
            t = 0.0
            while t <= deadline + dt:
                err = PathError(rho, psi, 0.0, kappa)
                if classify(err, params).in_s1:
                    entered = t
                    break
                cmd = hybrid_supervisor(err, params.spacing, params, chi)
                rho, psi = _error_step(rho, psi, cmd.v, cmd.omega, kappa, dt)
                t += dt
            checked += 1
            # entry is only observed at whole steps: the true entry time lies
            # in (entered - dt, entered]
            if entered is None or entered - dt > deadline:
                failures += 1
                if first is None:
                    first = (f"{label} run {run}: start=({rho0:.3f}, {psi0:.4f}) "
                             f"kappa={kappa:.5f} bound={bound:.2f}s entered={entered}")
    return SuiteResult("reach_box", failures == 0, checked, failures, first)


def suite_reach_robust(params: CoordParams, n_per_class: int = 200, dt: float = 0.01,
                       seed: int = 0, margin: float = 0.10,
                       settle_horizon: float = 600.0) -> SuiteResult:
    """Exit of the robust outer subsets within the turn-budget time bound.

    Only starts whose worst-case comparison trajectory re-crosses the axis
    inside the universe are admissible.  Each must leave its subset for the
    box subsets or the coordination set within pi/alpha1 (plus margin) and
    reach the coordination set within the settle horizon.
    """
    rng = np.random.default_rng(seed)
    chi = build_chi(params)
    r2 = params.rho_universe
    alpha1 = params.omega_max - params.kappa_bound * params.v_min / (
        1.0 - params.kappa_bound * r2)
    phase_bound = math.pi / alpha1 * (1.0 + margin)
    failures = 0
    first = None
    checked = 0
    for label, region, which in (("S2_1", Region.S2_1, "S21"), ("S2_3", Region.S2_3, "S23")):
        found = 0
        attempts = 0
        while found < n_per_class and attempts < 200 * n_per_class:
            attempts += 1
            rho0 = rng.uniform(-r2, r2)
            psi0 = rng.uniform(1.0e-4, math.pi - 1.0e-4)
            if which == "S23":
                psi0 = -psi0
            err0 = PathError(rho0, psi0)
            if classify(err0, params) is not region:
                continue
            if not comparison_admissible(err0, params, which):
                continue
            found += 1
            checked += 1
            kappa = rng.uniform(-0.99 * params.kappa_bound, 0.99 * params.kappa_bound)
            rho, psi = rho0, psi0
            t = 0.0
            left_subset = None
            entered_s1 = None
            try:
                while t <= settle_horizon:
                    tag = classify(PathError(rho, psi, 0.0, kappa), params)
                    if left_subset is None and tag in (Region.S1_1, Region.S1_2, Region.S1_3,
                                                       Region.S1_4, Region.S1_5, Region.S1_6,
                                                       Region.S2_2, Region.S2_4):
                        left_subset = t
                    if tag.in_s1:
                        entered_s1 = t
                        break
                    cmd = hybrid_supervisor(PathError(rho, psi, 0.0, kappa),
                                            params.spacing, params, chi)
                    rho, psi = _error_step(rho, psi, cmd.v, cmd.omega, kappa, dt)
                    t += dt
            except OutsideUniverse as exc:
                failures += 1
                if first is None:
                    first = f"{label}: start=({rho0:.3f}, {psi0:.4f}) kappa={kappa:.5f}: {exc}"
                continue
            if left_subset is None or left_subset > phase_bound or entered_s1 is None:
                failures += 1
                if first is None:
                    first = (f"{label}: start=({rho0:.3f}, {psi0:.4f}) kappa={kappa:.5f} "
                             f"left_subset={left_subset} bound={phase_bound:.2f}s "
                             f"entered_s1={entered_s1}")
    return SuiteResult("reach_robust", failures == 0, checked, failures, first,
                       info={"phase_bound_s": phase_bound})


def suite_no_overtaking(params: CoordParams, path, n_runs: int = 20, n_uavs: int = 5,
                        duration: float = 100.0, dt: float = 0.01,
                        seed: int = 0) -> SuiteResult:
    """Fixed ordering once the whole fleet is inside the coordination set.

    Random in-set errors are planted at distinct arc positions on the path;
    no overtaking event may occur for the rest of the run.
    """
    rng = np.random.default_rng(seed)
    chi = build_chi(params)
    failures = 0
    first = None
    n_steps = int(duration / dt)
    for run in range(n_runs):
        while True:
            arc = np.sort(rng.uniform(0.0, path.total_length, n_uavs))
            gaps = np.diff(np.concatenate([arc, [arc[0] + path.total_length]]))
            if gaps.min() > 1.0:
                break
        states = []
        for i in range(n_uavs):
            rho, psi = sample_s1(rng, params, 1)[0]
            states.append([float(arc[i]), 0.6 * rho, 0.6 * psi])
        prev = None
        events = 0
        for _ in range(n_steps):
            projections = [(i, st[0], st[1]) for i, st in enumerate(states)]
            coord = update_pre_neighbors(projections, path, params.spacing)
            if prev is not None:
                events += len(detect_overtaking(prev, coord))
            prev = coord
            for i, st in enumerate(states):
                s, rho, psi = st
                kappa = path.curvature_at(s)
                cmd = hybrid_supervisor(PathError(rho, psi, s, kappa),
                                        compute_zeta(coord, i), params, chi)
                s_dot = cmd.v * math.cos(psi) / (1.0 - kappa * rho)
                st[1], st[2] = _error_step(rho, psi, cmd.v, cmd.omega, kappa, dt)
                st[0] = path.wrap_s(s + s_dot * dt)
        if events:
            failures += 1
            if first is None:
                first = f"run {run}: {events} overtaking event(s)"
    return SuiteResult("no_overtaking", failures == 0, n_runs, failures, first)


def run_suites(params: CoordParams, path, names: list[str] | None = None,
               seed: int = 0, threads: int = 1,
               sizes: dict | None = None) -> list[SuiteResult]:
    """Run the requested suites (all by default); results ordered by name."""
    wanted = sorted(set(names) if names else SUITE_NAMES)
    unknown = [n for n in wanted if n not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}; "
                         f"available: {', '.join(SUITE_NAMES)}")
    sizes = sizes or {}

    def make(name):
        if name == "invariance":
            return lambda: suite_invariance(params, sizes.get("invariance", 200), seed=seed)
        if name == "reset_bound":
            return lambda: suite_reset_bound(params, sizes.get("reset_bound", 100_000), seed=seed)
        if name == "switch_drive":
            return lambda: suite_switch_drive(params, sizes.get("switch_drive", 100_000), seed=seed)
        if name == "reach_box":
            return lambda: suite_reach_box(params, sizes.get("reach_box", 200), seed=seed)
        if name == "reach_robust":
            return lambda: suite_reach_robust(params, sizes.get("reach_robust", 200), seed=seed)
        return lambda: suite_no_overtaking(params, path, sizes.get("no_overtaking", 20), seed=seed)

    jobs = [(name, make(name)) for name in wanted]
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda j: j[1](), jobs))
    else:
        results = [job() for _, job in jobs]
    return sorted(results, key=lambda r: r.name)
