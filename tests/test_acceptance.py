"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure).  Shared expensive runs are session fixtures.
"""

import hashlib
import math
import time

from cpfsim.config import build_scenario
from cpfsim.param_design import design_coordination_set
from cpfsim.simulator import run_scenario
from cpfsim.verification import (escape_demo, suite_invariance, suite_reset_bound,
                                 suite_reach_box, suite_reach_robust, suite_switch_drive)

from conftest import SPACING
from oracles import grid_design_oracle

ENTRY_TIME_REF = 24.67  # seconds; reference all-in time for the circle scenario
# golden trace.csv of the bundled parallel4 scenario (also in perfbench/golden.json)
PARALLEL4_TRACE_SHA256 = "cce53f842885a76761eadc4639940c389af2a76b2f78a8d3ece9eacad8cd51c1"
PARALLEL4_TRACE_BYTES = 15_687_365


def report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_parameter_design(limits):
    a, r1, vm = 0.6303, 122.1297, 25.0
    c, alpha = 1.0, 0.01
    k0, om, v_min, v_max = limits.kappa_bound, limits.omega_max, limits.v_min, limits.v_max
    feasible = (
        math.sqrt((a / r1) ** 2 + k0 ** 2) + alpha / vm <= om / vm
        and k0 / (1.0 - k0 * r1) + alpha / vm <= om / vm
        and v_min / (1.0 - k0 * r1) + c <= math.cos(a) * vm / (1.0 + k0 * r1)
        and 0.0 < a < math.pi / 2.0 and 0.0 < r1 < 1.0 / k0 and v_min < vm <= v_max)
    t0 = time.time()
    designed = design_coordination_set(limits, speed_margin=c, alpha=alpha,
                                       spacing=SPACING)
    design_runtime = time.time() - t0
    oracle_best, _ = grid_design_oracle(limits, c, alpha)
    area = designed.psi_max * designed.rho_max
    ok = feasible and area >= 0.99 * oracle_best and design_runtime < 5.0
    report("criterion 1 (parameter design)", ok,
           f"reference point feasible={feasible}, designed area={area:.3f} vs "
           f"0.99*oracle={0.99 * oracle_best:.3f}, runtime={design_runtime:.2f}s")


def test_criterion_2_circle_reproduction(circle6_run):
    scenario, trace, metrics, wall, _ = circle6_run
    m = metrics.to_dict()
    spacing = scenario.params.spacing
    t_all = m["all_in_s1_time"]
    a_ok = t_all is not None and abs(t_all - ENTRY_TIME_REF) <= 0.2 * ENTRY_TIME_REF
    b_ok = all(abs(pm["final_rho"]) < 1.0 and abs(pm["final_psi"]) < 0.02
               for pm in m["per_uav"].values())
    c_ok = all(pm["final_zeta_error"] < 0.01 * spacing for pm in m["per_uav"].values())
    d_ok = m["overtake_events_after"] == 0 and m["overtake_events_before"] >= 1
    runtime_ok = wall < 30.0
    ok = a_ok and b_ok and c_ok and d_ok and runtime_ok
    report("criterion 2 (circle scenario reproduction)", ok,
           f"all-in={t_all}s (band {0.8 * ENTRY_TIME_REF:.2f}..{1.2 * ENTRY_TIME_REF:.2f}), "
           f"final errors ok={b_ok}, spacing ok={c_ok}, "
           f"events before/after={m['overtake_events_before']}/{m['overtake_events_after']}, "
           f"wall={wall:.1f}s")


def test_criterion_3_invariance(params):
    r = suite_invariance(params, n_runs=200, duration=200.0, seed=0)
    report("criterion 3 (coordination-set invariance)", r.passed,
           f"runs={r.checked}, boundary exits={r.failures}"
           + (f", first: {r.first_counterexample}" if r.first_counterexample else ""))


def test_criterion_4_reachability(params):
    box = suite_reach_box(params, n_per_class=200, seed=0)
    robust = suite_reach_robust(params, n_per_class=200, seed=0)
    ok = box.passed and robust.passed and box.checked == 400 and robust.checked == 400
    report("criterion 4 (reachability with time bounds)", ok,
           f"box: {box.checked - box.failures}/{box.checked}, "
           f"robust: {robust.checked - robust.failures}/{robust.checked} "
           f"(phase bound {robust.info['phase_bound_s']:.1f}s)")


def test_criterion_5_reset_bound(params):
    r = suite_reset_bound(params, n=100_000, seed=0)
    report("criterion 5 (speed-reset bound and actuation box)", r.passed,
           f"states={r.checked}, violations={r.failures}, "
           f"resets observed={r.info['resets_observed']}")


def test_criterion_6_switching_drive(params):
    r = suite_switch_drive(params, n=100_000, seed=0)
    report("criterion 6 (switching-surface drive and drift ratio)", r.passed,
           f"states={r.checked}, violations={r.failures}"
           + (f", first: {r.first_counterexample}" if r.first_counterexample else ""))


def test_criterion_7_escape_demo(params):
    t0 = time.time()
    rep = escape_demo(params, eps0=0.05, state_grid=(20, 20),
                      control_grid=(21, 21), kappa=0.0)
    wall = time.time() - t0
    ok = (rep.n_states >= 400 and rep.n_controls >= 441
          and rep.exit_fraction == 1.0 and wall < 60.0)
    report("criterion 7 (escape-set demonstration)", ok,
           f"{rep.summary()}, wall={wall:.1f}s")


def test_criterion_8_parallel_paths(parallel4_run, tmp_path):
    scenario, trace, metrics = parallel4_run
    out = tmp_path / "trace.csv"
    trace.write_csv(out)
    blob = out.read_bytes()
    sha = hashlib.sha256(blob).hexdigest()
    t_all = metrics.all_in_s1_time
    histories = {}
    for r in trace.rows:
        histories.setdefault(r[1], []).append((r[0], r[10]))
    ok = t_all is not None and sha == PARALLEL4_TRACE_SHA256 \
        and len(blob) == PARALLEL4_TRACE_BYTES
    details = [f"all-in={t_all}s", f"trace sha256={sha[:12]}... ({len(blob)} bytes)"]
    for uav_id in (2, 3, 4):
        zs = histories[uav_id]
        z0 = zs[0][1]
        zf = zs[-1][1]
        after = [(t, z) for t, z in zs if t >= t_all]
        worst_uptick = max(b[1] - a[1] for a, b in zip(after, after[1:]))
        tail = [z for t, z in zs if t >= 0.8 * scenario.duration]
        p2p = max(tail) - min(tail)
        ok &= worst_uptick <= 1e-6 and abs(zf) < 0.01 * abs(z0) and p2p < 0.1
        details.append(f"UAV{uav_id}: z0={z0:.1f} zf={zf:.2e} "
                       f"uptick={worst_uptick:.1e} p2p={p2p:.2e}")
    report("criterion 8 (in-line formation on shifted paths)", ok, "; ".join(details))


def test_criterion_9_determinism(circle6_cfg, circle6_run, tmp_path):
    _, _, _, _, reference = circle6_run
    blobs = []
    for k in range(2):
        scenario = build_scenario(circle6_cfg)
        trace, _ = run_scenario(scenario)
        out = tmp_path / f"trace_{k}.csv"
        trace.write_csv(out)
        blobs.append(out.read_bytes())
    ok = blobs[0] == reference and blobs[1] == reference
    report("criterion 9 (byte-identical traces, repeated runs)", ok,
           f"rerun 1 identical={blobs[0] == reference}, "
           f"rerun 2 identical={blobs[1] == reference}")
