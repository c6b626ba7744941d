"""Per-layer split: which cpfsim names are wrapped, and the metrics made of them.

Every wrapped name is looked up at install time.  A name that no longer
exists leaves its metrics out of the result (see ``Tracer.absent``); a name
that exists but is not called on a workload reports 0 calls and 0 s.
"""

from __future__ import annotations

from tracer import Tracer

SUITES = ("invariance", "no_overtaking", "reach_box", "reach_robust",
          "reset_bound", "switch_drive")

# The law layer returns a ControlCommand to its callers outside
# cpfsim.control_laws; those returns are the "commands" that s1_share,
# resets and classify_per_command are taken over.
_LAW_MODULE = "cpfsim.control_laws"


def install(tr: Tracer) -> None:
    """Wrap the public functions of each layer where their callers look them up."""

    def plain(key):
        return lambda ns, fn: tr.timed(key, fn)

    def on_command(cmd):
        tr.count("commands")
        region = getattr(cmd, "region", None)
        if str(getattr(region, "value", region)).startswith("S1"):
            tr.count("commands_s1")
        if getattr(cmd, "resetvalue_applied", False):
            tr.count("resets")

    def law(key):
        return lambda ns, fn: tr.timed(
            key, fn, on_result=None if ns == _LAW_MODULE else on_command)

    def on_overtake(events):
        tr.count("overtake_events", len(events))

    # paths
    tr.patch_method("cpfsim.paths", "Path", "project",
                    lambda fn: tr.timed("paths.project", fn), subclasses=True)
    tr.patch_method("cpfsim.paths", "SplinePath", "_global_project",
                    lambda fn: tr.counted("paths.global_search", fn))
    tr.patch_function("cpfsim.config", "build_paths", plain("paths.build"))
    # error_frame
    tr.patch_function("cpfsim.error_frame", "compute_error", plain("error_frame.compute_error"))
    tr.patch_function("cpfsim.error_frame", "classify", plain("error_frame.classify"))
    # control_laws
    tr.patch_function("cpfsim.control_laws", "hybrid_supervisor",
                      law("control_laws.hybrid_supervisor"))
    tr.patch_function("cpfsim.control_laws", "coord_control", law("control_laws.coord_control"))
    # coordination
    tr.patch_function("cpfsim.coordination", "update_pre_neighbors",
                      plain("coordination.relation"))
    tr.patch_function("cpfsim.coordination", "chain_coordination",
                      plain("coordination.relation"))
    tr.patch_function("cpfsim.coordination", "detect_overtaking",
                      lambda ns, fn: tr.timed("coordination.detect_overtaking", fn,
                                              on_result=on_overtake))
    tr.patch_function("cpfsim.coordination", "compute_zeta", plain("coordination.compute_zeta"))
    # simulator
    tr.patch_function("cpfsim.simulator", "run_scenario", plain("simulator.run_scenario"))
    tr.patch_function("cpfsim.simulator", "rk4_unicycle", plain("simulator.rk4_unicycle"))
    tr.patch_function("cpfsim.simulator", "compute_metrics", plain("simulator.compute_metrics"))
    # param_design
    tr.patch_function("cpfsim.param_design", "design_coordination_set",
                      plain("param_design.design"))


def metrics(tr: Tracer, phases: dict[str, float], facts: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced iteration as {name: (value, unit)}.

    ``phases`` holds the benchmark's own span durations (s) and ``facts``
    what the output checks read back (trace rows and bytes, suite counts).
    """
    out: dict[str, tuple[float, str]] = {}
    stats, counters = tr.stats, tr.counters

    def calls(key, latency=False):
        st = stats.get(key)
        if st is None:
            return
        out[f"{key}.calls"] = (st.calls, "count")
        out[f"{key}.self_s"] = (st.self_ns / 1e9, "s")
        if latency:
            out[f"{key}.p50_us"] = (st.percentile_us(0.50), "us")
            out[f"{key}.p99_us"] = (st.percentile_us(0.99), "us")

    def total_s(name, key):
        if key in stats:
            out[name] = (stats[key].total_ns / 1e9, "s")

    def ratio(num, den):
        return num / den if den else 0.0

    # paths
    calls("paths.project", latency=True)
    total_s("paths.build_s", "paths.build")
    if "paths.project" in stats and "paths.global_search" in stats:
        out["paths.warm_hit_ratio"] = (
            1.0 - ratio(stats["paths.global_search"].calls, stats["paths.project"].calls)
            if stats["paths.project"].calls else 0.0, "1")
    # error_frame
    calls("error_frame.compute_error")
    calls("error_frame.classify")
    commands = counters.get("commands", 0)
    if "error_frame.classify" in stats:
        out["error_frame.classify_per_command"] = (
            ratio(stats["error_frame.classify"].calls, commands), "1")
    # control_laws
    calls("control_laws.hybrid_supervisor", latency=True)
    calls("control_laws.coord_control")
    if "control_laws.hybrid_supervisor" in stats or "control_laws.coord_control" in stats:
        out["control_laws.s1_share"] = (ratio(counters.get("commands_s1", 0), commands), "1")
        out["control_laws.resets"] = (counters.get("resets", 0), "count")
    # coordination
    calls("coordination.relation")
    calls("coordination.detect_overtaking")
    calls("coordination.compute_zeta")
    if "coordination.detect_overtaking" in stats:
        out["coordination.overtake_events"] = (counters.get("overtake_events", 0), "count")
    # simulator
    calls("simulator.rk4_unicycle")
    if "simulator.run_scenario" in stats:
        out["simulator.loop_self_s"] = (stats["simulator.run_scenario"].self_ns / 1e9, "s")
    total_s("simulator.compute_metrics_s", "simulator.compute_metrics")
    for name in ("write_csv", "write_long_csv", "write_events_csv"):
        out[f"simulator.{name}_s"] = (phases.get(f"simulator.{name}", 0.0), "s")
    out["simulator.trace_rows"] = (facts.get("trace_rows", 0), "count")
    out["simulator.trace_bytes"] = (facts.get("trace_bytes", 0), "B")
    # verification
    checked = facts.get("checked", {})
    # the suites' own code (sampling, error-dynamics RK4, loops): what is left
    # of the suite spans once every wrapped call is taken out
    out["verification.self_s"] = (tr.span_self_s("verification."), "s")
    for suite in SUITES:
        out[f"verification.{suite}_s"] = (phases.get(f"verification.{suite}", 0.0), "s")
        out[f"verification.{suite}.checked"] = (checked.get(suite, 0), "count")
    # param_design and config
    total_s("param_design.design_s", "param_design.design")
    out["config.load_s"] = (phases.get("config.load", 0.0), "s")
    out["config.build_scenario_s"] = (phases.get("config.build_scenario", 0.0), "s")
    return out


# Wrapped names that run during set-up, not during the run phase.
_SETUP_KEYS = ("paths.build", "param_design.design")


def run_self_s(tr: Tracer) -> float:
    """Sum of the self times of every wrapped name called in the run phase (s)."""
    return sum(st.self_ns for key, st in tr.stats.items() if key not in _SETUP_KEYS) / 1e9
