"""cpfsim benchmark: one workload per process, or all of them.

    python3 perfbench/run.py --workload parallel4 --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all [--trace 1]

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics (medians over the passes that fit
in ``--seconds``); with ``--trace 1`` untraced and traced passes alternate
and it holds the per-layer metrics of the traced passes.  The line before it
holds per-pass samples, the metrics that apply to one workload only, and the
run's stamp (git SHA, versions, core count, load).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path as FsPath

ROOT = FsPath(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench_out"
WORKLOADS = ("circle6", "parallel4", "verify")
# Extra set-ups timed in bursts at three points of each untraced pass (before
# it, after its run, after its output), on top of the pass's own set-up.  A
# burst holds at most SETUP_REPS set-ups and starts none that would take it
# past SETUP_BUDGET_S seconds; the burst before a pass always holds one.
SETUP_REPS = 15
SETUP_BUDGET_S = 0.1
# Stop after this many passes in a row raised.
MAX_RAISED_IN_A_ROW = 3


def _import_package():
    src = ROOT / "src"
    if not (src / "cpfsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cpfsim source at {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import cpfsim
    if FsPath(cpfsim.__file__).resolve().parent != (src / "cpfsim").resolve():
        sys.exit(f"perfbench: imported cpfsim from {cpfsim.__file__}, not from {src}")


def stamp() -> dict:
    import numpy
    import scipy
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"git_sha": sha, "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "load1_start": os.getloadavg()[0]}


def setup_burst(wl, samples: list, at_least_one: bool = False) -> None:
    """Time extra set-ups into ``samples``; one that raises ends the burst.

    The host's speed drifts by up to 2x over a few seconds, and one set-up
    takes 5 to 500 ms, so set-ups are sampled at several points of a pass
    rather than in one block.
    """
    import workloads
    t0 = time.perf_counter()
    for _ in range(SETUP_REPS):
        if not at_least_one and samples and (
                time.perf_counter() - t0 + samples[-1] > SETUP_BUDGET_S):
            break
        at_least_one = False
        ph = workloads.Phases()
        try:
            wl.setup(ph)
        except Exception:
            break
        samples.append(ph.t["setup"])


def one_pass(wl, seed: int, out_dir: FsPath, tracer=None, between=None):
    """Set up, run, write and check once; returns (phases, failures, facts).

    ``between`` is called, untimed, after the run and after the output.
    """
    import layers
    import workloads
    ph = workloads.Phases(tracer)
    if tracer is not None:
        tracer.reset()
        layers.install(tracer)
    try:
        state = wl.setup(ph)
        result = wl.run(ph, state, seed)
        if between is not None:
            between()
        wl.output(ph, state, result, out_dir)
        if between is not None:
            between()
    finally:
        if tracer is not None:
            tracer.uninstall()
    failures, facts = wl.check(state, result, out_dir)
    return ph.t, failures, facts


def measure(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> int:
    import layers
    import workloads
    from tracer import Tracer

    info = stamp()
    wl = workloads.make(name, smoke)
    tracer = Tracer() if traced else None
    out_dir = OUT_ROOT / f"{name}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    attempted = failed = 0
    raised_in_a_row = 0
    failures: list[str] = []
    setup_s, plain, layer_runs, hashes = [], [], [], []
    run_self = []

    def attempt(tr, between=None):
        nonlocal attempted, failed, raised_in_a_row
        attempted += 1
        try:
            t, bad, facts = one_pass(wl, seed, out_dir, tr, between)
        except Exception:
            failed += 1
            raised_in_a_row += 1
            failures.append(traceback.format_exc(limit=3))
            print(failures[-1], file=sys.stderr)
            return None
        raised_in_a_row = 0
        if bad:
            failed += 1
            failures.extend(bad)
            for line in bad:
                print(f"perfbench: check failed: {line}", file=sys.stderr)
        if "trace_sha256" in facts:
            hashes.append(facts["trace_sha256"])
        gc.collect()
        return t, facts

    try:
        # Extra set-ups spread over the run, so that their median sees the
        # same share of a contended machine as the passes.  A set-up that
        # raises is left to the pass to record.
        burst = None if traced else (lambda: setup_burst(wl, setup_s))
        start = time.perf_counter()
        while raised_in_a_row < MAX_RAISED_IN_A_ROW:
            t0 = time.perf_counter()
            if not traced:
                setup_burst(wl, setup_s, at_least_one=True)
            got = attempt(None, burst)
            if got is not None:
                t, facts = got
                plain.append({k: t.get(k, 0.0) for k in ("setup", "run", "output")}
                             | {"rows": facts.get("trace_rows", 0)})
                setup_s.append(t["setup"])
            if traced:
                got = attempt(tracer)
                if got is not None:
                    t, facts = got
                    layer_runs.append({k: v for k, (v, _) in
                                       layers.metrics(tracer, t, facts).items()}
                                      | {"trace.run_s": t["run"]})
                    run_self.append(layers.run_self_s(tracer) / t["run"])
            spent = time.perf_counter() - start
            if spent + (time.perf_counter() - t0) > seconds:
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    med = statistics.median
    metrics: dict[str, dict] = {}
    if traced and layer_runs and plain:
        units = {k: u for k, (_, u) in layers.metrics(tracer, {}, {}).items()}
        for key, unit in units.items():
            values = [r[key] for r in layer_runs if key in r]
            if values:
                metrics[key] = {"value": med(values), "unit": unit}
        metrics["trace.overhead_ratio"] = {
            "value": med(r["trace.run_s"] for r in layer_runs) / med(p["run"] for p in plain),
            "unit": "1"}
        OUT_ROOT.mkdir(exist_ok=True)
        (OUT_ROOT / f"spans-{name}.json").write_text(json.dumps({
            "run_id": tracer.run_id, "spans": tracer.spans, "absent": tracer.absent,
            "counters": tracer.counters,
            "stats": {k: {"calls": s.calls, "total_ns": s.total_ns, "self_ns": s.self_ns}
                      for k, s in tracer.stats.items()}}, indent=1), encoding="utf-8")
    elif not traced and plain:
        s, r, o = med(setup_s), med(p["run"] for p in plain), med(p["output"] for p in plain)
        metrics = {
            "setup_s": {"value": s, "unit": "s"},
            "run_s": {"value": r, "unit": "s"},
            "total_s": {"value": s + r + o, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    extra = {"fail_ratio": {"value": failed / max(attempted, 1), "unit": "1"}}
    if plain and name != "verify":
        r = med(p["run"] for p in plain)
        extra["output_s"] = {"value": med(p["output"] for p in plain), "unit": "s"}
        extra["us_per_uav_step"] = {"value": r / plain[0]["rows"] * 1e6, "unit": "us"}

    info["load1_end"] = os.getloadavg()[0]
    if max(info["load1_start"], info["load1_end"]) > (info["nproc"] or 1):
        print(f"perfbench: warning: 1-minute load {info['load1_start']:.2f} -> "
              f"{info['load1_end']:.2f} exceeds nproc {info['nproc']}; timings are "
              f"contended", file=sys.stderr)
    detail = {"workload": name, "seed": seed, "trace": int(traced), "smoke": smoke,
              "stamp": info, "passes": len(plain), "traced_passes": len(layer_runs),
              "extra": extra, "setup_samples_s": setup_s, "pass_samples": plain,
              "trace_sha256": hashes, "failures": failures[:10]}
    if run_self:
        detail["run_self_share"] = med(run_self)
    if tracer is not None:
        detail["absent"] = tracer.absent
    print("perfbench-detail " + json.dumps(detail))
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if metrics else 1


def run_all(args) -> int:
    """Each workload in a fresh process, one after another, then a table."""
    rows, combined = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(FsPath(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            code = proc.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2].split(" ", 1)[1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in (result["metrics"] | detail["extra"]).items():
            combined["metrics"][f"{name}.{key}"] = m
            rows.append((name, key, m["value"], m["unit"]))
    width = max((len(r[1]) for r in rows), default=10)
    for name, key, value, unit in rows:
        print(f"{name:<10} {key:<{width}} {value:>14.6g} {unit}")
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the verify suites (the simulate workloads have no randomness)")
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="measurement time; at least one pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced passes")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (short scenarios, small suites); no golden hash check")
    args = parser.parse_args(argv)
    _import_package()
    sys.path.insert(0, str(FsPath(__file__).resolve().parent))
    if args.workload == "all":
        return run_all(args)
    return measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)


if __name__ == "__main__":
    sys.exit(main())
