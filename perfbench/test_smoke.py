"""Smoke test of the benchmark at tiny sizes (short scenarios, small suites).

    python3 -m pytest perfbench/test_smoke.py -q

Every metric named in BENCHMARK.json must be emitted with its unit, and a
traced pass must write the same trace.csv bytes as an untraced one.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].split(" ", 1)[1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_emitted_and_trace_unchanged_by_tracing(workload):
    plain, plain_detail = _run(workload, 0)
    traced, traced_detail = _run(workload, 1)
    for result, spec in ((plain, BENCH["end_to_end"]), (traced, BENCH["per_layer"])):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        for metric in spec:
            got = result["metrics"].get(metric["name"])
            assert got is not None, metric["name"]
            assert got["unit"] == metric["unit"], metric["name"]
    for metric in BENCH["end_to_end"]:
        assert plain["metrics"][metric["name"]]["value"] > 0.0, metric["name"]
    assert traced_detail["traced_passes"] == 1
    hashes = plain_detail["trace_sha256"] + traced_detail["trace_sha256"]
    if workload == "verify":
        assert hashes == []
    else:
        # one untraced pass in each run, one traced pass in the traced run
        assert len(hashes) == 3 and len(set(hashes)) == 1


def test_missing_names_are_reported_absent_and_originals_restored():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import layers
        from cpfsim import simulator
        from tracer import Tracer
    finally:
        del sys.path[:2]
    original = simulator.rk4_unicycle
    tr = Tracer()
    layers.install(tr)
    assert simulator.rk4_unicycle is not original
    tr.patch_function("cpfsim.simulator", "no_such_function", lambda ns, fn: fn)
    tr.patch_method("cpfsim.paths", "SplinePath", "no_such_method", lambda fn: fn)
    tr.patch_function("cpfsim.no_such_module", "f", lambda ns, fn: fn)
    tr.uninstall()
    assert simulator.rk4_unicycle is original
    assert tr.absent == ["cpfsim.simulator.no_such_function",
                         "cpfsim.paths.SplinePath.no_such_method",
                         "cpfsim.no_such_module.f"]
    # a name never wrapped yields no metrics rather than zeros
    names = layers.metrics(Tracer(), {}, {})
    assert "simulator.rk4_unicycle.calls" not in names
    assert "paths.project.calls" not in names
