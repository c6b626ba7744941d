"""The benchmark's workloads: set-up, run, output and output checks.

Each workload is a closed loop with one caller: one pass (set-up, run,
output, check) finishes before the next starts, in one single-threaded
process, with the library defaults and no ``threads`` argument.  Every
phase is timed through a ``Phases`` recorder, which in a traced run also
opens a tracer span of the same name.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path as FsPath

from cpfsim import config as cfgmod
from cpfsim import simulator as simmod
from cpfsim import verification as vmod

GOLDEN = json.loads((FsPath(__file__).parent / "golden.json").read_text(encoding="utf-8"))

# Suite sizes of the verify workload: shorter horizons and fewer states than
# the CLI defaults, with the batch width (runs per suite) kept at the default
# where the suite has a horizon to shorten.
VERIFY_SIZES = {
    "invariance": {"n_runs": 200, "duration": 5.0},
    "no_overtaking": {"n_runs": 20, "duration": 5.0},
    "reach_box": {"n_per_class": 50},
    "reach_robust": {"n_per_class": 50},
    "reset_bound": {"n": 10_000},
    "switch_drive": {"n": 10_000},
}
SMOKE_VERIFY_SIZES = {
    "invariance": {"n_runs": 4, "duration": 2.0},
    "no_overtaking": {"n_runs": 2, "duration": 2.0},
    "reach_box": {"n_per_class": 2},
    "reach_robust": {"n_per_class": 2},
    "reset_bound": {"n": 200},
    "switch_drive": {"n": 200},
}
# Simulated seconds of the simulate workloads in a smoke run: long enough
# for every UAV to enter the coordination set.
SMOKE_DURATION = {"circle6": 40.0, "parallel4": 20.0}


class Phases:
    """Wall time of named phases of one pass, in seconds."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.t: dict[str, float] = {}

    @contextmanager
    def __call__(self, name: str):
        with self.tracer.span(name) if self.tracer is not None else nullcontext():
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self.t[name] = self.t.get(name, 0.0) + time.perf_counter() - t0


def _sha256_and_lines(path: FsPath) -> tuple[str, int]:
    h = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
            lines += block.count(b"\n")
    return h.hexdigest(), lines


class Simulate:
    """One bundled scenario at full length: simulate and write four artefacts."""

    def __init__(self, name: str, smoke: bool = False):
        self.config = cfgmod.bundled_config_path(name)
        self.duration = SMOKE_DURATION[name] if smoke else None
        self.golden = None if smoke else GOLDEN[name]

    def setup(self, ph: Phases):
        with ph("setup"):
            with ph("config.load"):
                cfg = cfgmod.load_config(self.config)
            with ph("config.build_scenario"):
                scenario = cfgmod.build_scenario(cfg, duration=self.duration)
        return cfg, scenario

    def run(self, ph: Phases, state, seed: int):
        _, scenario = state
        with ph("run"):
            return simmod.run_scenario(scenario)

    def output(self, ph: Phases, state, result, out_dir: FsPath) -> None:
        cfg, _ = state
        trace, metrics = result
        spec = cfgmod.output_spec(cfg)
        with ph("output"):
            with ph("simulator.write_csv"):
                trace.write_csv(out_dir / spec["trace"])
            with ph("simulator.write_events_csv"):
                trace.write_events_csv(out_dir / spec["events"])
            with ph("simulator.write_long_csv"):
                trace.write_long_csv(out_dir / spec["long"], every=int(spec["long_every"]))
            with ph("simulator.write_metrics"):
                with open(out_dir / spec["metrics"], "w", encoding="utf-8") as fh:
                    json.dump(metrics.to_dict(), fh, indent=2, sort_keys=True)
                    fh.write("\n")

    def check(self, state, result, out_dir: FsPath) -> tuple[list[str], dict]:
        """Failures found in the written artefacts, and facts read from them."""
        cfg, _ = state
        spec = cfgmod.output_spec(cfg)
        failures = []
        trace_path = out_dir / spec["trace"]
        sha, lines = _sha256_and_lines(trace_path)
        facts = {"trace_sha256": sha, "trace_rows": lines - 1,
                 "trace_bytes": trace_path.stat().st_size}
        if self.golden is not None:
            if sha != self.golden["trace_sha256"]:
                failures.append(f"trace.csv sha256 {sha} != golden "
                                f"{self.golden['trace_sha256']}")
            if facts["trace_bytes"] != self.golden["trace_bytes"]:
                failures.append(f"trace.csv has {facts['trace_bytes']} bytes, golden "
                                f"{self.golden['trace_bytes']}")
        with open(out_dir / spec["metrics"], encoding="utf-8") as fh:
            m = json.load(fh)
        if m.get("all_in_s1_time") is None:
            failures.append("metrics.json: all_in_s1_time is null")
        if m.get("overtake_events_after") != 0:
            failures.append(f"metrics.json: overtake_events_after = "
                            f"{m.get('overtake_events_after')}")
        for key in ("events", "long"):
            if not (out_dir / spec[key]).is_file():
                failures.append(f"{spec[key]} not written")
        return failures, facts


class Verify:
    """The six randomized suites on circle6's parameters, plus the designer."""

    def __init__(self, smoke: bool = False):
        self.config = cfgmod.bundled_config_path("circle6")
        self.design_config = cfgmod.bundled_config_path("design")
        self.sizes = SMOKE_VERIFY_SIZES if smoke else VERIFY_SIZES

    def setup(self, ph: Phases):
        with ph("setup"):
            with ph("config.load"):
                cfg = cfgmod.load_config(self.config)
            with ph("config.build_scenario"):
                scenario = cfgmod.build_scenario(cfg)
            with ph("param_design"):
                designed = cfgmod.resolve_params(cfgmod.load_config(self.design_config))
        return scenario, designed

    def run(self, ph: Phases, state, seed: int):
        scenario, _ = state
        params, path = scenario.params, scenario.paths[0]
        results = {}
        with ph("run"):
            for suite, kwargs in self.sizes.items():
                fn = getattr(vmod, f"suite_{suite}")
                args = (params, path) if suite == "no_overtaking" else (params,)
                with ph(f"verification.{suite}"):
                    results[suite] = fn(*args, seed=seed, **kwargs)
        return results

    def output(self, ph: Phases, state, result, out_dir: FsPath) -> None:
        pass

    def _expected_checked(self, suite: str) -> int:
        kw = self.sizes[suite]
        if "n_runs" in kw:
            return kw["n_runs"]
        if "n_per_class" in kw:
            return 2 * kw["n_per_class"]   # two start classes per reach suite
        return kw["n"]

    def check(self, state, result, out_dir: FsPath) -> tuple[list[str], dict]:
        _, designed = state
        failures = []
        got = [designed.psi_max, designed.rho_max, designed.v_coord]
        want = [GOLDEN["design"][k] for k in ("psi_max", "rho_max", "v_coord")]
        if got != want:
            failures.append(f"design (psi_max, rho_max, v_coord) = {got} != golden {want}")
        checked = {}
        for suite, r in result.items():
            checked[suite] = r.checked
            if not r.passed:
                failures.append(f"{suite}: FAIL ({r.failures} failures; first: "
                                f"{r.first_counterexample})")
            if r.checked != self._expected_checked(suite):
                failures.append(f"{suite}: checked {r.checked}, requested "
                                f"{self._expected_checked(suite)}")
        return failures, {"checked": checked}


def make(name: str, smoke: bool = False):
    if name == "verify":
        return Verify(smoke)
    return Simulate(name, smoke)

