"""Command-line entry point.

Thin shell over the library: parameter design, scenario simulation, the
verification suites and the escape-set demonstration.  Every setting comes
from the config file or a flag.

Exit codes: 0 ok, 1 validation/configuration error, 2 runtime abort,
3 verification failure (a suite fails, or an escape-demo pair stays).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path as FsPath

from . import config as cfgmod
from .exceptions import ConfigError, CpfsimError, Infeasible, OutsideUniverse
from .param_design import coordination_rate_bound
from .simulator import run_scenario
from .verification import escape_demo, run_suites

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_VERIFY = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpfsim",
        description="Coordinated path following for speed-constrained fixed-wing UAVs")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="scenario config file (YAML)")
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("design-params", help="design the coordination-set parameters")
    common(p)

    p = sub.add_parser("simulate", help="run a scenario and write trace/metrics")
    common(p)
    p.add_argument("--dt", type=float, help="integration step override (s)")
    p.add_argument("--duration", type=float, help="duration override (s)")

    p = sub.add_parser("verify", help="run the invariant/reachability suites")
    common(p)
    p.add_argument("--suite", action="append",
                   help="suite name filter (repeatable); default: all")
    p.add_argument("--seed", type=int, default=0, help="RNG seed of the suites")

    p = sub.add_parser("demo-escape", help="escape-set brute-force demonstration")
    common(p)
    return parser


def _load(args):
    if not args.config:
        raise ConfigError("no config given (use --config)")
    return cfgmod.load_config(args.config)


def _out_dir(args, spec) -> FsPath:
    path = FsPath(args.out or spec["dir"])
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:   # a file in the way, or no permission
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror}") from None
    return path


def cmd_design_params(args) -> int:
    cfg = _load(args)
    block = cfg.get("params")
    if not isinstance(block, dict) or "design" not in block:
        raise ConfigError("design-params needs a params.design section")
    params = cfgmod.resolve_params(cfg)
    out = _out_dir(args, cfgmod.output_spec(cfg))

    rows = [("psi_max (rad)", params.psi_max),
            ("rho_max (m)", params.rho_max),
            ("v_coord (m/s)", params.v_coord),
            ("area proxy psi_max*rho_max", params.psi_max * params.rho_max),
            ("rho_universe (m)", params.rho_universe),
            ("spacing-rate bound (m/s)", coordination_rate_bound(params))]
    rows += [(f"slack {k} (m/s)", v) for k, v in sorted(params.constraint_slacks().items())]
    width = max(len(r[0]) for r in rows)
    print("designed coordination-set parameters")
    for name, value in rows:
        print(f"  {name:<{width}}  {value:.9g}")

    fragment = out / "params_fragment.yaml"
    fragment.write_text(cfgmod.params_fragment(params), encoding="utf-8")
    print(f"wrote {fragment}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load(args)
    spec = cfgmod.output_spec(cfg)
    scenario = cfgmod.build_scenario(cfg, duration=args.duration, dt=args.dt)
    out = _out_dir(args, spec)
    trace, metrics = run_scenario(scenario)

    m = metrics.to_dict()
    trace.write_csv(out / spec["trace"])
    trace.write_events_csv(out / spec["events"])
    trace.write_long_csv(out / spec["long"], every=spec["long_every"])
    with open(out / spec["metrics"], "w", encoding="utf-8") as fh:
        json.dump(m, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"simulated {scenario.duration:g}s x {len(scenario.uavs)} UAVs "
          f"(dt={scenario.dt:g}s)")
    print(f"  all-in-coordination-set time: {m['all_in_s1_time']}")
    print(f"  overtake events before/after: {m['overtake_events_before']}"
          f"/{m['overtake_events_after']}")
    for uav_id, pm in m["per_uav"].items():
        print(f"  UAV {uav_id}: entry={pm['s1_entry_time']} "
              f"max|rho|={pm['max_abs_rho_final']:.4g} "
              f"max|psi|={pm['max_abs_psi_final']:.4g} "
              f"|zeta-L|={pm['final_zeta_error']:.4g}")
    print(f"wrote {out / spec['trace']}, {out / spec['metrics']}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg = _load(args)
    scenario = cfgmod.build_scenario(cfg)
    results = run_suites(scenario.params, scenario.paths[0], names=args.suite, seed=args.seed)
    all_ok = True
    for r in results:
        print(r.summary())
        all_ok &= r.passed
    return EXIT_OK if all_ok else EXIT_VERIFY


def cmd_demo_escape(args) -> int:
    cfg = _load(args)
    params = cfgmod.resolve_params(cfg)
    out = _out_dir(args, cfgmod.output_spec(cfg))
    report = escape_demo(params)
    print(report.summary())
    with open(out / "escape_report.json", "w", encoding="utf-8") as fh:
        json.dump(vars(report), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return EXIT_OK if report.exited == report.n_pairs else EXIT_VERIFY


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "design-params": cmd_design_params,
        "simulate": cmd_simulate,
        "verify": cmd_verify,
        "demo-escape": cmd_demo_escape,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, Infeasible, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OutsideUniverse, CpfsimError) as exc:
        print(f"runtime abort: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
