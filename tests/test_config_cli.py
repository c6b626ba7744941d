import json

import pytest
import yaml

from cpfsim.cli import build_parser, main
from cpfsim.config import (build_scenario, bundled_config_path, escape_spec, load_config,
                           params_fragment, resolve_params)
from cpfsim.exceptions import ConfigError
from cpfsim.simulator import run_scenario

MINIMAL = """
limits: {v_min: 10.0, v_max: 25.0, omega_max: 0.2, kappa_bound: 0.002}
params:
  explicit: {psi_max: 0.6303, rho_max: 122.1297, v_coord: 25.0}
coordination: {spacing: 1047.1975511965976}
paths:
  - {kind: circle, center: [0.0, 0.0], radius: 1000.0, direction: ccw}
uavs:
  - {id: 1, x: 1000.0, y: 0.0, theta: 1.5707963267948966}
run: {duration: 1.0, dt: 0.01}
"""


def write_config(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestSchema:
    def test_bundled_configs_load(self):
        for name in ("circle6", "parallel4", "design"):
            cfg = load_config(bundled_config_path(name))
            if "explicit" in cfg["params"]:
                build_scenario(cfg, duration=0.0)

    def test_minimal_config(self, tmp_path):
        sc = build_scenario(load_config(write_config(tmp_path, MINIMAL)))
        assert sc.duration == 1.0
        assert sc.params.rho_universe == pytest.approx(405.0)
        assert sc.params.k2 == pytest.approx(122.1297 / 0.6303 + 1.0)

    def test_unknown_top_level_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write_config(tmp_path, MINIMAL + "\nbogus: 1\n"))

    def test_unknown_nested_key(self, tmp_path):
        text = MINIMAL.replace("kappa_bound: 0.002", "kappa_bound: 0.002, turbo: 9")
        with pytest.raises(ConfigError, match="unknown key"):
            build_scenario(load_config(write_config(tmp_path, text)))

    def test_chi_delta2_rejected(self, tmp_path):
        text = MINIMAL.replace("v_coord: 25.0}", "v_coord: 25.0, chi_delta2: 6.0}")
        with pytest.raises(ConfigError, match=r"params.explicit: unknown key\(s\) \['chi_delta2'\]"):
            build_scenario(load_config(write_config(tmp_path, text)))

    def test_missing_required(self, tmp_path):
        text = MINIMAL.replace("psi_max: 0.6303, ", "")
        with pytest.raises(ConfigError, match="psi_max"):
            build_scenario(load_config(write_config(tmp_path, text)))

    def test_wrong_type(self, tmp_path):
        text = MINIMAL.replace("radius: 1000.0", "radius: huge")
        with pytest.raises(ConfigError, match="expected a number"):
            build_scenario(load_config(write_config(tmp_path, text)))

    @pytest.mark.parametrize("value", ['"abc"', "[1.0, 2.0]", "true", "null"])
    @pytest.mark.parametrize("block, key", [("explicit", "psi_max"), ("explicit", "k3"),
                                            ("design", "k1"), ("design", "sign_eps")])
    def test_param_value_must_be_number(self, tmp_path, block, key, value):
        # a string raised a bare ValueError, a list a TypeError; true read as 1.0
        fields = {"explicit": ["psi_max: 0.6303", "rho_max: 122.1297", "v_coord: 25.0"],
                  "design": ["speed_margin: 1.0"]}[block]
        fields = [f for f in fields if not f.startswith(key)] + [f"{key}: {value}"]
        text = MINIMAL.replace("explicit: {psi_max: 0.6303, rho_max: 122.1297, v_coord: 25.0}",
                               f"{block}: {{{', '.join(fields)}}}")
        with pytest.raises(ConfigError, match=rf"params\.{block}\.{key}: expected a number"):
            resolve_params(load_config(write_config(tmp_path, text)))

    def test_list_param_is_a_config_error_at_the_cli(self, tmp_path, capsys):
        text = MINIMAL.replace("psi_max: 0.6303", "psi_max: [0.6, 0.7]")
        rc = main(["simulate", "--config", str(write_config(tmp_path, text)),
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "params.explicit.psi_max" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "0.0", "-0.5"])
    def test_non_positive_psi_max_is_a_config_error_at_the_cli(self, tmp_path, capsys, value):
        # psi_max: 0 ended in a ZeroDivisionError traceback from the k2 default
        text = MINIMAL.replace("psi_max: 0.6303", f"psi_max: {value}")
        rc = main(["simulate", "--config", str(write_config(tmp_path, text)),
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "error: params.explicit.psi_max: need 0 < psi_max < pi/2" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("key", ["state_grid", "control_grid"])
    @pytest.mark.parametrize("value", ["5", "[5]", "[5, 5, 5]", "[5, 0]", "[5.0, 5]",
                                       "[true, 5]", '"5x5"'])
    def test_escape_grid_must_be_two_positive_ints(self, tmp_path, key, value):
        cfg = load_config(write_config(tmp_path, MINIMAL + f"escape: {{{key}: {value}}}\n"))
        with pytest.raises(ConfigError, match=rf"escape\.{key}: expected \[n, m\] positive"):
            escape_spec(cfg)

    @pytest.mark.parametrize("old, new, where", [
        # run.duration: .inf escaped as an OverflowError traceback
        ("duration: 1.0", "duration: .inf", "run.duration"),
        # run.dt: .nan exited 1 with "cannot convert float NaN to integer"
        ("dt: 0.01", "dt: .nan", "run.dt"),
        # limits.v_max: .inf was designed, simulated and aborted at t = 0.01 s
        ("v_max: 25.0", "v_max: .inf", "limits.v_max"),
        ("v_coord: 25.0", "v_coord: -.inf", "params.explicit.v_coord"),
        ("radius: 1000.0", "radius: 1" + "0" * 400, "paths[0].radius"),
        ("center: [0.0, 0.0]", "center: [.nan, 0.0]", "paths[0].center"),
        # a bool in a pair was read as 1.0
        ("center: [0.0, 0.0]", "center: [true, 0.0]", "paths[0].center"),
        # a negative spacing would run the linear chi, which zero spacing selects
        ("spacing: 1047.1975511965976", "spacing: -5.0", "coordination.spacing"),
    ])
    def test_non_finite_and_bool_numbers_rejected_at_the_cli(self, tmp_path, capsys,
                                                            old, new, where):
        cfg = write_config(tmp_path, MINIMAL.replace(old, new))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        assert f"error: {where}: expected " in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("flag, value", [("--duration", "inf"), ("--dt", "nan")])
    def test_non_finite_cli_override_rejected(self, tmp_path, capsys, flag, value):
        cfg = write_config(tmp_path, MINIMAL)
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path), flag, value])
        assert rc == 1
        assert f"{flag[2:]} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("spawn_time", [50.0, 40.01, -1.0])
    def test_spawn_time_outside_the_run_rejected(self, spawn_time):
        # a UAV spawning after the end was left out of metrics.json, and
        # all_in_s1_time read as if the whole fleet had converged
        cfg = load_config(bundled_config_path("circle6"))
        cfg["uavs"][2]["spawn_time"] = spawn_time
        with pytest.raises(ConfigError, match=r"UAV 3: spawn_time .* outside \[0, duration=40\.0\]"):
            build_scenario(cfg, duration=40.0)
        cfg["uavs"][2]["spawn_time"] = 40.0
        assert build_scenario(cfg, duration=40.0).uavs[2].spawn_time == 40.0

    def test_spawn_time_past_a_cli_duration_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL.replace("theta: 1.5707963267948966}",
                                                     "theta: 1.5707963267948966, spawn_time: 0.5}"))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path), "--duration", "0.25"])
        assert rc == 1
        assert "error: UAV 1: spawn_time 0.5 outside [0, duration=0.25]" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("block, where", [
        # both crashed with a TypeError traceback
        ("{trace: 5}", "output.trace"),
        ("{dir: [a]}", "output.dir"),
        # each was accepted and read as 1, 1, 2 and 1
        ("{long_every: 0}", "output.long_every"),
        ("{long_every: -3}", "output.long_every"),
        ("{long_every: 2.5}", "output.long_every"),
        ("{long_every: true}", "output.long_every"),
    ])
    def test_bad_output_section_rejected_at_the_cli(self, tmp_path, capsys, block, where):
        cfg = write_config(tmp_path, MINIMAL + f"output: {block}\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        assert f"error: {where}: expected " in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_output_section_names_the_files(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL + "output: {trace: t.csv, long_every: 50}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "t.csv").exists() and not (tmp_path / "trace.csv").exists()
        # 101 steps of one UAV, every 50th step, five series each
        assert len((tmp_path / "long.csv").read_text().splitlines()) == 1 + 3 * 5

    def test_escape_grid_defaults(self, tmp_path):
        spec = escape_spec(load_config(write_config(tmp_path, MINIMAL)))
        assert spec["state_grid"] == (20, 20) and spec["control_grid"] == (21, 21)

    @pytest.mark.parametrize("key", ["seed", "threads"])
    def test_run_seed_and_threads_rejected(self, tmp_path, key):
        # the simulator has no randomness and no worker threads to configure
        text = MINIMAL.replace("run: {duration: 1.0, dt: 0.01}",
                               f"run: {{duration: 1.0, dt: 0.01, {key}: 2}}")
        with pytest.raises(ConfigError, match="unknown key"):
            build_scenario(load_config(write_config(tmp_path, text)))

    def test_design_and_explicit_mutually_exclusive(self, tmp_path):
        text = MINIMAL.replace(
            "params:\n", "params:\n  design: {speed_margin: 1.0}\n")
        with pytest.raises(ConfigError, match="exactly one"):
            build_scenario(load_config(write_config(tmp_path, text)))

    def test_zero_speed_margin_rejected(self, tmp_path):
        text = MINIMAL.replace(
            "  explicit: {psi_max: 0.6303, rho_max: 122.1297, v_coord: 25.0}",
            "  design: {speed_margin: 0.0}")
        with pytest.raises((ConfigError, ValueError)):
            resolve_params(load_config(write_config(tmp_path, text)))

    def test_cyclic_topology_needs_shared_path(self, tmp_path):
        text = MINIMAL.replace(
            "paths:\n  - {kind: circle, center: [0.0, 0.0], radius: 1000.0, direction: ccw}",
            "paths:\n"
            "  - {kind: circle, center: [0.0, 0.0], radius: 1000.0, direction: ccw}\n"
            "  - {kind: line, origin: [0.0, 0.0], heading: 0.0}")
        text = text.replace("theta: 1.5707963267948966}",
                            "theta: 1.5707963267948966}\n  - {id: 2, x: 0.0, y: 5.0, theta: 0.0, path: 1}")
        with pytest.raises(ConfigError, match="cyclic"):
            build_scenario(load_config(write_config(tmp_path, text)))

    @pytest.mark.parametrize("parents, why", [({9: 1}, "9: 1 names no UAV"),
                                              ({2: 9}, "2: 9 names no UAV"),
                                              ({2: 2}, "UAV 2 is its own parent")],
                             ids=["unknown-child", "unknown-parent", "own-parent"])
    def test_parents_name_uavs_of_the_scenario(self, parents, why):
        # {9: 1} was accepted; {2: 2} ran UAV 2 with zeta = 0 and pre = 2
        cfg = load_config(bundled_config_path("circle6"))
        cfg["coordination"]["parents"] = parents
        with pytest.raises(ConfigError, match=f"coordination.parents: .*{why}"):
            build_scenario(cfg, duration=1.0)

    def test_parents_fly_the_fixed_chain(self):
        # beside topology: cyclic these parents were accepted and dropped
        cfg = load_config(bundled_config_path("circle6"))
        cfg["coordination"]["parents"] = {2: 1}
        trace, _ = run_scenario(build_scenario(cfg, duration=1.0))
        assert {r[11] for r in trace.rows if r[1] == 2} == {1}
        assert {r[11] for r in trace.rows if r[1] != 2} == {None}

    def test_lonlat_spline_config(self, tmp_path):
        text = """
limits: {v_min: 10.0, v_max: 25.0, omega_max: 0.2, kappa_bound: 0.002}
params:
  explicit: {psi_max: 0.6303, rho_max: 122.1297, v_coord: 25.0}
coordination: {spacing: 0.0}
chi: {slope: 0.475}
paths:
  - kind: bspline
    lonlat_origin: [113.2167, 28.2029]
    lonlat: [[113.2167, 28.2029], [113.2371, 28.2209], [113.2167, 28.2390],
             [113.1963, 28.2570], [113.2167, 28.2751], [113.2371, 28.2931],
             [113.2167, 28.3112]]
uavs:
  - {id: 1, x: 0.0, y: 0.0, theta: 0.783}
run: {duration: 0.0, dt: 0.01}
"""
        sc = build_scenario(load_config(write_config(tmp_path, text)))
        assert sc.paths[0].point_at(0.0) == pytest.approx((0.0, 0.0), abs=1e-9)

    def test_fragment_round_trips(self, params, tmp_path):
        frag = yaml.safe_load(params_fragment(params))
        explicit = frag["params"]["explicit"]
        assert "speed_margin" not in explicit   # the explicit block rejects it
        block = "  explicit:\n" + "\n".join(
            f"    {k}: {v!r}" for k, v in explicit.items())
        text = MINIMAL.replace(
            "  explicit: {psi_max: 0.6303, rho_max: 122.1297, v_coord: 25.0}", block)
        sc = build_scenario(load_config(write_config(tmp_path, text)))
        assert sc.params.psi_max == params.psi_max
        assert sc.params.chi_blend == params.chi_blend


class TestCli:
    def test_design_params(self, tmp_path, capsys):
        rc = main(["design-params", "--config", str(bundled_config_path("design")),
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "psi_max" in out and "slack" in out
        assert (tmp_path / "params_fragment.yaml").exists()

    def test_design_params_infeasible_curvature(self, tmp_path, capsys):
        text = """
limits: {v_min: 10.0, v_max: 25.0, omega_max: 0.2, kappa_bound: 0.01}
params: {design: {speed_margin: 1.0, alpha: 0.01}}
"""
        rc = main(["design-params", "--config", str(write_config(tmp_path, text)),
                   "--out", str(tmp_path)])
        assert rc == 1
        assert "curvature bound exceeds omega_max/v_max" in capsys.readouterr().err

    def test_simulate_zero_duration(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path),
                   "--duration", "0"])
        assert rc == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert len(lines) == 2  # header + the t=0 row
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["n_steps"] == 0

    def test_simulate_writes_outputs(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        for name in ("trace.csv", "metrics.json", "events.csv", "long.csv"):
            assert (tmp_path / name).exists()

    def test_simulate_runtime_abort(self, tmp_path, capsys):
        text = MINIMAL.replace("x: 1000.0", "x: 400.0")
        rc = main(["simulate", "--config", str(write_config(tmp_path, text)),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "UAV 1" in capsys.readouterr().err

    def test_seed_and_threads_only_on_verify(self):
        # --seed parses only on verify; --threads (a pool that gained nothing
        # under the GIL) is gone from every command
        parser = build_parser()
        assert parser.parse_args(["verify", "--seed", "5"]).seed == 5
        for command in ("simulate", "design-params", "demo-escape"):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--seed", "1"])
        for command in ("verify", "simulate", "design-params", "demo-escape"):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--threads", "1"])

    def test_missing_config_flag(self, capsys, monkeypatch):
        monkeypatch.delenv("CPFSIM_CONFIG", raising=False)
        rc = main(["simulate"])
        assert rc == 1

    def test_env_var_config(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, MINIMAL)
        monkeypatch.setenv("CPFSIM_CONFIG", str(cfg))
        monkeypatch.setenv("CPFSIM_OUT", str(tmp_path))
        monkeypatch.setenv("CPFSIM_DURATION", "0")
        assert main(["simulate"]) == 0
        assert (tmp_path / "trace.csv").exists()

    def test_verify_single_suite(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL)
        rc = main(["verify", "--config", str(cfg), "--suite", "reset_bound"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "reset_bound" in out and "PASS" in out

    def test_verify_uses_the_scenario_chi(self, capsys):
        # parallel4's linear chi: the default coordination chi needs a spacing > 0
        cfg = bundled_config_path("parallel4")
        rc = main(["verify", "--config", str(cfg), "--suite", "reset_bound",
                   "--suite", "switch_drive"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert out.count("PASS") == 2

    @pytest.mark.parametrize("chi", ["{slope: 0.3}"])
    def test_chi_slope_accepted_only_when_used(self, tmp_path, capsys, chi):
        # a positive spacing runs the piecewise chi, which would ignore the slope
        cfg = write_config(tmp_path, MINIMAL + f"chi: {chi}\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        assert "error: chi.slope: " in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("slope", ["0.0", "-0.475"])
    def test_non_positive_chi_slope_rejected(self, tmp_path, capsys, slope):
        # a non-positive slope failed without naming the key
        text = MINIMAL.replace("spacing: 1047.1975511965976", "spacing: 0.0")
        cfg = write_config(tmp_path, text + f"chi: {{slope: {slope}}}\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        assert "error: chi.slope: expected a positive number" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("chi, slope", [("", 0.475), ("chi: {slope: 0.3}\n", 0.3)],
                             ids=["no-chi-block", "slope-0.3"])
    def test_zero_spacing_runs_the_linear_chi(self, tmp_path, chi, slope):
        # without a chi block a zero spacing exited 1: the default chi kind
        # was the piecewise one, which needs a positive spacing
        text = MINIMAL.replace("spacing: 1047.1975511965976", "spacing: 0.0") + chi
        cfg = write_config(tmp_path, text)
        assert build_scenario(load_config(cfg)).chi().slope == slope
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("old, new, where, key", [
        ("spacing: 1047.1975511965976}", "spacing: 1047.1975511965976, topology: cyclic}",
         "coordination", "topology"),
        ("run:", "chi: {kind: coordination}\nrun:", "chi", "kind"),
        ("v_coord: 25.0}", "v_coord: 25.0, speed_margin: 1.0}", "params.explicit",
         "speed_margin"),
    ], ids=["coordination.topology", "chi.kind", "params.explicit.speed_margin"])
    def test_removed_keys_rejected_at_the_cli(self, tmp_path, capsys, old, new, where, key):
        # the relation follows from parents and the chi from the spacing; the
        # explicit block's speed_margin was read by no run
        cfg = write_config(tmp_path, MINIMAL.replace(old, new))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        assert f"error: {where}: unknown key(s) ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_verify_unknown_suite(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL)
        assert main(["verify", "--config", str(cfg), "--suite", "nope"]) == 1

    def test_verify_detects_broken_params(self, tmp_path, capsys):
        # heading box wider than the turn budget: invariance breaks
        text = MINIMAL.replace("psi_max: 0.6303, rho_max: 122.1297",
                               "psi_max: 0.78, rho_max: 20.0")
        cfg = write_config(tmp_path, text)
        rc = main(["verify", "--config", str(cfg), "--suite", "invariance"])
        assert rc == 3
        out = capsys.readouterr().out
        assert "FAIL" in out and "counterexample" in out

    def test_demo_escape(self, tmp_path, capsys):
        text = MINIMAL + "escape: {state_grid: [5, 5], control_grid: [5, 5]}\n"
        cfg = write_config(tmp_path, text)
        rc = main(["demo-escape", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        assert "1.0000 exited" in capsys.readouterr().out
        report = json.loads((tmp_path / "escape_report.json").read_text())
        assert report["exit_fraction"] == 1.0
