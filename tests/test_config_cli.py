import json

import pytest
import yaml

from cpfsim import config as cfgmod
from cpfsim.cli import build_parser, main
from cpfsim.control_laws import build_chi
from cpfsim.config import (build_scenario, bundled_config_path, load_config, params_fragment,
                           resolve_params)
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


# params.design keys that overrode the designed set's defaults
_DESIGN_OVERRIDES = ("rho_universe", "k1", "k2", "k3", "eps_switch", "chi_blend", "chi_delta1",
                     "sign_eps")


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
                                            ("design", "k1"), ("design", "sign_eps"),
                                            ("design", "speed_margin")])
    def test_param_value_must_be_number(self, tmp_path, block, key, value):
        # a string raised a bare ValueError, a list a TypeError; true read as 1.0.
        # The design block takes only its margins, so k1 and sign_eps are unknown there.
        fields = {"explicit": ["psi_max: 0.6303", "rho_max: 122.1297", "v_coord: 25.0"],
                  "design": ["speed_margin: 1.0"]}[block]
        fields = [f for f in fields if not f.startswith(key)] + [f"{key}: {value}"]
        text = MINIMAL.replace("explicit: {psi_max: 0.6303, rho_max: 122.1297, v_coord: 25.0}",
                               f"{block}: {{{', '.join(fields)}}}")
        match = (rf"params\.design: unknown key\(s\) \['{key}'\]" if key in ("k1", "sign_eps")
                 else rf"params\.{block}\.{key}: expected a number")
        with pytest.raises(ConfigError, match=match):
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

    @pytest.mark.parametrize("lut_step", [0, -0.5])
    def test_non_positive_lut_step_rejected_at_the_cli(self, tmp_path, capsys, lut_step):
        # 0 ended in an OverflowError traceback, -0.5 in an IndexError one
        cfg = load_config(bundled_config_path("parallel4"))
        cfg["paths"][0]["lut_step"] = lut_step
        path = write_config(tmp_path, yaml.safe_dump(cfg))
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: paths[0].lut_step: expected a positive number")
        assert "Traceback" not in err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("old, new, err", [
        ("radius: 1000.0", "radius: 400.0",
         "error: paths[0]: circle curvature 0.0025 >= bound 0.002\n"),
        ("{kind: circle, center: [0.0, 0.0], radius: 1000.0, direction: ccw}",
         "{kind: bspline, waypoints: [[5.0, 5.0], [5.0, 5.0], [5.0, 5.0], [5.0, 5.0]]}",
         "error: paths[0]: coincident waypoints\n"),
    ], ids=["circle_too_tight", "coincident_waypoints"])
    def test_rejected_path_shape_is_a_config_error_at_the_cli(self, tmp_path, capsys,
                                                              old, new, err):
        # both exited 2 as a "runtime abort"
        cfg = write_config(tmp_path, MINIMAL.replace(old, new))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("lut_step", [1e-300, 1e-6])
    def test_giant_lut_rejected_at_the_cli(self, tmp_path, capsys, lut_step):
        # 1e-300 exited with numpy's "Maximum allowed size exceeded"; 1e-6 asked
        # for about 1.4e10 table entries (115 GB)
        cfg = load_config(bundled_config_path("parallel4"))
        cfg["paths"][0]["lut_step"] = lut_step
        path = write_config(tmp_path, yaml.safe_dump(cfg))
        rc = main(["simulate", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: paths[0].lut_step: {lut_step!r} asks for up to ")
        assert "Traceback" not in err
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
        # inside the duration, but after the run's last row at t = 100 * 0.01
        cfg["uavs"][2]["spawn_time"] = 1.003
        with pytest.raises(ConfigError, match=r"UAV 3: spawn_time 1\.003 after the last step "
                                              r"at t=1\.0$"):
            build_scenario(cfg, duration=1.004, dt=0.01)
        assert build_scenario(cfg, duration=1.006, dt=0.01).uavs[2].spawn_time == 1.003

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

    @pytest.mark.parametrize("edits, error", [
        # each was accepted: the trace's uav column read True, the UAV flew
        # path 0, and UAV 2 followed UAV 1
        ([("{id: 1,", "{id: true,")], "uavs[0]: integer 'id' required, got True"),
        ([("theta: 1.5707963267948966}", "theta: 1.5707963267948966, path: 0.5}")],
         "uavs[0].path: expected an integer path index, got 0.5"),
        ([("run:", "  - {id: 2, x: -1000.0, y: 0.0, theta: -1.5707963267948966}\nrun:"),
          ("spacing: 1047.1975511965976}", "spacing: 1047.1975511965976, parents: {2: true}}")],
         "coordination.parents: 2: True must map an integer id to an integer id or null"),
    ], ids=["bool-id", "fractional-path", "bool-parent"])
    def test_ids_and_path_indices_must_be_integers_at_the_cli(self, tmp_path, capsys, edits,
                                                              error):
        text = MINIMAL
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        rc = main(["simulate", "--config", str(write_config(tmp_path, text)), "--out",
                   str(tmp_path)])
        assert rc == 1
        assert f"error: {error}" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    def test_output_section_names_the_files(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL + "output: {trace: t.csv, long_every: 50}\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "t.csv").exists() and not (tmp_path / "trace.csv").exists()
        # 101 steps of one UAV, every 50th step, five series each
        assert len((tmp_path / "long.csv").read_text().splitlines()) == 1 + 3 * 5

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

    @pytest.mark.parametrize("alpha", ["0", "0.2"])
    def test_design_alpha_outside_the_turn_budget_rejected_at_the_cli(self, tmp_path, capsys,
                                                                      alpha):
        # 0 exited with "alpha and speed_margin must be positive" after the grid
        # search, 0.2 (omega_max) with "no feasible point on the design grid"
        text = bundled_config_path("design").read_text(encoding="utf-8").replace(
            "alpha: 0.01 ", f"alpha: {alpha} ")
        rc = main(["design-params", "--config", str(write_config(tmp_path, text)),
                   "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: params.design.alpha: need 0 < alpha < limits.omega_max "
                              f"(0.2), got {float(alpha)!r}")
        assert "Traceback" not in err
        assert not (tmp_path / "params_fragment.yaml").exists()

    @pytest.mark.parametrize("alpha", ["0.2", "0.3"])
    def test_explicit_alpha_outside_the_turn_budget_rejected_at_the_cli(self, tmp_path, capsys,
                                                                        alpha):
        # 0.3 (above omega_max) was accepted with both turn-budget slacks negative
        text = MINIMAL.replace("v_coord: 25.0}", f"v_coord: 25.0, alpha: {alpha}}}")
        rc = main(["simulate", "--config", str(write_config(tmp_path, text)),
                   "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: params.explicit.alpha: need 0 < alpha < limits.omega_max "
                              f"(0.2), got {float(alpha)!r}")
        assert "Traceback" not in err
        assert not (tmp_path / "trace.csv").exists()

    def test_spacing_inside_chi_delta1_fails_in_the_build(self, tmp_path):
        # it was built and failed only when the run built its speed assignment
        cfg = load_config(write_config(tmp_path, MINIMAL.replace(
            "spacing: 1047.1975511965976", "spacing: 5.0")))
        with pytest.raises(ValueError, match="need 0 < chi_delta1 < spacing"):
            build_scenario(cfg)

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


BUNDLED = sorted(p.stem for p in bundled_config_path("design").parent.glob("*.yaml"))
LOADERS = [yaml.SafeLoader] + ([yaml.CSafeLoader] if hasattr(yaml, "CSafeLoader") else [])


class TestYamlLoaders:
    """libyaml's parser, where PyYAML has it, and the pure-Python one give the same configs."""

    def test_libyaml_parses_where_available(self):
        assert cfgmod._YAML_LOADER is LOADERS[-1]

    @pytest.mark.skipif(len(LOADERS) == 1, reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("name", BUNDLED)
    def test_loaders_agree_on_bundled_configs(self, name, monkeypatch):
        got = []
        for loader in LOADERS:
            monkeypatch.setattr(cfgmod, "_YAML_LOADER", loader)
            got.append(load_config(bundled_config_path(name)))
        assert got[0] == got[1]
        if name == "parallel4":   # merge keys
            assert got[0]["paths"][1]["offset"] == [0.0, 100.0]
            assert got[0]["paths"][1]["waypoints"] == got[0]["paths"][0]["waypoints"]

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
    @pytest.mark.parametrize("text", ["limits: {v_min: 10.0", "limits:\n\tv_min: 1\n",
                                      "a: 1\na: [\n", "{x: *undefined}"])
    def test_malformed_yaml_is_a_config_error(self, tmp_path, monkeypatch, loader, text):
        monkeypatch.setattr(cfgmod, "_YAML_LOADER", loader)
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(write_config(tmp_path, text))

    def test_design_yaml_designs_the_pinned_set(self):
        p = resolve_params(load_config(bundled_config_path("design")))
        assert (p.psi_max, p.rho_max, p.v_coord) == (0.6990040004295561, 140.99915822080837, 25.0)


class TestCli:
    def test_design_params(self, tmp_path, capsys):
        rc = main(["design-params", "--config", str(bundled_config_path("design")),
                   "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "psi_max" in out and "slack" in out
        assert (tmp_path / "params_fragment.yaml").exists()

    def test_design_params_rejects_a_params_list(self, tmp_path, capsys):
        text = "limits: {v_min: 10.0, v_max: 25.0, omega_max: 0.2, kappa_bound: 0.002}\n" \
               "params: [1, 2]\n"
        rc = main(["design-params", "--config", str(write_config(tmp_path, text)),
                   "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_design_params_empty_design_block_takes_the_defaults(self, tmp_path):
        # design.yaml's margins are the defaults
        bundled = bundled_config_path("design")
        text = bundled.read_text(encoding="utf-8")
        start = text.index("params:")
        end = text.index("coordination:")
        empty = write_config(tmp_path, text[:start] + "params: {design: }\n\n" + text[end:])
        for cfg, out in ((bundled, tmp_path / "bundled"), (empty, tmp_path / "empty")):
            assert main(["design-params", "--config", str(cfg), "--out", str(out)]) == 0
        assert (tmp_path / "empty" / "params_fragment.yaml").read_bytes() == \
            (tmp_path / "bundled" / "params_fragment.yaml").read_bytes()

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

    def test_missing_config_flag(self, capsys):
        rc = main(["simulate"])
        assert rc == 1

    def test_environment_gives_no_config(self, tmp_path, capsys, monkeypatch):
        # the flags are the only way in: CPFSIM_* variables are not read
        monkeypatch.setenv("CPFSIM_CONFIG", str(write_config(tmp_path, MINIMAL)))
        monkeypatch.chdir(tmp_path)   # where the config's default output dir would go
        assert main(["simulate"]) == 1
        assert "error: no config given (use --config)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("chi", [""], ids=["no-chi-block"])
    def test_zero_spacing_runs_the_linear_chi(self, tmp_path, chi):
        # without a chi block a zero spacing exited 1: the default chi kind
        # was the piecewise one, which needs a positive spacing
        text = MINIMAL.replace("spacing: 1047.1975511965976", "spacing: 0.0") + chi
        cfg = write_config(tmp_path, text)
        assert build_chi(build_scenario(load_config(cfg)).params).slope == 0.475
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("old, new, where, key", [
        ("spacing: 1047.1975511965976}", "spacing: 1047.1975511965976, topology: cyclic}",
         "coordination", "topology"),
        ("run:", "chi: {kind: coordination}\nrun:", "{cfg}", "chi"),
        ("run:", "chi: {slope: 0.475}\nrun:", "{cfg}", "chi"),
        ("v_coord: 25.0}", "v_coord: 25.0, speed_margin: 1.0}", "params.explicit",
         "speed_margin"),
        ("run:", "escape: {state_grid: [5, 5]}\nrun:", "{cfg}", "escape"),
        ("- {kind: circle, center: [0.0, 0.0], radius: 1000.0, direction: ccw}",
         "- {kind: line, origin: [0.0, 0.0], heading: 0.0, horizon: 5000.0}", "paths[0]",
         "horizon"),
    ] + [("explicit: {psi_max: 0.6303, rho_max: 122.1297, v_coord: 25.0}",
          f"design: {{speed_margin: 1.0, {key}: 1.0}}", "params.design", key)
         for key in _DESIGN_OVERRIDES],
        ids=["coordination.topology", "chi.kind", "chi.slope", "params.explicit.speed_margin",
             "escape", "paths.horizon"] + [f"params.design.{k}" for k in _DESIGN_OVERRIDES])
    def test_removed_keys_rejected_at_the_cli(self, tmp_path, capsys, old, new, where, key):
        # the relation follows from parents and the chi from the spacing alone
        # (its linear slope is fixed); the explicit block's speed_margin was
        # read by no run; the escape demo runs on its fixed grid, and a line's
        # simulated horizon is fixed; the design block takes only its margins,
        # and the explicit block sets the rest
        cfg = write_config(tmp_path, MINIMAL.replace(old, new))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 1
        where = where.format(cfg=cfg)
        assert f"error: {where}: unknown key(s) ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()

    @pytest.mark.parametrize("old, new, error", [
        # the waypoint lists and the keys of two types ended in a TypeError
        # traceback, coordination read a list as its keys, and the limits
        # error did not name its block
        ("coordination: {spacing: 1047.1975511965976}", "coordination: [1]",
         "coordination: expected a mapping, got list"),
        ("center: [0.0, 0.0], radius: 1000.0, direction: ccw", "kind: bspline, waypoints: null",
         "paths[0].waypoints: expected a list of [x, y] numbers"),
        ("center: [0.0, 0.0], radius: 1000.0, direction: ccw", "kind: bspline, waypoints: 5",
         "paths[0].waypoints: expected a list of [x, y] numbers"),
        ("center: [0.0, 0.0], radius: 1000.0, direction: ccw",
         "kind: bspline, lonlat: 3, lonlat_origin: [0.0, 0.0]",
         "paths[0].lonlat: expected a list of [x, y] numbers"),
        ("kappa_bound: 0.002}", "kappa_bound: 0.002, 1: 2, turbo: 3}",
         "limits: unknown key(s) [1, 'turbo']"),
        ("v_min: 10.0", "v_min: 30.0", "limits: need 0 < v_min <= v_max"),
    ], ids=["coordination-list", "waypoints-null", "waypoints-int", "lonlat-int",
            "keys-of-two-types", "bad-limits"])
    def test_mis_shaped_block_is_a_config_error_at_the_cli(self, tmp_path, capsys, old, new,
                                                           error):
        text = MINIMAL.replace("kind: circle, ", "") if "bspline" in new else MINIMAL
        assert old in text
        rc = main(["simulate", "--config", str(write_config(tmp_path, text.replace(old, new))),
                   "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"error: {error}" in err and "Traceback" not in err
        assert not (tmp_path / "trace.csv").exists()

    def test_config_directory_is_a_config_error_at_the_cli(self, tmp_path, capsys):
        # ended in an IsADirectoryError traceback
        rc = main(["simulate", "--config", str(tmp_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert f"error: cannot read config file {tmp_path}: " in err and "Traceback" not in err

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda loader: loader.__name__)
    def test_config_that_is_not_utf8_is_a_config_error_at_the_cli(self, tmp_path, capsys,
                                                                  monkeypatch, loader):
        # a UTF-16 byte-order mark: the decoder's error, without the promised file name
        monkeypatch.setattr(cfgmod, "_YAML_LOADER", loader)
        cfg = tmp_path / "scenario.yaml"
        cfg.write_bytes(b"\xff\xfe\x00bad")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: cannot read config file {cfg}: 'utf-8' codec can't decode")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, name, extra", [
        ("simulate", "circle6", ["--duration", "0.1"]),
        ("design-params", "design", []),
        ("demo-escape", "circle6", []),
    ])
    def test_out_naming_a_file_is_a_config_error_at_the_cli(self, tmp_path, capsys, monkeypatch,
                                                            command, name, extra):
        # ended in a FileExistsError traceback; then the run, the table or the
        # escape grid came first and the error after it
        calls = []
        for work in ("run_scenario", "escape_demo"):
            monkeypatch.setattr(f"cpfsim.cli.{work}", lambda *a, w=work: calls.append(w))
        out = tmp_path / "taken"
        out.write_text("not a directory\n", encoding="utf-8")
        rc = main([command, "--config", str(bundled_config_path(name)), "--out", str(out),
                   *extra])
        printed, err = capsys.readouterr()
        assert rc == 1
        assert f"error: cannot create output directory {out}: " in err and "Traceback" not in err
        assert out.read_text(encoding="utf-8") == "not a directory\n"
        assert (calls, printed) == ([], "")

    @pytest.mark.parametrize("r2", ["500.0", "700"])
    def test_universe_past_the_uniqueness_radius_rejected_at_the_cli(self, tmp_path, capsys, r2):
        # 1/kappa_bound = 500 m, where 1 - kappa*rho reaches 0: 700 built a scenario
        text = MINIMAL.replace("v_coord: 25.0}", f"v_coord: 25.0, rho_universe: {r2}}}")
        cfg = write_config(tmp_path, text)
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: need rho_max <= rho_universe < 1/kappa_bound\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("block", ["coordination", "run", "output"])
    def test_null_optional_block_reads_as_absent(self, tmp_path, block):
        # a null coordination or run block ended in a TypeError traceback, a
        # null output block in an error
        absent = "".join(line + "\n" for line in MINIMAL.splitlines()
                         if not line.startswith(f"{block}:"))
        traces = []
        for name, text in (("absent", absent), ("null", absent + f"{block}:\n")):
            cfg = write_config(tmp_path, text, f"{name}.yaml")
            assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / name),
                         "--duration", "1"]) == 0
            traces.append((tmp_path / name / "trace.csv").read_bytes())
        assert traces[0] == traces[1]

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
        # the fixed grid: 20 x 20 escape states, 21 x 21 constant controls
        cfg = write_config(tmp_path, MINIMAL)
        rc = main(["demo-escape", "--config", str(cfg), "--out", str(tmp_path)])
        assert rc == 0
        assert "1.0000 exited" in capsys.readouterr().out
        report = json.loads((tmp_path / "escape_report.json").read_text())
        assert report["n_pairs"] == 176_400
        assert report["exit_fraction"] == 1.0

    @pytest.mark.parametrize("name", ["circle6", "parallel4", "design"])
    def test_demo_escape_passes_on_bundled_configs(self, tmp_path, name):
        cfg = bundled_config_path(name)
        assert main(["demo-escape", "--config", str(cfg), "--out", str(tmp_path)]) == 0

    def test_demo_escape_fails_when_a_pair_stays(self, tmp_path, capsys, monkeypatch):
        # error dynamics frozen at their start: no pair leaves the escape set,
        # and the report is still written
        monkeypatch.setattr("cpfsim.verification.batch_error_step",
                            lambda rho, psi, *args: (rho, psi))
        cfg = bundled_config_path("circle6")
        assert main(["demo-escape", "--config", str(cfg), "--out", str(tmp_path)]) == 3
        # the summary said "slowest nans"
        assert capsys.readouterr().out.endswith("0.0000 exited, no pair exited\n")

        def strict(name):
            raise ValueError(f"{name} is not JSON")

        report = json.loads((tmp_path / "escape_report.json").read_text(),
                            parse_constant=strict)
        assert (report["n_pairs"], report["exited"]) == (176_400, 0)
        assert report["max_exit_time"] is None
