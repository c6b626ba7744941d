import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from cpfsim import error_frame
from cpfsim.config import build_scenario, bundled_config_path, load_config
from cpfsim.coordination import OvertakeEvent
from cpfsim.error_frame import PathError, batch_error_step, compute_error
from cpfsim.exceptions import ConfigError, OutsideUniverse
from cpfsim.paths import CirclePath, SplinePath
from cpfsim.simulator import (Scenario, Trace, UavSpec, UavState, compute_metrics, rk4_unicycle,
                              run_scenario)
from cpfsim.verification import escape_demo, in_escape_set

from oracles import integrate_unicycle

CIRCLE6_EVENTS_SHA256 = "9eaf1410b37298fd9bc38df7d81f8622744366592233f4f970e49e16f6e9a29f"
CIRCLE6_EVENTS_BYTES = 222
# parallel4's fixed chain sees no overtake: its events.csv is the header alone
PARALLEL4_EVENTS_SHA256 = "08ba544c2eaa803a51a8bd335744c881c5376e84f1438a72619fcbbf0603f144"
PARALLEL4_EVENTS_BYTES = 18
# golden trace.csv of the bundled circle6 scenario (also in perfbench/golden.json)
CIRCLE6_TRACE_SHA256 = "7ee9c6a696f390b9936d83964e2f9de370dfa514eb3248178f41ce7dfb4a0617"
CIRCLE6_TRACE_BYTES = 41_935_659
# golden metrics.json of the bundled scenarios, as ``cpfsim simulate`` writes it
METRICS_JSON_GOLDEN = {
    "circle6": ("063cd73822364f051af931bd65bcb50ebebbe5f0947c31fa5ea8c89e1f91f7bf", 1_828),
    "parallel4": ("558463e1272987c73c7109369bac15fa414ab154624137353ded28530b8b8ad9", 1_269),
}


def circle_scenario(params, uavs, duration, dt=0.01, **kw):
    path = CirclePath((0.0, 0.0), 1000.0, "ccw", kappa_bound=params.kappa_bound)
    return Scenario(params=params, paths=[path], uavs=uavs,
                    duration=duration, dt=dt, **kw)


def on_path_spec(uav_id, path, s, rho=0.0, psi=0.0, spawn_time=0.0, path_index=0):
    x, y, ta, _ = path.frame(s)
    return UavSpec(uav_id, x - rho * math.sin(ta), y + rho * math.cos(ta),
                   ta + psi, path_index, spawn_time)


class TestIntegrator:
    def test_matches_exact_arcs(self):
        x, y, th = 3.0, -2.0, 0.7
        xe, ye, the = integrate_unicycle(x, y, th, 16.0, 0.15, 0.01, 500)
        for _ in range(500):
            x, y, th = rk4_unicycle(x, y, th, 16.0, 0.15, 0.01)
        assert x == pytest.approx(xe, abs=1e-8)
        assert y == pytest.approx(ye, abs=1e-8)
        assert math.cos(th) == pytest.approx(math.cos(the), abs=1e-12)

    def test_straight_motion(self):
        x, y, th = rk4_unicycle(0.0, 0.0, 0.0, 10.0, 0.0, 0.1)
        assert (x, y, th) == (1.0, 0.0, 0.0)

    def test_ground_speed_matches_command(self):
        # pure rolling: distance along the commanded arc equals v*dt
        v, om, dt = 20.0, 0.2, 0.01
        x, y, th = rk4_unicycle(0.0, 0.0, 0.3, v, om, dt)
        chord = math.hypot(x, y)
        arc_chord = 2.0 * (v / om) * math.sin(om * dt / 2.0)
        assert chord == pytest.approx(arc_chord, abs=1e-9)

    def test_theta_wrapped(self):
        _, _, th = rk4_unicycle(0.0, 0.0, 3.1, 10.0, 0.2, 1.0)
        assert -math.pi <= th < math.pi


class TestRunScenario:
    def test_equilibrium_stays_on_circle(self, params):
        sc = circle_scenario(params, [UavSpec(1, 1000.0, 0.0, math.pi / 2.0)], 100.0)
        trace, metrics = run_scenario(sc)
        rhos = [abs(r[5]) for r in trace.rows]
        assert max(rhos) < 1e-3
        assert metrics.per_uav[1].s1_entry_time == 0.0

    def test_zero_duration(self, params):
        sc = circle_scenario(params, [UavSpec(1, 1000.0, 0.0, math.pi / 2.0)], 0.0)
        trace, _ = run_scenario(sc)
        assert len(trace.rows) == 1
        assert trace.rows[0][0] == 0.0

    @pytest.mark.parametrize("duration, dt", [(1e308, 0.01), (400.0, 1e-320), (1e308, 1e-320)])
    def test_overflowing_step_count_rejected(self, params, duration, dt):
        # n_steps raised "OverflowError: cannot convert float infinity to integer"
        sc = circle_scenario(params, [UavSpec(1, 1000.0, 0.0, math.pi / 2.0)], duration, dt)
        with pytest.raises(ConfigError) as info:
            sc.validate()
        assert str(info.value) == f"duration / dt overflows: duration={duration!r}, dt={dt!r}"
        circle_scenario(params, [UavSpec(1, 1000.0, 0.0, math.pi / 2.0)], 1e300, 0.01).validate()

    @pytest.mark.parametrize("every", [0, -3])
    def test_long_csv_needs_a_positive_every(self, params, tmp_path, every):
        # both wrote every step, while the config rejects long_every: 0
        sc = circle_scenario(params, [UavSpec(1, 1000.0, 0.0, math.pi / 2.0)], 0.05)
        trace, _ = run_scenario(sc)
        with pytest.raises(ValueError, match="every must be at least 1"):
            trace.write_long_csv(tmp_path / "long.csv", every=every)
        assert not (tmp_path / "long.csv").exists()

    def test_initial_state_outside_universe_aborts(self, params):
        bad = UavSpec(7, 1000.0 - params.rho_universe - 10.0, 0.0, math.pi / 2.0)
        sc = circle_scenario(params, [bad], 10.0)
        # the abort names the time, the UAV and its pose
        pose = r"t=0\.000s UAV 7 at \(\d+\.\d\d, 0\.00, 1\.5708\)"
        with pytest.raises(OutsideUniverse, match=pose):
            run_scenario(sc)

    def test_determinism_repeated_runs(self, params):
        path = CirclePath((0.0, 0.0), 1000.0, "ccw", 0.002)
        uavs = [on_path_spec(i, path, 300.0 * i, rho=20.0 * (i - 2), psi=0.1 * i)
                for i in range(1, 5)]
        runs = []
        for _ in range(4):
            sc = circle_scenario(params, list(uavs), 5.0)
            trace, _ = run_scenario(sc)
            runs.append(trace.rows)
        assert runs[0] == runs[1] == runs[2] == runs[3]

    def test_join_event_midrun(self, params):
        path = CirclePath((0.0, 0.0), 1000.0, "ccw", 0.002)
        uavs = [on_path_spec(1, path, 0.0), on_path_spec(2, path, 2000.0),
                on_path_spec(3, path, 4000.0),
                on_path_spec(4, path, 1000.0, spawn_time=10.0)]
        sc = circle_scenario(params, uavs, 20.0)
        trace, _ = run_scenario(sc)
        t4 = [r[0] for r in trace.rows if r[1] == 4]
        assert min(t4) == pytest.approx(10.0)
        # the joining UAV becomes somebody's pre-neighbor
        pre_after = {r[11] for r in trace.rows if r[0] > 10.0}
        assert 4 in pre_after
        assert any(ev.t >= 10.0 for ev in trace.events)

    def test_lower_id_joiner_takes_its_id_place(self, params):
        path = CirclePath((0.0, 0.0), 1000.0, "ccw", 0.002)
        uavs = [on_path_spec(1, path, 3000.0, rho=15.0, spawn_time=5.0),
                on_path_spec(2, path, 0.0), on_path_spec(3, path, 2000.0),
                on_path_spec(4, path, 4000.0, psi=0.1)]
        trace, _ = run_scenario(circle_scenario(params, uavs, 10.0))
        ids_at = {}
        for r in trace.rows:
            ids_at.setdefault(r[0], []).append(r[1])
        assert all(ids == ([1, 2, 3, 4] if t >= 5.0 else [2, 3, 4])
                   for t, ids in ids_at.items())
        for order in (uavs[::-1], uavs[1:] + uavs[:1]):
            again, _ = run_scenario(circle_scenario(params, order, 10.0))
            assert again.rows == trace.rows
            assert again.events == trace.events

    def test_spline_joiner_starts_from_global_projection(self, params, hil_spline):
        # the joiner has no warm start: its first error is the global projection's
        # (a warm start from its pre-neighbor's arc position gives other low bits)
        uavs = [on_path_spec(1, hil_spline, 3100.0), on_path_spec(2, hil_spline, 2800.0),
                on_path_spec(3, hil_spline, 2500.0, rho=80.0, psi=0.2, spawn_time=1.0)]
        sc = Scenario(params=params, paths=[hil_spline], uavs=uavs, duration=2.0,
                      parents={2: 1, 3: 2})
        trace, _ = run_scenario(sc)
        first = next(r for r in trace.rows if r[1] == 3)
        assert first[0] == pytest.approx(1.0)
        assert first[5] == hil_spline.project((uavs[2].x, uavs[2].y)).rho
        assert abs(first[5] - 80.0) < 1e-6

    def test_metrics_final_windows(self, params):
        sc = circle_scenario(params, [UavSpec(1, 1000.0, 0.0, math.pi / 2.0)], 10.0)
        _, metrics = run_scenario(sc)
        m = metrics.per_uav[1]
        assert m.max_abs_rho_final < 1e-3
        assert m.final_zeta_error == 0.0  # lone UAV holds the desired spacing

    @pytest.mark.parametrize("duration, dt", [(1.0, 0.3), (1.0, 0.4), (1.0, 1000.0),
                                              (0.004, 0.01)])
    def test_metrics_window_ends_at_the_last_row(self, params, duration, dt):
        # n_steps = round(duration / dt) puts the last row before 0.9 * duration;
        # a window from 0.9 * duration held no row, and max() of it raised
        sc = circle_scenario(params, [UavSpec(1, 1000.0, 0.0, math.pi / 2.0)], duration, dt)
        trace, metrics = run_scenario(sc)
        last = trace.rows[-1]
        assert last[0] < 0.9 * duration
        m = metrics.per_uav[1]
        assert (m.max_abs_rho_final, m.max_abs_psi_final) == (abs(last[5]), abs(last[6]))

    def test_trace_csv_layout(self, params, tmp_path):
        sc = circle_scenario(params, [UavSpec(1, 1000.0, 0.0, math.pi / 2.0)], 0.5)
        trace, _ = run_scenario(sc)
        out = tmp_path / "trace.csv"
        trace.write_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,uav,x,y,theta,rho,psi,region,v,omega,zeta,pre_neighbor,reset"
        assert len(lines) == 1 + len(trace.rows)
        assert all(len(line.split(",")) == 13 for line in lines[1:])

    def test_circle6_events_csv_golden(self, circle6_run, tmp_path):
        # the bundled circle6 run's overtake events, recorded before the
        # relation took its (pre, zeta, gap) shape
        _, trace, _, _, _ = circle6_run
        assert {type(ev) for ev in trace.events} == {OvertakeEvent}
        out = tmp_path / "events.csv"
        trace.write_events_csv(out)
        blob = out.read_bytes()
        assert len(blob) == CIRCLE6_EVENTS_BYTES
        assert hashlib.sha256(blob).hexdigest() == CIRCLE6_EVENTS_SHA256

    def test_parallel4_events_csv_golden(self, parallel4_run, tmp_path):
        # the chain relation's overtake detection on the bundled parallel4 run
        _, trace, _ = parallel4_run
        out = tmp_path / "events.csv"
        trace.write_events_csv(out)
        blob = out.read_bytes()
        assert len(blob) == PARALLEL4_EVENTS_BYTES
        assert hashlib.sha256(blob).hexdigest() == PARALLEL4_EVENTS_SHA256

    def test_circle6_trace_csv_golden(self, circle6_run):
        _, _, _, _, blob = circle6_run
        assert len(blob) == CIRCLE6_TRACE_BYTES
        assert hashlib.sha256(blob).hexdigest() == CIRCLE6_TRACE_SHA256

    @pytest.mark.parametrize("name", sorted(METRICS_JSON_GOLDEN))
    def test_metrics_json_golden(self, request, name):
        metrics = request.getfixturevalue(f"{name}_run")[2]
        blob = (json.dumps(metrics.to_dict(), indent=2, sort_keys=True) + "\n").encode()
        sha, size = METRICS_JSON_GOLDEN[name]
        assert len(blob) == size
        assert hashlib.sha256(blob).hexdigest() == sha

    def test_circle6_steps_follow_the_error_model(self, circle6_run):
        # one plant: the unicycle RK4 in (x, y, theta) plus the projection
        # moves each UAV's (rho, psi) as one batch_error_step of the error
        # model that the suites check, at the circle's constant curvature.
        # rho comes out of a distance to the centre of about 1,000 m and psi
        # out of a difference of angles up to pi: the residuals are rounding,
        # measured at 2.75 ulps of 1,000 m and 7 ulps of pi over 240,000 steps
        scenario, trace, _, _, _ = circle6_run
        uav, rho, psi, v, omega = np.array([(r[1], r[5], r[6], r[8], r[9])
                                            for r in trace.rows]).T
        order = np.argsort(uav, kind="stable")
        uav, rho, psi, v, omega = (x[order] for x in (uav, rho, psi, v, omega))
        step = uav[1:] == uav[:-1]   # a row and the same UAV's next row
        assert step.sum() == 6 * 40_000
        rho_n, psi_n = batch_error_step(rho[:-1][step], psi[:-1][step], v[:-1][step],
                                        omega[:-1][step], scenario.paths[0].frame(0.0)[3],
                                        scenario.dt)
        d_rho = np.abs(rho_n - rho[1:][step])
        d_psi = np.abs((psi_n - psi[1:][step] + math.pi) % (2.0 * math.pi) - math.pi)
        assert d_rho.max() <= 4 * math.ulp(1000.0)
        assert d_psi.max() <= 8 * math.ulp(math.pi)

    def test_parallel4_steps_follow_the_error_model(self, parallel4_run):
        # the spline twin of the circle6 check: batch_error_step holds the
        # curvature kappa_k of the step's start while the projection moves on.
        # The psi rate's term kappa v cos(psi) / (1 - kappa rho) has the kappa
        # derivative v cos(psi) / (1 - kappa rho)^2, so a curvature that
        # changes by dk within the step moves psi by at most
        # dk v dt / (1 - kappa_bound max|rho|)^2, and rho (rate v sin(psi)) by
        # at most v dt / 2 times that.  On top sits circle6's rounding, with
        # rho's ulps taken at the largest coordinate.  The curvatures are the
        # run's own: its projections, replayed from the same warm starts.
        scenario, trace, _ = parallel4_run
        path_of = {u.id: scenario.paths[u.path_index] for u in scenario.uavs}
        states = {u.id: UavState(u.id, 0.0, 0.0, 0.0) for u in scenario.uavs}
        rows = sorted(trace.rows, key=lambda r: r[1])   # stable: each UAV's rows in time order
        kappa = []
        for r in rows:
            u = states[r[1]]
            u.x, u.y, u.theta = r[2], r[3], r[4]
            err = compute_error(u, path_of[r[1]])
            assert (err.rho, err.psi) == (r[5], r[6]), r[:2]
            kappa.append(err.kappa)
        uav, x, y, rho, psi, v, omega = np.array([(r[1], r[2], r[3], r[5], r[6], r[8], r[9])
                                                  for r in rows]).T
        kappa = np.array(kappa)
        step = uav[1:] == uav[:-1]   # a row and the same UAV's next row
        assert step.sum() == 4 * 15_000
        dt = scenario.dt
        v0, k0 = v[:-1][step], kappa[:-1][step]
        rho_n, psi_n = batch_error_step(rho[:-1][step], psi[:-1][step], v0, omega[:-1][step],
                                        k0, dt)
        d_rho = np.abs(rho_n - rho[1:][step])
        d_psi = np.abs((psi_n - psi[1:][step] + math.pi) % (2.0 * math.pi) - math.pi)
        shrink = (1.0 - scenario.params.kappa_bound * np.abs(rho).max()) ** 2
        psi_miss = np.abs(kappa[1:][step] - k0) * v0 * dt / shrink
        coord = max(np.abs(x).max(), np.abs(y).max())
        assert (d_psi <= psi_miss + 8 * math.ulp(math.pi)).all()
        assert (d_rho <= 0.5 * v0 * dt * psi_miss + 4 * math.ulp(coord)).all()

    @pytest.mark.xfail(strict=True, reason=(
        "SplinePath._global_project returns a NumPy-scalar s, and the fleet state "
        "stays NumPy scalars; converting it changes parallel4's golden trace bytes"))
    def test_spline_trace_has_no_numpy_scalars(self, tmp_path):
        sc = build_scenario(load_config(bundled_config_path("parallel4")), duration=0.0)
        trace, _ = run_scenario(sc)
        trace.write_csv(tmp_path / "trace.csv")
        assert "np.float64(" not in (tmp_path / "trace.csv").read_text()

    def test_validation_errors(self, params):
        sc = circle_scenario(params, [UavSpec(1, 1000.0, 0.0, 0.0)], 1.0)
        sc.dt = -1.0
        with pytest.raises(Exception):
            run_scenario(sc)
        sc = circle_scenario(params, [UavSpec(1, 1000.0, 0.0, 0.0),
                                      UavSpec(1, 990.0, 0.0, 0.0)], 1.0)
        with pytest.raises(Exception):
            run_scenario(sc)

    @pytest.mark.parametrize("change, message", [
        ({"alpha": 0.3}, r"need 0 < alpha < omega_max"),
        ({"spacing": -5.0}, r"spacing must be >= 0"),
    ], ids=["alpha-above-omega_max", "negative-spacing"])
    def test_params_the_config_rejects_do_not_run(self, change, message):
        # a hand-built circle6 with alpha 0.3 > omega_max 0.2 ran with both
        # turn-budget slacks negative, and a negative spacing ran too
        sc = build_scenario(load_config(bundled_config_path("circle6")), duration=1.0)
        sc.params = dataclasses.replace(sc.params, **change)
        with pytest.raises(ValueError, match=message):
            run_scenario(sc)


class TestStepWork:
    """What one UAV-step computes, counted: each value once."""

    def test_parallel4_frames_per_step(self, monkeypatch):
        # a warm-started step evaluates frame for two Newton iterates and the
        # projection (the first iterate reads the hint's frame); the global
        # search at each UAV's first row evaluates it 197 times in all
        frame, search = SplinePath.frame, SplinePath._global_project
        calls = {"all": 0, "search": 0}
        in_search = []

        def counted_frame(self, s):
            calls["all"] += 1
            calls["search"] += bool(in_search)
            return frame(self, s)

        def counted_search(self, px, py):
            in_search.append(True)
            try:
                return search(self, px, py)
            finally:
                in_search.pop()

        monkeypatch.setattr(SplinePath, "frame", counted_frame)
        monkeypatch.setattr(SplinePath, "_global_project", counted_search)
        sc = build_scenario(load_config(bundled_config_path("parallel4")), duration=5.0)
        trace, _ = run_scenario(sc)
        assert len(trace.rows) == 4 * 501
        assert calls == {"all": 6_197, "search": 197}
        assert calls["all"] - calls["search"] == 3 * (len(trace.rows) - 4)

    def test_circle6_one_switching_value_per_s1_command(self, monkeypatch):
        calls = []
        switching_value = error_frame.switching_value
        monkeypatch.setattr(error_frame, "switching_value",
                            lambda *a: calls.append(1) or switching_value(*a))
        sc = build_scenario(load_config(bundled_config_path("circle6")), duration=30.0)
        trace, _ = run_scenario(sc)
        s1 = sum(r[7].startswith("S1") for r in trace.rows)
        assert s1 == 7_360
        assert len(calls) == s1


class TestEscapeDemo:
    def test_all_pairs_exit_on_straight_segment(self, params):
        report = escape_demo(params, eps0=0.05, state_grid=(8, 8),
                             control_grid=(9, 9), kappa=0.0)
        assert report.exit_fraction == 1.0
        assert report.n_pairs == 64 * 81

    def test_all_pairs_exit_on_gentle_right_turn(self, params):
        report = escape_demo(params, eps0=0.05, state_grid=(6, 6),
                             control_grid=(7, 7), kappa=-0.001)
        assert report.exit_fraction == 1.0

    def test_rejects_wrong_curvature_sign(self, params):
        with pytest.raises(ValueError):
            escape_demo(params, kappa=0.001)

    def test_non_member_grid_state_raises(self, params, monkeypatch):
        # a raised error, not an assert, so the check survives python -O
        monkeypatch.setattr("cpfsim.verification.in_escape_set", lambda err, p, eps0: False)
        with pytest.raises(ValueError, match="not in the escape set"):
            escape_demo(params, eps0=0.05, state_grid=(2, 2), control_grid=(2, 2))

    def test_grid_states_are_members(self, params):
        # in particular the benign origin state is never gridded
        assert not in_escape_set(PathError(0.0, 0.0), params, 0.05)
        report = escape_demo(params, eps0=0.05, state_grid=(5, 5),
                             control_grid=(5, 5))
        assert report.n_states == 25


@pytest.mark.parametrize("case, message", [
    ("no path", "at least one path required"),
    ("no UAV", "at least one UAV required"),
    ("path index", "UAV 1: path index 1 out of range"),
])
def test_scenario_rejects_an_empty_fleet_or_a_missing_path(params, case, message):
    # the config rejects these first; a Scenario built in code must too
    sc = circle_scenario(params, [UavSpec(1, 1000.0, 0.0, math.pi / 2,
                                          path_index=int(case == "path index"))], 1.0)
    if case == "no path":
        sc.paths = []
    elif case == "no UAV":
        sc.uavs = []
    with pytest.raises(ConfigError, match=f"^{message}$"):
        sc.validate()


def test_metrics_count_overtakes_after_the_fleet_is_in_s1(params):
    # UAV 1 is in S1 from t = 0.01 on: an event at that time counts before,
    # one after it counts after
    sc = circle_scenario(params, [UavSpec(1, 1000.0, 0.0, math.pi / 2)], 0.02)
    trace = Trace()
    for t, region in ((0.0, "S2_1"), (0.01, "S1_1"), (0.02, "S1_1")):
        trace.rows.append((t, 1, 0.0, 0.0, 0.0, 0.0, 0.0, region, 0.0, 0.0, 0.0, None, 0))
    trace.events = [OvertakeEvent(0.01, 1, "pre_neighbor_change"),
                    OvertakeEvent(0.02, 1, "zeta_zero_cross")]
    m = compute_metrics(trace, sc)
    assert (m.all_in_s1_time, m.overtake_events_before, m.overtake_events_after) == (0.01, 1, 1)
