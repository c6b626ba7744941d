import dataclasses
import hashlib
import json
import math
import struct
import tracemalloc
import warnings
from pathlib import Path as FsPath

import numpy as np
import pytest

from cpfsim import paths as paths_mod
from cpfsim.config import (build_limits, build_paths, build_scenario, bundled_config_path,
                           load_config)
from cpfsim.exceptions import CurvatureBoundExceeded, DegenerateSpline, ProjectionAmbiguous
from cpfsim.paths import (CirclePath, LinePath, Projection, SplinePath, _grid_blocks,
                          waypoints_from_lonlat, wrap_angle)

from conftest import HIL_LONLAT, HIL_WAYPOINTS, draw_float, for_each_draw
from oracles import (brute_force_projection, bspline_kappa_max, clamped_knots,
                     ppoly_power_coefficients, spline_curvature_at, spline_ends, spline_eval,
                     spline_lut_whole_grid, spline_point_at, spline_project,
                     spline_projection_at, spline_tangent_angle_at)

VALLEY_WAYPOINTS = [(0.0, 2000.0), (1000.0, 600.0), (2000.0, 0.0),
                    (3000.0, 600.0), (4000.0, 2000.0)]

# _u_of_s, total_length, _head and _tail of every bundled spline, recorded
# while SplinePath built its coefficients with scipy's PPoly and evaluated
# its dense build grids in one call each.
GOLDEN_SPLINES = json.loads(
    (FsPath(__file__).parent / "golden_splines.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def bundled_splines(hil_spline):
    cfg = load_config(bundled_config_path("parallel4"))
    named = {f"parallel4[{i}]": p
             for i, p in enumerate(build_paths(cfg, build_limits(cfg).kappa_bound))}
    named["hil_spline"] = hil_spline
    named["valley"] = SplinePath(VALLEY_WAYPOINTS, kappa_bound=0.002)
    return named


def hint_at(path, s):
    """A warm start at arc length s, with the fields ``_projection_at`` stores."""
    return Projection(s, *path.frame(s), 0.0)


def _same_floats(got, want):
    # repr tells -0.0 from 0.0, which == does not
    return got == want and repr(got) == repr(want)


def _build_record(path):
    u_of_s = list(path._u_of_s)
    return {"u_of_s_len": len(u_of_s),
            "u_of_s_sha256": hashlib.sha256(struct.pack(f"<{len(u_of_s)}d", *u_of_s)).hexdigest(),
            "total_length": path.total_length,
            "head": list(path._head),
            "tail": list(path._tail)}


def test_parallel4_warm_start_agrees_with_global_projection(parallel4_run):
    # at every 50th step of each UAV: Newton started from the projection one
    # step earlier lands where the global search does, and so did the
    # simulator's own warm-started projection (its rho is in the trace)
    scenario, trace, _ = parallel4_run
    paths = {u.id: scenario.paths[u.path_index] for u in scenario.uavs}
    history = {}
    for row in trace.rows:
        history.setdefault(row[1], []).append(row)
    checked = 0
    for uav_id, rows in history.items():
        path = paths[uav_id]
        for k in range(50, len(rows), 50):
            hint = path._global_project(rows[k - 1][2], rows[k - 1][3])
            x, y, rho = rows[k][2], rows[k][3], rows[k][5]
            warm = path.project((x, y), hint)
            ref = path._global_project(x, y)
            assert abs(warm.s - ref.s) <= 1.0e-6 and abs(warm.rho - ref.rho) <= 1.0e-6, (
                uav_id, k, warm, ref)
            assert abs(rho - ref.rho) <= 1.0e-6, (uav_id, k, rho, ref)
            checked += 1
    assert checked == 4 * 300


def test_warm_start_frame_equals_newton_from_frame(bundled_splines):
    # project(q, hint) reads Newton's first frame from the hint; the
    # pre-change projection (tests/oracles.py) evaluated frame(hint.s).
    # Hints: previous projections, global (np.float64 s) and warm-started
    # (float s), projections at exactly 0 and total_length, tail projections
    # past an end, and tail projections whose s is exactly 0 or total_length
    path = bundled_splines["parallel4[0]"]
    length, r0 = path.total_length, path.r0
    rng = np.random.default_rng(25)

    def near(s, rho):
        x, y, ta, _ = path.frame(s)
        return (x - rho * math.sin(ta), y + rho * math.cos(ta))

    def previous(kind):
        s = float(rng.uniform(0.0, length))
        rho = float(rng.uniform(-0.4, 0.4)) * r0
        if kind == 0:
            return path.project(near(s, rho))
        if kind == 1:
            return path.project(near(s, rho), hint_at(path, s + float(rng.uniform(-5.0, 5.0))))
        if kind == 2:
            s = float(rng.choice([0.0, length]))
            return path._projection_at(s, *near(s, rho))
        head = bool(rng.integers(2))
        if kind == 3:
            s = float(rng.uniform(-300.0, 0.0) if head else rng.uniform(length, length + 300.0))
            p = path._tail_projection(head, *near(s, rho))
            assert p.s < 0.0 or p.s > length
            return p
        x, y, _, _ = path._head if head else path._tail
        p = path._tail_projection(head, x, y)
        assert p.s == (0.0 if head else length) and p.curvature == 0.0
        return p

    seen = set()
    for kind in [0] * 1000 + [1] * 400 + [2] * 200 + [3] * 300 + [4] * 100:
        hint = previous(kind)
        q = (hint.x + float(rng.uniform(-30.0, 30.0)), hint.y + float(rng.uniform(-30.0, 30.0)))
        got, want = path.project(q, hint), spline_project(path, q, hint.s)
        assert got == want, (kind, hint, q)
        assert list(map(type, dataclasses.astuple(got))) == \
            list(map(type, dataclasses.astuple(want))), (kind, hint, q)
        seen.add((kind, type(hint.s)))
    assert seen == {(0, np.float64), (1, float), (2, float), (3, float), (4, float)}


def _waypoint(rng):
    # waypoints on a coarse lattice repeat often (coincident knots); free
    # floats cover the generic case
    if rng.random() < 0.5:
        return (int(rng.integers(-8, 9)) * 500.0, int(rng.integers(-8, 9)) * 500.0)
    return (draw_float(rng, -1.0e4, 1.0e4), draw_float(rng, -1.0e4, 1.0e4))


def _n_waypoints(rng):
    # 4 to 29, 9 on average (as Hypothesis sizes such lists)
    return min(3 + int(rng.geometric(1.0 / 6.0)), 29)


def _waypoint_set(rng):
    # each waypoint in a run of 1 to 4 repeats (empty knot spans)
    pts = [(_waypoint(rng), int(rng.integers(1, 5))) for _ in range(_n_waypoints(rng))]
    return [p for p, repeat in pts for _ in range(repeat)][:29]


# the spline speed vanishes at the middle parameter only
SPEED_ZERO_OFF_TABLE_GRID = [(0.0, 25.0), (2.569838854429757e-291, -251.2789650284645),
                             (2.569838854429757e-291, -251.2789650284645), (0.0, 25.0)]

# the derivative recurrence overflows: infinite power coefficients
INFINITE_COEFFICIENTS = [(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (0.0, 7.46e-170)]


def _bare_spline(waypoints):
    """A SplinePath with its power coefficients and no build (no gates, no table)."""
    pts, knots = clamped_knots(waypoints)
    path = object.__new__(SplinePath)
    path._breaks, path._cx = SplinePath._power_coefficients(knots, pts[:, 0])
    _, path._cy = SplinePath._power_coefficients(knots, pts[:, 1])
    path._u_end = float(knots[-1])
    return path


def _sorted_parameters(path):
    """Every break, the float just below each, points beyond both ends and a
    uniform grid, in ascending order."""
    u_end = path._u_end
    u = list(path._breaks) + [float(np.nextafter(b, -np.inf)) for b in path._breaks]
    u += [-50.0, -1.0e-9, u_end, float(np.nextafter(u_end, np.inf)), u_end + 1.0e-9, u_end + 50.0]
    u += np.linspace(0.0, u_end, 2001).tolist()
    return np.sort(u)


def _assert_eval_vec_matches_oracle(path, u):
    for deriv in (0, 1, 2):
        want = np.array([spline_eval(path, v, deriv) for v in u.tolist()]).T
        assert np.array(path._eval_vec(u, deriv)).tobytes() == want.tobytes(), deriv


def test_wrap_angle_half_open():
    assert wrap_angle(math.pi) == -math.pi
    assert wrap_angle(-math.pi) == -math.pi
    assert wrap_angle(0.0) == 0.0
    assert abs(wrap_angle(3.0 * math.pi / 2.0) - (-math.pi / 2.0)) < 1e-12
    for x in np.linspace(-20.0, 20.0, 1001):
        w = wrap_angle(float(x))
        assert -math.pi <= w < math.pi


class TestCircle:
    def test_anchor_points(self, circle):
        x, y = circle.frame(0.0)[:2]
        assert (x, y) == pytest.approx((1000.0, 0.0), abs=1e-9)
        # half circumference is 1000*pi for r = 1000
        x, y = circle.frame(1000.0 * math.pi)[:2]
        assert (x, y) == pytest.approx((-1000.0, 0.0), abs=1e-6)
        x, y = circle.frame(500.0 * math.pi)[:2]  # quarter
        assert (x, y) == pytest.approx((0.0, 1000.0), abs=1e-6)

    def test_closure(self, circle):
        for s in (0.0, 123.4, 5000.0):
            a = circle.frame(s)[:2]
            b = circle.frame(s + circle.total_length)[:2]
            assert a == pytest.approx(b, abs=1e-6)

    def test_curvature_sign(self, circle):
        for s in np.linspace(0, circle.total_length, 17):
            assert circle.frame(float(s))[3] == pytest.approx(0.001)
        cw = CirclePath((0.0, 0.0), 1000.0, "cw", kappa_bound=0.002)
        assert cw.frame(100.0)[3] == pytest.approx(-0.001)

    def test_projection_interior_point(self, circle):
        pr = circle.project((600.0, 0.0))
        assert pr.s == pytest.approx(0.0, abs=1e-9)
        assert (pr.x, pr.y) == pytest.approx((1000.0, 0.0))
        assert pr.rho == pytest.approx(400.0)  # interior of a ccw circle is its left
        assert pr.tangent_angle == pytest.approx(math.pi / 2.0)

    def test_projection_on_path(self, circle):
        assert circle.project((1000.0, 0.0)).rho == pytest.approx(0.0, abs=1e-12)

    def test_projection_center_ambiguous(self, circle):
        with pytest.raises(ProjectionAmbiguous):
            circle.project((0.0, 0.0))

    def test_round_trip(self, circle):
        for s in np.linspace(0.0, circle.total_length, 400, endpoint=False):
            pr = circle.project(circle.frame(float(s))[:2])
            assert abs(pr.s - s) < 1e-6

    def test_rejects_overtight_curvature(self):
        with pytest.raises(CurvatureBoundExceeded):
            CirclePath((0.0, 0.0), 400.0, "ccw", kappa_bound=0.002)


class TestLine:
    def test_geometry(self):
        line = LinePath((0.0, 0.0), 0.0)
        assert line.frame(3.0)[:2] == pytest.approx((3.0, 0.0))
        assert line.frame(10.0)[3] == 0.0
        pr = line.project((3.0, -2.0))
        assert pr.s == pytest.approx(3.0)
        assert pr.rho == pytest.approx(-2.0)  # right of the direction of travel


class TestSpline:
    def test_starts_at_first_waypoint(self, hil_spline):
        assert hil_spline.frame(0.0)[:2] == pytest.approx((0.0, 0.0), abs=1e-9)

    def test_curvature_bound_dense_oracle(self, hil_spline):
        # independent finite-difference scan at 0.1 m resolution
        s = np.arange(0.0, hil_spline.total_length, 0.1)
        pts = np.array([hil_spline.frame(float(v))[:2] for v in s])
        d1 = np.gradient(pts, s, axis=0)
        d2 = np.gradient(d1, s, axis=0)
        speed = np.hypot(d1[:, 0], d1[:, 1])
        kappa_fd = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / speed ** 3
        assert np.abs(kappa_fd[5:-5]).max() < 0.002
        kappa_lib = np.array([hil_spline.frame(float(v))[3] for v in s])
        assert np.abs(kappa_lib - kappa_fd)[5:-5].max() < 1e-4

    def test_rejects_curvature_violation(self):
        with pytest.raises(CurvatureBoundExceeded):
            SplinePath(HIL_WAYPOINTS, kappa_bound=0.001)

    def test_degenerate_spline(self):
        with pytest.raises(DegenerateSpline):
            SplinePath([(0.0, 0.0)] * 4, kappa_bound=0.002)
        with pytest.raises(DegenerateSpline):
            SplinePath([(0.0, 0.0), (0.0, 0.0), (0.0, 0.0), (100.0, 0.0)],
                       kappa_bound=0.002)

    @pytest.mark.parametrize("kappa_bound", [0.002, math.inf])
    def test_speed_vanishing_on_the_curvature_grid_is_degenerate(self, kappa_bound):
        # the speed vanishes at the middle parameter, which the table's grid
        # misses and the curvature grid holds: the curvature read 0/0 and the
        # build raised CurvatureBoundExceeded("spline curvature nan") with a
        # RuntimeWarning
        wps = SPEED_ZERO_OFF_TABLE_GRID
        assert spline_lut_whole_grid(_bare_spline(wps), 0.1) is not None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSpline, match="curvature grid"):
                SplinePath(wps, kappa_bound=kappa_bound)

    def test_infinite_coefficients_are_degenerate_without_a_warning(self):
        # inf * 0 at the span start warned before the table's speed gate raised
        with pytest.raises(DegenerateSpline, match="non-finite spline coefficients"):
            SplinePath(INFINITE_COEFFICIENTS)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (3, 1), (6, 0)])
    def test_non_finite_waypoint_is_degenerate(self, bad, where):
        # was a bare ValueError from the build grids
        wps = [list(w) for w in HIL_WAYPOINTS]
        wps[where[0]][where[1]] = bad
        with pytest.raises(DegenerateSpline, match="non-finite"):
            SplinePath(wps, kappa_bound=0.002)

    def test_tangent_consistent_with_points(self, hil_spline):
        h = 0.05
        for s in np.linspace(10.0, hil_spline.total_length - 10.0, 60):
            x0, y0 = hil_spline.frame(float(s) - h)[:2]
            x1, y1 = hil_spline.frame(float(s) + h)[:2]
            fd = math.atan2(y1 - y0, x1 - x0)
            assert abs(wrap_angle(fd - hil_spline.frame(float(s))[2])) < 1e-3
            # unit-speed parameterization: chord over arc close to 1
            assert math.hypot(x1 - x0, y1 - y0) / (2 * h) == pytest.approx(1.0, abs=1e-3)

    def test_round_trip(self, hil_spline):
        for s in np.linspace(0.0, hil_spline.total_length, 300):
            pr = hil_spline.project(hil_spline.frame(float(s))[:2])
            assert abs(pr.s - s) < 1e-6

    def test_warm_start_round_trip(self, hil_spline):
        for s in np.linspace(5.0, hil_spline.total_length - 5.0, 100):
            pr = hil_spline.project(hil_spline.frame(float(s))[:2],
                                    hint_at(hil_spline, float(s) + 4.0))
            assert abs(pr.s - s) < 1e-6

    def test_projection_optimality_vs_brute_force(self, hil_spline):
        rng = np.random.default_rng(7)
        for _ in range(60):
            s = rng.uniform(0.0, hil_spline.total_length)
            rho = rng.uniform(-480.0, 480.0)
            x, y, ta, _ = hil_spline.frame(s)
            q = (x - rho * math.sin(ta), y + rho * math.cos(ta))
            pr = hil_spline.project(q)
            found = math.hypot(pr.x - q[0], pr.y - q[1])
            assert found <= brute_force_projection(hil_spline, q) + 1e-4

    def test_projection_orthogonality(self, hil_spline):
        rng = np.random.default_rng(11)
        for _ in range(200):
            q = (rng.uniform(-500.0, 12500.0), rng.uniform(-2500.0, 2500.0))
            pr = hil_spline.project(q)
            tx, ty = math.cos(pr.tangent_angle), math.sin(pr.tangent_angle)
            ex, ey = q[0] - pr.x, q[1] - pr.y
            norm = math.hypot(ex, ey)
            if norm > 1e-9:
                assert abs(ex * tx + ey * ty) <= 1e-9 * norm

    def test_ambiguous_far_point_on_symmetry_axis(self):
        valley = SplinePath(VALLEY_WAYPOINTS, kappa_bound=0.002)
        with pytest.raises(ProjectionAmbiguous):
            valley.project((2000.0, 2500.0))
        # off-axis points stay unique
        assert valley.project((2100.0, 2500.0)).rho != 0.0

    def test_evaluators_match_reference_exactly(self, hil_spline):
        length = hil_spline.total_length
        grid = [0.0, length, -0.0, float(np.nextafter(length, 0.0))]
        grid += [float(v) for v in np.linspace(0.0, length, 20_001)]
        grid += [float(v) for v in np.random.default_rng(3).uniform(0.0, length, 5_000)]
        for s in grid:
            x, y = spline_point_at(hil_spline, s)
            ta = spline_tangent_angle_at(hil_spline, s)
            kappa = spline_curvature_at(hil_spline, s)
            assert hil_spline.frame(s) == (x, y, ta, kappa), s
        # _eval_vec takes sorted parameters; the same points, in order
        u = np.sort([hil_spline._u_at(s) for s in grid])
        for deriv in (0, 1, 2):
            ref = np.array([spline_eval(hil_spline, v, deriv) for v in u.tolist()]).T
            assert np.array_equal(np.array(hil_spline._eval_vec(u, deriv)), ref), deriv
        assert (hil_spline._head, hil_spline._tail) == spline_ends(hil_spline)
        ends = hil_spline._head + hil_spline._tail
        assert all(type(v) is float for v in ends + tuple(hil_spline._u_of_s))

    def test_spline_projection_at_matches_reference(self, hil_spline):
        rng = np.random.default_rng(19)
        for s in rng.uniform(0.0, hil_spline.total_length, 2_000):
            px, py = rng.uniform(-500.0, 12500.0), rng.uniform(-2500.0, 2500.0)
            assert hil_spline._projection_at(float(s), px, py) == \
                spline_projection_at(hil_spline, float(s), px, py)

    def test_power_coefficients_equal_ppoly(self, bundled_splines):
        for name, path in bundled_splines.items():
            pts, knots = clamped_knots(path.waypoints)
            breaks, cx = ppoly_power_coefficients(knots, pts[:, 0])
            _, cy = ppoly_power_coefficients(knots, pts[:, 1])
            assert _same_floats((path._breaks, path._cx, path._cy), (breaks, cx, cy)), name
            floats = path._breaks + [c for col in path._cx + path._cy for c in col]
            assert all(type(v) is float for v in floats), name

    @staticmethod
    def _check_power_coefficients(waypoints):
        pts, knots = clamped_knots(waypoints)
        if not knots[-1] > 0.0:
            return  # all waypoints coincide: the constructor raises DegenerateSpline
        for coord in (pts[:, 0], pts[:, 1]):
            assert _same_floats(SplinePath._power_coefficients(knots, coord),
                                ppoly_power_coefficients(knots, coord))

    @pytest.mark.parametrize("waypoints", [
        [(0.0, 0.0), (500.0, 0.0), (500.0, 0.0), (500.0, 0.0), (500.0, 0.0),
         (1000.0, 300.0), (1500.0, 0.0)],
        [(0.0, 0.0), (300.0, 200.0), (600.0, 0.0), (900.0, 100.0),
         (900.0, 100.0), (900.0, 100.0), (900.0, 100.0)],
    ], ids=["interior", "at_the_end"])
    def test_power_coefficients_equal_ppoly_at_coincident_knots(self, waypoints):
        # coincident interior knots; an interior knot equal to the end knots
        self._check_power_coefficients(waypoints)

    def test_power_coefficients_equal_ppoly_with_repeats(self):
        rng = np.random.default_rng(1)
        for_each_draw(400, lambda: (_waypoint_set(rng),), self._check_power_coefficients)

    def test_build_equals_recorded(self, bundled_splines):
        assert set(bundled_splines) == set(GOLDEN_SPLINES)
        for name, path in bundled_splines.items():
            assert _build_record(path) == GOLDEN_SPLINES[name], name

    def test_build_does_not_depend_on_block_size(self, monkeypatch, hil_spline):
        monkeypatch.setattr(paths_mod, "_BUILD_BLOCK", 997)
        assert _build_record(SplinePath(HIL_WAYPOINTS, kappa_bound=0.002)) == \
            _build_record(hil_spline)

    def test_eval_vec_matches_oracle_at_breaks_and_beyond_ends(self, bundled_splines):
        for path in bundled_splines.values():
            _assert_eval_vec_matches_oracle(path, _sorted_parameters(path))

    def test_eval_vec_matches_oracle_with_many_spans(self):
        def check(waypoints):
            _, knots = clamped_knots(waypoints)
            if not knots[-1] > 0.0:
                return  # all waypoints coincide: the constructor raises DegenerateSpline
            path = _bare_spline(waypoints)
            if not np.isfinite(path._cx + path._cy).all():
                return  # the constructor raises DegenerateSpline
            _assert_eval_vec_matches_oracle(path, _sorted_parameters(path))

        rng = np.random.default_rng(2)
        for_each_draw(150, lambda: (_waypoint_set(rng),), check)

    def test_eval_vec_rejects_decreasing_parameters(self, hil_spline):
        for deriv in (0, 1, 2):
            with pytest.raises(ValueError, match="non-decreasing"):
                hil_spline._eval_vec(np.array([0.0, 10.0, 10.0, 9.0]), deriv)
        x, y = hil_spline._eval_vec(np.empty(0), 0)
        assert x.shape == y.shape == (0,)

    @pytest.mark.parametrize("block", [997, 16384])
    @pytest.mark.parametrize("lut_step", [0.1, 0.07, 0.5, 3.0])
    def test_build_equals_whole_grid_build(self, monkeypatch, block, lut_step):
        monkeypatch.setattr(paths_mod, "_BUILD_BLOCK", block)
        monkeypatch.setattr(paths_mod, "_LUT_STEP", lut_step)
        path = SplinePath(HIL_WAYPOINTS, kappa_bound=0.002)
        assert _same_floats((path.total_length, list(path._u_of_s)),
                            spline_lut_whole_grid(path, lut_step))
        assert len(path._u_of_s) == len(np.arange(0.0, path.total_length + lut_step, lut_step))

    @staticmethod
    def _check_build_equals_whole_grid_build(waypoints, lut_step):
        _, knots = clamped_knots(waypoints)
        if not knots[-1] > 0.0:
            return
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(paths_mod, "_BUILD_BLOCK", 997)
            mp.setattr(paths_mod, "_LUT_STEP", lut_step)
            try:
                path = SplinePath(waypoints, kappa_bound=math.inf)
            except DegenerateSpline as exc:
                # the table's speed gate fails as on the whole grid; the
                # curvature grid's fails only after the table was built.
                # Near-coincident knots give the oracle infinite coefficients,
                # and inf * 0 is NaN.
                with np.errstate(invalid="ignore"):
                    table = spline_lut_whole_grid(_bare_spline(waypoints), lut_step)
                assert (table is None) == ("curvature grid" not in str(exc))
                return
            except CurvatureBoundExceeded:
                return  # an infinite or NaN curvature; the table was built
        assert _same_floats((path.total_length, list(path._u_of_s)),
                            spline_lut_whole_grid(path, lut_step))

    @pytest.mark.parametrize("waypoints", [SPEED_ZERO_OFF_TABLE_GRID, INFINITE_COEFFICIENTS],
                             ids=["speed_zero_off_table_grid", "infinite_coefficients"])
    def test_build_equals_whole_grid_build_at_degenerate_spans(self, waypoints):
        self._check_build_equals_whole_grid_build(waypoints, 0.1)

    def test_build_equals_whole_grid_build_with_many_spans(self):
        # waypoints within 500 m keep the fine grids below about 200k points; runs
        # of repeats would make most speeds vanish, so only the lattice repeats
        rng = np.random.default_rng(3)

        def draw():
            waypoints = [_waypoint(rng) for _ in range(_n_waypoints(rng))]
            return ([(x / 20.0, y / 20.0) for x, y in waypoints],
                    [0.1, 0.07, 0.5][rng.integers(3)])

        for_each_draw(100, draw, self._check_build_equals_whole_grid_build)

    def test_u_many_equals_u_at(self, bundled_splines):
        # the global projection's scan reads the table through _u_at's floats
        rng = np.random.default_rng(0)
        for name, path in bundled_splines.items():
            axis = np.arange(len(path._u_of_s)) * path._lut_step
            s = np.concatenate([
                rng.uniform(0.0, path.total_length, 20_000),
                axis[::97], np.nextafter(axis[1::89], 0.0), np.nextafter(axis[::89], np.inf),
                axis[-2:], [path.total_length, axis[-1] + 1.0, 1.0e9],
                [-0.5 * path._lut_step, -path._lut_step, -1.0, -1.0e9],
                np.linspace(0.0, path.total_length, int(path.total_length / 10.0) + 1)])
            assert path._u_many(s).tolist() == [path._u_at(x) for x in s.tolist()], name

    @pytest.mark.parametrize("kind", [float, np.float64])
    def test_frame_off_the_ends_is_the_straight_extension(self, bundled_splines, kind):
        # the parts and their types, which the parallel4 golden's np.float64
        # cells pin; the extension's curvature is 0.0
        for name, path in bundled_splines.items():
            length = path.total_length
            for s in (-1.0e6, -10.0, -1.0e-9, -5.0e-324, float(np.nextafter(length, np.inf)),
                      length + 1.0e-9, length + 10.0, length + 1.0e6):
                s = kind(s)
                want = (*spline_point_at(path, s), spline_tangent_angle_at(path, s), 0.0)
                got = path.frame(s)
                assert got == want and list(map(type, got)) == list(map(type, want)), (name, s)
                assert spline_curvature_at(path, s) == 0.0

    def test_projection_past_an_end_is_the_tail_projection(self, bundled_splines):
        # Newton starts on the spline near the end and steps onto the
        # straight extension, where it must find the closed-form projection
        for name, path in bundled_splines.items():
            for head in (True, False):
                x, y, ux, uy = path._head if head else path._tail
                sign = -1.0 if head else 1.0
                hint = 1.0 if head else path.total_length - 1.0
                for along, across in ((30.0, 0.0), (200.0, 40.0), (5.0, -60.0)):
                    q = (x + sign * along * ux - across * uy, y + sign * along * uy + across * ux)
                    s = path._newton_refine(*q, hint)
                    assert s < 0.0 if head else s > path.total_length, (name, head, s)
                    tail = path._tail_projection(head, *q)
                    assert path.project(q, hint_at(path, hint)) == tail == \
                        path._global_project(*q), name

    def test_build_peak_memory(self, bundled_splines):
        # the dense grids are built and reduced block by block; the whole
        # grids took about 10 MB
        ref = bundled_splines["parallel4[0]"]
        tracemalloc.start()
        try:
            SplinePath(ref.waypoints, kappa_bound=ref.kappa_bound)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.0e6, peak

    # The gates compare the min speed and the max curvature of a whole grid;
    # a NaN anywhere makes those NaN, and a NaN fails the gate.  The grids are
    # evaluated in blocks, and a NaN and a failing value in different blocks
    # must decide as in one call, in either order.

    @staticmethod
    def _spoil(monkeypatch, deriv, bad, nan, bad_first):
        """Patch _eval_vec: derivative ``deriv`` is ``(bad, bad)`` on the first
        (``bad_first``) or last 2 % of u, and with ``nan`` its x is NaN on the other end."""
        evaluate = SplinePath._eval_vec

        def eval_vec(self, u, d):
            x, y = evaluate(self, u, d)
            if d != deriv or len(u) <= 2:   # leave the end tangents alone
                return x, y
            first, last = u < 0.02 * self._u_end, u > 0.98 * self._u_end
            at_bad, at_nan = (first, last) if bad_first else (last, first)
            x, y = np.where(at_bad, bad, x), np.where(at_bad, bad, y)
            if nan:
                x = np.where(at_nan, np.nan, x)
            return x, y

        monkeypatch.setattr(paths_mod, "_BUILD_BLOCK", 997)
        monkeypatch.setattr(SplinePath, "_eval_vec", eval_vec)

    @pytest.mark.parametrize("bad_first", [True, False])
    def test_speed_gate_with_nan_decides_as_the_whole_grid(self, monkeypatch, bad_first):
        self._spoil(monkeypatch, 1, 0.0, False, bad_first)
        with pytest.raises(DegenerateSpline):
            SplinePath(VALLEY_WAYPOINTS, kappa_bound=1.0)
        self._spoil(monkeypatch, 1, 0.0, True, bad_first)
        with pytest.raises(DegenerateSpline):
            SplinePath(VALLEY_WAYPOINTS, kappa_bound=1.0)
        # the NaN alone, beside an admissible speed
        self._spoil(monkeypatch, 1, 1.0, True, bad_first)
        with pytest.raises(DegenerateSpline):
            SplinePath(VALLEY_WAYPOINTS, kappa_bound=1.0)

    @pytest.mark.parametrize("bad_first", [True, False])
    def test_curvature_gate_with_nan_decides_as_the_whole_grid(self, monkeypatch, bad_first):
        self._spoil(monkeypatch, 2, 1.0e6, False, bad_first)
        with pytest.raises(CurvatureBoundExceeded):
            SplinePath(VALLEY_WAYPOINTS, kappa_bound=0.002)
        self._spoil(monkeypatch, 2, 1.0e6, True, bad_first)
        with pytest.raises(CurvatureBoundExceeded):
            SplinePath(VALLEY_WAYPOINTS, kappa_bound=0.002)
        # the NaN alone, beside a straight stretch
        self._spoil(monkeypatch, 2, 0.0, True, bad_first)
        with pytest.raises(CurvatureBoundExceeded):
            SplinePath(VALLEY_WAYPOINTS, kappa_bound=0.002)

    @pytest.mark.parametrize("waypoints", [HIL_WAYPOINTS, VALLEY_WAYPOINTS],
                             ids=["hil", "valley"])
    def test_curvature_gate_decides_as_bspline(self, waypoints):
        length = SplinePath(waypoints, kappa_bound=1.0).total_length
        kappa_max = bspline_kappa_max(waypoints, length)
        SplinePath(waypoints, kappa_bound=kappa_max + 1e-9)
        with pytest.raises(CurvatureBoundExceeded):
            SplinePath(waypoints, kappa_bound=kappa_max - 1e-9)

    def test_warm_start_agrees_with_global_projection(self, hil_spline):
        # a point |rho| < r0/2 off the path at s, warm-started a few meters away
        def check(frac, rho_frac, offset):
            s = frac * hil_spline.total_length
            rho = rho_frac * hil_spline.r0
            x, y, ta, _ = hil_spline.frame(s)
            p = (x - rho * math.sin(ta), y + rho * math.cos(ta))
            warm = hil_spline.project(p, hint_at(hil_spline, s + offset))
            cold = hil_spline._global_project(*p)
            assert abs(warm.s - cold.s) <= 1e-6
            assert abs(warm.rho - cold.rho) <= 1e-6

        rng = np.random.default_rng(4)
        inside = math.nextafter(0.5, 0.0)   # rho_frac lies in the open (-0.5, 0.5)
        for_each_draw(500, lambda: (draw_float(rng, 0.0, 1.0), draw_float(rng, -inside, inside),
                                    draw_float(rng, -5.0, 5.0)), check)

    def test_extrapolation_beyond_ends(self, hil_spline):
        x0, y0 = hil_spline.frame(0.0)[:2]
        xm, ym = hil_spline.frame(-50.0)[:2]
        ta = hil_spline.frame(-1.0)[2]
        assert (xm, ym) == pytest.approx((x0 - 50.0 * math.cos(ta),
                                          y0 - 50.0 * math.sin(ta)), abs=1e-6)
        assert hil_spline.frame(-1.0)[3] == 0.0
        pr = hil_spline.project(hil_spline.frame(hil_spline.total_length + 40.0)[:2])
        assert pr.s == pytest.approx(hil_spline.total_length + 40.0, abs=1e-6)


HIL_LONLAT_WAYPOINTS = waypoints_from_lonlat(HIL_LONLAT, origin=HIL_LONLAT[0])


def _offset(rng):
    # integer offsets often keep the base shape's bytes (a shared table), two
    # decimals and free floats seldom do (a table of its own)
    kind = rng.integers(3)
    if kind == 0:
        return (int(rng.integers(-5000, 5001)), int(rng.integers(-5000, 5001)))
    if kind == 1:
        return (int(rng.integers(-500_000, 500_001)) / 100.0,
                int(rng.integers(-500_000, 500_001)) / 100.0)
    return (draw_float(rng, -5000.0, 5000.0), draw_float(rng, -5000.0, 5000.0))


class TestSharedShapes:
    """Paths of one ``build_paths`` call that have the same shape share one table."""

    @staticmethod
    def _shifted(base, offset):
        return [(x + offset[0], y + offset[1]) for x, y in base]

    @classmethod
    def _check_shared_build(cls, base, offset, seed):
        shapes = {}
        SplinePath(base, _shapes=shapes)
        wps = cls._shifted(base, offset)
        shared = SplinePath(wps, _shapes=shapes)
        alone = SplinePath(wps)
        assert np.asarray(shared._u_of_s).tobytes() == np.asarray(alone._u_of_s).tobytes()
        assert _same_floats((shared.total_length, shared._cx, shared._cy, shared._head,
                             shared._tail),
                            (alone.total_length, alone._cx, alone._cy, alone._head,
                             alone._tail))
        # points within r0 of the path, beyond both ends too, cold and warm-started
        rng = np.random.default_rng(seed)
        for s, rho in zip(rng.uniform(-200.0, alone.total_length + 200.0, 8).tolist(),
                          rng.uniform(-0.8, 0.8, 8).tolist()):
            x, y, ta, _ = alone.frame(s)
            q = (x - rho * alone.r0 * math.sin(ta), y + rho * alone.r0 * math.cos(ta))
            assert shared.project(q) == alone.project(q)
            assert shared.project(q, hint_at(shared, s)) == alone.project(q, hint_at(alone, s))

    @pytest.mark.parametrize("base, offset, hit", [
        (HIL_WAYPOINTS, (0.0, 100.0), True), (HIL_WAYPOINTS, (0.37, 12.91), False),
        (HIL_LONLAT_WAYPOINTS, (0.0, -37.0), True), (HIL_LONLAT_WAYPOINTS, (0.0, 100.0), False),
    ])
    def test_offset_copies_hit_or_miss(self, base, offset, hit):
        # a shifted copy is not a bit-exact translate: its columns decide
        shapes = {}
        first = SplinePath(base, _shapes=shapes)
        copy = SplinePath(self._shifted(base, offset), _shapes=shapes)
        assert (copy._u_of_s is first._u_of_s) == hit
        assert len(shapes) == (1 if hit else 2)
        self._check_shared_build(base, offset, 0)

    def test_shared_build_equals_standalone_build(self):
        rng = np.random.default_rng(5)
        bases = [HIL_WAYPOINTS, HIL_LONLAT_WAYPOINTS]
        for_each_draw(60, lambda: (bases[rng.integers(2)], _offset(rng),
                                   int(rng.integers(0, 2**32))), self._check_shared_build)

    def test_parallel4_builds_one_table_per_call(self, monkeypatch):
        builds = []
        build_lut = SplinePath._build_lut

        def counted(path):
            builds.append(path)
            build_lut(path)

        monkeypatch.setattr(SplinePath, "_build_lut", counted)
        cfg = load_config(bundled_config_path("parallel4"))
        first = build_scenario(cfg).paths
        assert len(builds) == 1
        assert len(first) == 4 and all(p._u_of_s is first[0]._u_of_s for p in first)
        # the store lives for one call: a second scenario builds its own
        second = build_scenario(cfg).paths
        assert len(builds) == 2
        assert all(p._u_of_s is second[0]._u_of_s for p in second)
        assert second[0]._u_of_s is not first[0]._u_of_s

    def test_failed_build_stores_nothing(self):
        shapes = {}
        with pytest.raises(CurvatureBoundExceeded):
            SplinePath(HIL_WAYPOINTS, kappa_bound=0.001, _shapes=shapes)
        assert shapes == {}
        SplinePath(HIL_WAYPOINTS, kappa_bound=0.002, _shapes=shapes)
        # the bound is part of the shape: the stored table passes no other bound
        with pytest.raises(CurvatureBoundExceeded):
            SplinePath(HIL_WAYPOINTS, kappa_bound=0.001, _shapes=shapes)
        assert len(shapes) == 1

    @pytest.mark.parametrize("scale", [1e299, 1e5])
    def test_giant_table_raises_before_the_build(self, monkeypatch, scale):
        # a 1.7e303 m and a 1.7e9 m control polygon: 1.7e304 and 1.7e10 entries
        monkeypatch.setattr(SplinePath, "_build_lut", None)   # nothing is allocated
        with pytest.raises(ValueError, match=r"^control polygon of 1\.69872e\+(303|09) m is "
                                             r"too long for an arc-length table of at most "
                                             r"1e\+08 entries$"):
            SplinePath([(x * scale, y * scale) for x, y in HIL_WAYPOINTS])

    def test_control_polygon_bounds_the_table(self, monkeypatch):
        # the cap is inclusive: u_end / _LUT_STEP + 2 entries fit, half an entry less does not
        n_max = SplinePath(HIL_WAYPOINTS)._u_end / paths_mod._LUT_STEP + 2.0
        monkeypatch.setattr(paths_mod, "MAX_LUT_ENTRIES", n_max)
        assert len(SplinePath(HIL_WAYPOINTS)._u_of_s) <= n_max
        monkeypatch.setattr(paths_mod, "MAX_LUT_ENTRIES", n_max - 0.5)
        monkeypatch.setattr(SplinePath, "_build_lut", None)
        with pytest.raises(ValueError, match="control polygon of .* is too long"):
            SplinePath(HIL_WAYPOINTS)


@pytest.mark.parametrize("block", [997, 16384])
def test_grid_blocks_equal_linspace(monkeypatch, block):
    monkeypatch.setattr(paths_mod, "_BUILD_BLOCK", block)
    for stop in (1.0, 12345.678, 16987.39162):
        for n in (2, 3, 996, 997, 998, 1994, 1995, 1996, 4000, 16384, 16385, 16386, 339_745):
            want = np.linspace(0.0, stop, n).tobytes()
            assert np.concatenate(list(_grid_blocks(stop, n))).tobytes() == want, (stop, n)
            shared = list(_grid_blocks(stop, n, share=1))
            assert all(a[-1] == b[0] for a, b in zip(shared, shared[1:])), (stop, n)
            joined = np.concatenate([shared[0]] + [b[1:] for b in shared[1:]])
            assert joined.tobytes() == want, (stop, n)


def test_curvature_many_equals_frame(circle, hil_spline):
    paths = [circle, CirclePath((5.0, -3.0), 800.0, "cw", 0.002),
             LinePath((1.0, 2.0), 0.3), hil_spline]
    for path in paths:
        label = type(path).__name__
        s = np.random.default_rng(5).uniform(-100.0, path.total_length + 100.0, 500)
        s = np.concatenate([[-10.0, 0.0, path.total_length], s])
        got = path.curvature_many(s)
        assert got.dtype == np.float64 and got.shape == s.shape, label
        assert _same_floats(got.tolist(), [path.frame(x)[3] for x in s.tolist()]), label
        assert path.curvature_many(np.empty(0)).shape == (0,), label


def test_lonlat_conversion_matches_table():
    wps = waypoints_from_lonlat(HIL_LONLAT, origin=HIL_LONLAT[0])
    assert wps[0] == pytest.approx((0.0, 0.0), abs=1e-9)
    for (x, y), (xt, yt) in zip(wps[1:], HIL_WAYPOINTS[1:]):
        assert x == pytest.approx(xt, rel=5e-3)
        assert y == pytest.approx(yt, rel=5e-3, abs=15.0)
