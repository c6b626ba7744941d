import hashlib
import json
import math
import struct
import tracemalloc
import warnings
from pathlib import Path as FsPath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpfsim import paths as paths_mod
from cpfsim.config import build_limits, build_paths, bundled_config_path, load_config
from cpfsim.exceptions import CurvatureBoundExceeded, DegenerateSpline, ProjectionAmbiguous
from cpfsim.paths import (CirclePath, LinePath, SplinePath, _grid_blocks, waypoints_from_lonlat,
                          wrap_angle)

from conftest import HIL_LONLAT, HIL_WAYPOINTS
from oracles import (brute_force_projection, bspline_kappa_max, clamped_knots,
                     ppoly_power_coefficients, spline_curvature_at, spline_ends, spline_eval,
                     spline_lut_whole_grid, spline_point_at, spline_projection_at,
                     spline_tangent_angle_at)

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
            hint = path._global_project(rows[k - 1][2], rows[k - 1][3]).s
            x, y, rho = rows[k][2], rows[k][3], rows[k][5]
            warm = path.project((x, y), hint)
            ref = path._global_project(x, y)
            assert abs(warm.s - ref.s) <= 1.0e-6 and abs(warm.rho - ref.rho) <= 1.0e-6, (
                uav_id, k, warm, ref)
            assert abs(rho - ref.rho) <= 1.0e-6, (uav_id, k, rho, ref)
            checked += 1
    assert checked == 4 * 300


# Waypoints on a coarse lattice repeat often (coincident knots); free floats
# cover the generic case.  Runs of repeats make empty knot spans.
_waypoint = (st.tuples(st.integers(-8, 8), st.integers(-8, 8)).map(
                 lambda p: (p[0] * 500.0, p[1] * 500.0))
             | st.tuples(st.floats(-1.0e4, 1.0e4), st.floats(-1.0e4, 1.0e4)))


@st.composite
def _waypoint_sets(draw):
    pts = draw(st.lists(st.tuples(_waypoint, st.integers(1, 4)), min_size=4, max_size=29))
    return [p for p, repeat in pts for _ in range(repeat)][:29]


# the spline speed vanishes at the middle parameter only
SPEED_ZERO_OFF_TABLE_GRID = [(0.0, 25.0), (2.569838854429757e-291, -251.2789650284645),
                             (2.569838854429757e-291, -251.2789650284645), (0.0, 25.0)]


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
        x, y = circle.point_at(0.0)
        assert (x, y) == pytest.approx((1000.0, 0.0), abs=1e-9)
        # half circumference is 1000*pi for r = 1000
        x, y = circle.point_at(1000.0 * math.pi)
        assert (x, y) == pytest.approx((-1000.0, 0.0), abs=1e-6)
        x, y = circle.point_at(500.0 * math.pi)  # quarter
        assert (x, y) == pytest.approx((0.0, 1000.0), abs=1e-6)

    def test_closure(self, circle):
        for s in (0.0, 123.4, 5000.0):
            a = circle.point_at(s)
            b = circle.point_at(s + circle.total_length)
            assert a == pytest.approx(b, abs=1e-6)

    def test_curvature_sign(self, circle):
        for s in np.linspace(0, circle.total_length, 17):
            assert circle.curvature_at(float(s)) == pytest.approx(0.001)
        cw = CirclePath((0.0, 0.0), 1000.0, "cw", kappa_bound=0.002)
        assert cw.curvature_at(100.0) == pytest.approx(-0.001)

    def test_projection_interior_point(self, circle):
        pr = circle.project((600.0, 0.0))
        assert pr.s == pytest.approx(0.0, abs=1e-9)
        assert pr.point == pytest.approx((1000.0, 0.0))
        assert pr.rho == pytest.approx(400.0)  # interior of a ccw circle is its left
        assert pr.tangent_angle == pytest.approx(math.pi / 2.0)

    def test_projection_on_path(self, circle):
        assert circle.project((1000.0, 0.0)).rho == pytest.approx(0.0, abs=1e-12)

    def test_projection_center_ambiguous(self, circle):
        with pytest.raises(ProjectionAmbiguous):
            circle.project((0.0, 0.0))

    def test_round_trip(self, circle):
        for s in np.linspace(0.0, circle.total_length, 400, endpoint=False):
            pr = circle.project(circle.point_at(float(s)))
            assert abs(pr.s - s) < 1e-6

    def test_rejects_overtight_curvature(self):
        with pytest.raises(CurvatureBoundExceeded):
            CirclePath((0.0, 0.0), 400.0, "ccw", kappa_bound=0.002)

    def test_arc_distance(self, circle):
        L = 1000.0 * math.pi / 3.0
        assert circle.arc_distance(0.0, L) == pytest.approx(1047.1975511965976)
        assert circle.arc_distance(77.0, 77.0) == 0.0
        C = circle.total_length
        assert circle.arc_distance(C - 1.0, 1.0) == pytest.approx(2.0)


class TestLine:
    def test_geometry(self):
        line = LinePath((0.0, 0.0), 0.0)
        assert line.point_at(3.0) == pytest.approx((3.0, 0.0))
        assert line.curvature_at(10.0) == 0.0
        pr = line.project((3.0, -2.0))
        assert pr.s == pytest.approx(3.0)
        assert pr.rho == pytest.approx(-2.0)  # right of the direction of travel

    def test_arc_distance_signed(self):
        line = LinePath((0.0, 0.0), 0.5)
        assert line.arc_distance(10.0, 4.0) == pytest.approx(-6.0)


class TestSpline:
    def test_starts_at_first_waypoint(self, hil_spline):
        assert hil_spline.point_at(0.0) == pytest.approx((0.0, 0.0), abs=1e-9)

    def test_curvature_bound_dense_oracle(self, hil_spline):
        # independent finite-difference scan at 0.1 m resolution
        s = np.arange(0.0, hil_spline.total_length, 0.1)
        pts = np.array([hil_spline.point_at(float(v)) for v in s])
        d1 = np.gradient(pts, s, axis=0)
        d2 = np.gradient(d1, s, axis=0)
        speed = np.hypot(d1[:, 0], d1[:, 1])
        kappa_fd = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / speed ** 3
        assert np.abs(kappa_fd[5:-5]).max() < 0.002
        kappa_lib = np.array([hil_spline.curvature_at(float(v)) for v in s])
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
            x0, y0 = hil_spline.point_at(float(s) - h)
            x1, y1 = hil_spline.point_at(float(s) + h)
            fd = math.atan2(y1 - y0, x1 - x0)
            assert abs(wrap_angle(fd - hil_spline.tangent_angle_at(float(s)))) < 1e-3
            # unit-speed parameterization: chord over arc close to 1
            assert math.hypot(x1 - x0, y1 - y0) / (2 * h) == pytest.approx(1.0, abs=1e-3)

    def test_round_trip(self, hil_spline):
        for s in np.linspace(0.0, hil_spline.total_length, 300):
            pr = hil_spline.project(hil_spline.point_at(float(s)))
            assert abs(pr.s - s) < 1e-6

    def test_warm_start_round_trip(self, hil_spline):
        for s in np.linspace(5.0, hil_spline.total_length - 5.0, 100):
            pr = hil_spline.project(hil_spline.point_at(float(s)), hint_s=float(s) + 4.0)
            assert abs(pr.s - s) < 1e-6

    def test_projection_optimality_vs_brute_force(self, hil_spline):
        rng = np.random.default_rng(7)
        for _ in range(60):
            s = rng.uniform(0.0, hil_spline.total_length)
            rho = rng.uniform(-480.0, 480.0)
            x, y = hil_spline.point_at(s)
            ta = hil_spline.tangent_angle_at(s)
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
            assert hil_spline._frame(s) == (x, y, ta, kappa), s
            assert hil_spline.point_at(s) == (x, y), s
            assert hil_spline.tangent_angle_at(s) == ta, s
            assert hil_spline.curvature_at(s) == kappa, s
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

    # coincident interior knots; an interior knot equal to the end knots
    @example(waypoints=[(0.0, 0.0), (500.0, 0.0), (500.0, 0.0), (500.0, 0.0), (500.0, 0.0),
                        (1000.0, 300.0), (1500.0, 0.0)])
    @example(waypoints=[(0.0, 0.0), (300.0, 200.0), (600.0, 0.0), (900.0, 100.0),
                        (900.0, 100.0), (900.0, 100.0), (900.0, 100.0)])
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(waypoints=_waypoint_sets())
    def test_power_coefficients_equal_ppoly_with_repeats(self, waypoints):
        pts, knots = clamped_knots(waypoints)
        if not knots[-1] > 0.0:
            return  # all waypoints coincide: the constructor raises DegenerateSpline
        for coord in (pts[:, 0], pts[:, 1]):
            assert _same_floats(SplinePath._power_coefficients(knots, coord),
                                ppoly_power_coefficients(knots, coord))

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

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(waypoints=_waypoint_sets())
    def test_eval_vec_matches_oracle_with_many_spans(self, waypoints):
        _, knots = clamped_knots(waypoints)
        if not knots[-1] > 0.0:
            return  # all waypoints coincide: the constructor raises DegenerateSpline
        path = _bare_spline(waypoints)
        _assert_eval_vec_matches_oracle(path, _sorted_parameters(path))

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
        path = SplinePath(HIL_WAYPOINTS, kappa_bound=0.002, lut_step=lut_step)
        assert _same_floats((path.total_length, list(path._u_of_s)),
                            spline_lut_whole_grid(path, lut_step))
        assert len(path._u_of_s) == len(np.arange(0.0, path.total_length + lut_step, lut_step))

    # waypoints within 500 m keep the fine grids below about 200k points; runs
    # of repeats would make most speeds vanish, so only the lattice repeats
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(waypoints=st.lists(_waypoint, min_size=4, max_size=29).map(
               lambda w: [(x / 20.0, y / 20.0) for x, y in w]),
           lut_step=st.sampled_from([0.1, 0.07, 0.5]))
    @example(waypoints=SPEED_ZERO_OFF_TABLE_GRID, lut_step=0.1)
    def test_build_equals_whole_grid_build_with_many_spans(self, waypoints, lut_step):
        _, knots = clamped_knots(waypoints)
        if not knots[-1] > 0.0:
            return
        # near-coincident knots give infinite coefficients, and inf * 0 is NaN
        with pytest.MonkeyPatch.context() as mp, np.errstate(invalid="ignore"):
            mp.setattr(paths_mod, "_BUILD_BLOCK", 997)
            try:
                path = SplinePath(waypoints, kappa_bound=math.inf, lut_step=lut_step)
            except DegenerateSpline as exc:
                # the table's speed gate fails as on the whole grid; the
                # curvature grid's fails only after the table was built
                table = spline_lut_whole_grid(_bare_spline(waypoints), lut_step)
                assert (table is None) == ("curvature grid" not in str(exc))
                return
            except CurvatureBoundExceeded:
                return  # an infinite or NaN curvature; the table was built
        assert _same_floats((path.total_length, list(path._u_of_s)),
                            spline_lut_whole_grid(path, lut_step))

    def test_build_peak_memory(self, bundled_splines):
        # the dense grids are built and reduced block by block; the whole
        # grids took about 10 MB
        ref = bundled_splines["parallel4[0]"]
        tracemalloc.start()
        try:
            SplinePath(ref.waypoints, kappa_bound=ref.kappa_bound, lut_step=ref._lut_step)
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

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(frac=st.floats(0.0, 1.0),
           rho_frac=st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True),
           offset=st.floats(-5.0, 5.0))
    def test_warm_start_agrees_with_global_projection(self, hil_spline, frac, rho_frac, offset):
        # a point |rho| < r0/2 off the path at s, warm-started a few meters away
        s = frac * hil_spline.total_length
        rho = rho_frac * hil_spline.r0
        x, y = hil_spline.point_at(s)
        ta = hil_spline.tangent_angle_at(s)
        p = (x - rho * math.sin(ta), y + rho * math.cos(ta))
        warm = hil_spline.project(p, hint_s=s + offset)
        cold = hil_spline._global_project(*p)
        assert abs(warm.s - cold.s) <= 1e-6
        assert abs(warm.rho - cold.rho) <= 1e-6

    def test_extrapolation_beyond_ends(self, hil_spline):
        x0, y0 = hil_spline.point_at(0.0)
        xm, ym = hil_spline.point_at(-50.0)
        ta = hil_spline.tangent_angle_at(-1.0)
        assert (xm, ym) == pytest.approx((x0 - 50.0 * math.cos(ta),
                                          y0 - 50.0 * math.sin(ta)), abs=1e-6)
        assert hil_spline.curvature_at(-1.0) == 0.0
        pr = hil_spline.project(hil_spline.point_at(hil_spline.total_length + 40.0))
        assert pr.s == pytest.approx(hil_spline.total_length + 40.0, abs=1e-6)


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


def test_curvature_many_equals_curvature_at(circle, hil_spline):
    paths = [circle, CirclePath((5.0, -3.0), 800.0, "cw", 0.002),
             LinePath((1.0, 2.0), 0.3), hil_spline]
    for path in paths:
        s = np.random.default_rng(5).uniform(-100.0, path.total_length + 100.0, 500)
        s = np.concatenate([[-10.0, 0.0, path.total_length], s])
        got = path.curvature_many(s)
        assert got.dtype == np.float64 and got.shape == s.shape, path.kind
        assert _same_floats(got.tolist(), [path.curvature_at(x) for x in s.tolist()]), path.kind
        assert path.curvature_many(np.empty(0)).shape == (0,), path.kind


def test_lonlat_conversion_matches_table():
    wps = waypoints_from_lonlat(HIL_LONLAT, origin=HIL_LONLAT[0])
    assert wps[0] == pytest.approx((0.0, 0.0), abs=1e-9)
    for (x, y), (xt, yt) in zip(wps[1:], HIL_WAYPOINTS[1:]):
        assert x == pytest.approx(xt, rel=5e-3)
        assert y == pytest.approx(yt, rel=5e-3, abs=15.0)
