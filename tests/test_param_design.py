import dataclasses
import math
import re
import time

import numpy as np
import pytest

from cpfsim import param_design
from cpfsim.exceptions import Infeasible
from cpfsim.param_design import SpeedLimits, coordination_rate_bound, design_coordination_set

from conftest import SPACING, draw_float, for_each_draw
from oracles import best_on_grid_per_row, grid_design_oracle


class TestFeasibilityPrecondition:
    def test_nominal_limits(self, limits):
        design_coordination_set(limits, 1.0).validate()

    def test_margin_too_large(self, limits):
        with pytest.raises(Infeasible, match=r"^feasibility precondition fails: "
                                             r"v_min \+ speed_margin exceeds v_max$"):
            design_coordination_set(limits, 20.0)

    def test_curvature_too_tight(self):
        lim = SpeedLimits(10.0, 25.0, 0.2, 0.01)
        with pytest.raises(Infeasible, match="^feasibility precondition fails: "
                                             "curvature bound exceeds omega_max/v_max$"):
            design_coordination_set(lim, 1.0)


class TestReferencePointFeasibility:
    """The published parameter point satisfies every design inequality
    under admissible margins (exact substitution, no tolerance)."""

    def test_all_inequalities(self):
        a, r1, vm = 0.6303, 122.1297, 25.0
        v_min, v_max, om, k0 = 10.0, 25.0, 0.2, 0.002
        c, alpha = 1.0, 0.01
        assert c <= 3.0 and alpha <= 0.01
        assert math.sqrt((a / r1) ** 2 + k0 ** 2) + alpha / vm <= om / vm
        assert k0 / (1.0 - k0 * r1) + alpha / vm <= om / vm
        assert v_min / (1.0 - k0 * r1) + c <= math.cos(a) * vm / (1.0 + k0 * r1)
        assert 0.0 < a < math.pi / 2.0
        assert 0.0 < r1 < 1.0 / k0
        assert v_min < vm <= v_max

    def test_params_object_validates(self, params):
        params.validate()
        for slack in params.constraint_slacks().values():
            assert slack >= 0.0


class TestDesign:
    def test_beats_grid_oracle(self, limits, designed_params):
        t0 = time.time()
        p = design_coordination_set(limits, speed_margin=1.0, alpha=0.01,
                                    spacing=SPACING)
        elapsed = time.time() - t0
        assert elapsed < 5.0
        best, point = grid_design_oracle(limits, 1.0, 0.01)
        assert p.psi_max * p.rho_max >= 0.99 * best, (p, point)
        # designer result is itself at least as good as the published point
        assert p.psi_max * p.rho_max >= 0.6303 * 122.1297

    def test_designed_params_revalidate(self, designed_params):
        designed_params.validate()
        assert designed_params.v_coord == 25.0

    def test_deterministic(self, limits, designed_params):
        again = design_coordination_set(limits, speed_margin=1.0, alpha=0.01,
                                        spacing=SPACING)
        assert again == designed_params

    def test_monotone_in_speed_margin(self, limits):
        areas = []
        for c in (0.5, 1.0, 2.0, 3.0):
            p = design_coordination_set(limits, speed_margin=c, alpha=0.01,
                                        spacing=SPACING)
            areas.append(p.psi_max * p.rho_max)
        assert all(a + 1e-9 >= b for a, b in zip(areas, areas[1:]))

    def test_looser_curvature_never_worse(self, limits, designed_params):
        loose = SpeedLimits(limits.v_min, limits.v_max, limits.omega_max, 0.0005)
        p = design_coordination_set(loose, speed_margin=1.0, alpha=0.01,
                                    spacing=SPACING)
        assert p.psi_max * p.rho_max >= designed_params.psi_max * designed_params.rho_max

    def test_infeasible_curvature(self):
        with pytest.raises(Infeasible):
            design_coordination_set(SpeedLimits(10.0, 25.0, 0.2, 0.01),
                                    speed_margin=1.0, alpha=0.01, spacing=SPACING)

    @pytest.mark.parametrize("limits, speed_margin, failed", [
        (SpeedLimits(10.0, 25.0, 0.2, 0.01), 1.0, "curvature bound exceeds omega_max/v_max"),
        (SpeedLimits(10.0, 25.0, 0.2, 0.002), 20.0, "v_min + speed_margin exceeds v_max"),
    ], ids=["curvature", "speed"])
    def test_infeasible_names_failing_inequality(self, limits, speed_margin, failed):
        with pytest.raises(Infeasible, match=re.escape(failed)):
            design_coordination_set(limits, speed_margin=speed_margin, alpha=0.01)

    @pytest.mark.parametrize("limits, binding", [
        (SpeedLimits(9.199741149903089, 28.802272105210953, 0.14007227562548363,
                     0.0038106440208615674), "turn_budget_corner"),
        (SpeedLimits(10.098356096243652, 21.406786692683824, 0.19961881903022205,
                     0.007760947678679979), "turn_budget_side"),
    ], ids=["corner", "side"])
    def test_turn_budget_v_coord_passes_its_own_validation(self, limits, binding):
        # v_coord was the window's hi, about 1e-18 past this turn budget as
        # validate() rounded it in another form: the design rejected its own result
        p = design_coordination_set(limits)
        p.validate()
        assert p.v_coord == min(limits.v_max, param_design._side_bound(p.rho_max, limits, 0.01),
                                float(param_design._corner_bound(p.psi_max, p.rho_max, limits,
                                                                 0.01)))
        assert p.constraint_slacks()[binding] == 0.0

    def test_bounds_of_floats_equal_bounds_of_arrays(self):
        # the designed v_coord and validate() evaluate the bounds on floats, the
        # grid on arrays; Python's x ** 2 rounds apart from numpy's square on
        # about 1 in 1,000 floats
        rng = np.random.default_rng(24)
        a, r1 = rng.uniform(1.0e-4, 1.57, 20_000), rng.uniform(1.0e-3, 1.0e4, 20_000)
        lim = SpeedLimits(10.0, 25.0, 0.2, 1.0e-4)
        grid = [param_design._corner_bound(a, r1, lim, 0.01),
                param_design._side_bound(r1, lim, 0.01),
                param_design._speed_num(r1, lim, 1.0) / np.cos(a)]
        for i, (x, y) in enumerate(zip(a.tolist(), r1.tolist())):
            assert [float(param_design._corner_bound(x, y, lim, 0.01)),
                    param_design._side_bound(y, lim, 0.01),
                    param_design._speed_num(y, lim, 1.0) / math.cos(x)] == [
                        b[i] for b in grid]

    def test_every_feasible_design_meets_its_bounds_exactly(self):
        rng = np.random.default_rng(23)
        for_each_draw(400, lambda: _limit_set(rng), _check_design_bounds)

    @pytest.mark.parametrize("alpha", [0.0, -0.01, 0.2, 0.3])
    def test_rejects_alpha_outside_the_turn_budget(self, limits, alpha):
        with pytest.raises(ValueError, match="need 0 < alpha < omega_max"):
            design_coordination_set(limits, speed_margin=1.0, alpha=alpha)

    def test_rejects_nonpositive_margin(self, limits):
        with pytest.raises(ValueError):
            design_coordination_set(limits, speed_margin=0.0, alpha=0.01,
                                    spacing=SPACING)


def _limit_set(rng):
    v_min = draw_float(rng, 5.0, 15.0)
    return (SpeedLimits(v_min, v_min + draw_float(rng, 2.0, 22.0),
                        draw_float(rng, 0.05, 0.4), draw_float(rng, 5.0e-4, 0.01)),)


def _check_design_bounds(limits):
    """A feasible design passes validate() with v_coord = min(v_max, side, corner),
    and the bound that sets it below v_max has a margin of exactly 0."""
    try:
        p = design_coordination_set(limits)
    except Infeasible:
        return
    p.validate()
    side = param_design._side_bound(p.rho_max, limits, p.alpha)
    corner = param_design._corner_bound(p.psi_max, p.rho_max, limits, p.alpha)
    assert p.v_coord == min(limits.v_max, side, corner)
    slacks = p.constraint_slacks()
    assert min(slacks.values()) >= 0.0
    if p.v_coord < limits.v_max:
        assert min(slacks["turn_budget_corner"], slacks["turn_budget_side"]) == 0.0


def _design_grid(rng):
    """Limits, margins and a (psi_max, rho_max) grid over the design box or
    inside it; each axis as its ``np.linspace`` arguments."""
    v_min, dv = draw_float(rng, 1.0, 20.0), draw_float(rng, 0.1, 30.0)
    omega_max = draw_float(rng, 0.05, 1.0)
    # a factor above 1 fails the curvature precondition
    kappa_bound = omega_max / (v_min + dv) * draw_float(rng, 1.0e-3, 1.2)
    limits = SpeedLimits(v_min, v_min + dv, omega_max, kappa_bound)
    a0, a1 = 1.0e-4, math.pi / 2.0 - 1.0e-6
    r0, r1 = 1.0e-3, 1.0 / limits.kappa_bound * (1.0 - 1.0e-6)
    if rng.random() < 0.5:   # a zoom box
        a0, a1 = sorted(draw_float(rng, a0, a1) for _ in range(2))
        r0, r1 = sorted(draw_float(rng, r0, r1) for _ in range(2))
    n_a = [1, 2, 13, 14, 121, 400][rng.integers(6)]
    n_r = [1, 2, 121, 1200, param_design._GRID_BLOCK + 1][rng.integers(5)]
    return ((a0, a1, n_a), (r0, r1, n_r), limits,
            draw_float(rng, 0.01, 10.0), draw_float(rng, 1.0e-3, 0.05))


def _check_grid_search(psi_axis, rho_axis, limits, speed_margin, alpha):
    grid = (np.linspace(*psi_axis), np.linspace(*rho_axis), limits, speed_margin, alpha)
    best = param_design._best_on_grid(*grid)
    assert best == best_on_grid_per_row(*grid)
    assert best is None or all(type(v) is float for v in best)


_LIMITS = SpeedLimits(10.0, 25.0, 0.2, 0.002)
_FULL_PSI = (1.0e-4, math.pi / 2.0 - 1.0e-6, 400)


class TestGridSearch:
    """The blocked grid search against the pass-per-row search it replaced."""

    @pytest.mark.parametrize("psi_axis, rho_axis, speed_margin", [
        (_FULL_PSI, (1.0e-3, 500.0 * (1.0 - 1.0e-6), 1200), 1.0),
        ((0.69, 0.71, 121), (140.0, 142.0, 121), 1.0),
        ((0.1, 1.5, 50), (1.0, 499.0, 300), 20.0),
        ((0.7, 0.7, 1), (141.0, 141.0, 1), 1.0),
        ((0.7, 0.7, 1), (1.0e-3, 499.0, 20_000), 1.0),
        (_FULL_PSI, (1.0e-3, 500.0 * (1.0 - 1.0e-6), 1200), 20.0),
        ((0.5, 0.6, 121), (50.0, 60.0, 121), 1.0),
        (_FULL_PSI, (141.0, 141.0, 1), 1.0),
        ((0.6, 0.8, 3), (1.0e-3, 499.0, param_design._GRID_BLOCK + 1), 1.0),
    ], ids=["coarse", "zoom", "all_infeasible", "one_row_one_column", "one_row_wider_than_a_block",
            "empty_band_in_31_blocks", "band_of_every_column", "one_column",
            "one_block_per_row"])
    def test_blocked_search_equals_per_row_search_on_edge_grids(self, psi_axis, rho_axis,
                                                                speed_margin):
        # the coarse and the zoom grids of the bundled design, and the edges of the band
        _check_grid_search(psi_axis, rho_axis, _LIMITS, speed_margin, 0.01)

    def test_blocked_search_equals_per_row_search(self):
        rng = np.random.default_rng(6)
        for_each_draw(200, lambda: _design_grid(rng), _check_grid_search)

    def test_bundled_design_evaluates_the_window_on_bands(self, monkeypatch):
        shapes = []
        corner = param_design._corner_bound
        monkeypatch.setattr(param_design, "_corner_bound", lambda a, r1, *rest: (
            shapes.append(np.broadcast_shapes(np.shape(a), np.shape(r1)))
            or corner(a, r1, *rest)))
        design_coordination_set(_LIMITS, speed_margin=1.0, alpha=0.01)
        # 13 rows a pass on the 400 x 1,200 coarse grid, where the 9 blocks
        # from psi_max 1.126 on have no band; one pass per 121 x 121 zoom
        # grid; the designed point's v_coord; and validate()'s slack
        assert [s[0] if s else () for s in shapes] == [13] * 22 + [121] * 3 + [(), ()]
        assert [s[1] for s in shapes[22:25]] == [121] * 3
        # 145,870 points here; 523,924 without the band
        assert sum(math.prod(s) for s in shapes) <= 150_000


class TestRateBound:
    def test_vanishes_as_blend_saturates(self, params):
        near_one = dataclasses.replace(params, chi_blend=1.0 - 1e-12)
        assert coordination_rate_bound(near_one) == pytest.approx(0.0, abs=1e-10)

    def test_reference_value(self, params):
        p = dataclasses.replace(params, chi_blend=0.0494)
        assert coordination_rate_bound(p) == pytest.approx(2.8513287328467154,
                                                           abs=1e-12)

    def test_equality_point_identity(self, designed_params):
        # the designer drives the speed-budget inequality to (near) equality,
        # where the bound reduces to (1 - blend) * speed_margin
        expect = (1.0 - designed_params.chi_blend) * designed_params.speed_margin
        assert coordination_rate_bound(designed_params) == pytest.approx(expect,
                                                                         abs=1e-6)


class TestValidation:
    def test_gain_ordering_enforced(self, params):
        bad = dataclasses.replace(params, k2=params.rho_max / params.psi_max - 1.0)
        with pytest.raises(ValueError):
            bad.validate_basic()

    def test_universe_bound_enforced(self, params):
        bad = dataclasses.replace(params, rho_universe=460.0)
        bad.validate_basic()
        with pytest.raises(ValueError):
            bad.validate()

    @pytest.mark.parametrize("r2", [500.0, 700.0])
    def test_universe_inside_the_uniqueness_radius(self, params, r2):
        # 1/kappa_bound = 500 m, where 1 - kappa*rho reaches 0: not only validate() rejects it
        with pytest.raises(ValueError, match="need rho_max <= rho_universe < 1/kappa_bound"):
            dataclasses.replace(params, rho_universe=r2).validate_basic()

    def test_design_inequality_enforced(self, params):
        bad = dataclasses.replace(params, rho_max=300.0,
                                  k2=300.0 / params.psi_max + 1.0)
        bad.validate_basic()
        with pytest.raises(ValueError):
            bad.validate()

    def test_chi_shape_skipped_without_spacing(self, params):
        free = dataclasses.replace(params, spacing=0.0)
        free.validate()


@pytest.mark.parametrize("change, message", [
    ({"omega_max": 0.0}, "omega_max must be positive"),
    ({"kappa_bound": 0.0}, "kappa_bound must be positive"),
    ({"psi_max": 0.0}, "need 0 < psi_max < pi/2"),
    ({"rho_max": 600.0}, "need 0 < rho_max < 1/kappa_bound"),
    ({"v_coord": 10.0}, "need v_min < v_coord <= v_max"),
    ({"k1": 0.0}, "need k1 > 0 and k2, k3 >= 1"),
    ({"speed_margin": 0.0}, "speed_margin must be positive"),
    ({"chi_blend": 1.0}, "chi_blend must lie in (0, 1)"),
    ({"sign_eps": -1.0e-3}, "sign_eps must be >= 0"),
])
def test_validate_basic_rejects(params, change, message):
    # each structural check of the limits and the parameters, one at a time
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(params, **change).validate_basic()
