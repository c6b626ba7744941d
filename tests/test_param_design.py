import dataclasses
import math
import re
import time

import pytest

from cpfsim.exceptions import Infeasible
from cpfsim.param_design import (SpeedLimits, check_feasibility_precondition,
                                 coordination_rate_bound, design_coordination_set)

from conftest import SPACING
from oracles import grid_design_oracle


class TestFeasibilityPrecondition:
    def test_nominal_limits(self, limits):
        assert check_feasibility_precondition(limits, 1.0)

    def test_margin_too_large(self, limits):
        assert not check_feasibility_precondition(limits, 20.0)

    def test_curvature_too_tight(self):
        lim = SpeedLimits(10.0, 25.0, 0.2, 0.01)
        assert not check_feasibility_precondition(lim, 1.0)


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
        assert designed_params.contraction < 1.0

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

    def test_rejects_nonpositive_margin(self, limits):
        with pytest.raises(ValueError):
            design_coordination_set(limits, speed_margin=0.0, alpha=0.01,
                                    spacing=SPACING)


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

    def test_design_inequality_enforced(self, params):
        bad = dataclasses.replace(params, rho_max=300.0,
                                  k2=300.0 / params.psi_max + 1.0)
        bad.validate_basic()
        with pytest.raises(ValueError):
            bad.validate()

    def test_chi_shape_skipped_without_spacing(self, params):
        free = dataclasses.replace(params, spacing=0.0)
        free.validate()
