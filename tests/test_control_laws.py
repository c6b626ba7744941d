import dataclasses
import math

import numpy as np
import pytest

from cpfsim.control_laws import (CoordinationChi, LinearChi, build_chi,
                                 comparison_system_trajectory, coord_control,
                                 hybrid_supervisor, sat)
from cpfsim.error_frame import (N_S1, REGIONS, PathError, Region, batch_classify, classify,
                                switching_value)
from cpfsim.exceptions import OutsideUniverse, WrongRegion
from cpfsim.param_design import SpeedLimits, design_coordination_set
from cpfsim.verification import sample_s1

from conftest import CHI_AT_SPACING, SPACING, V_MIN_REF
from oracles import _reset as reset_reference
from oracles import _s24_law as s24_reference
from oracles import comparison_system_trajectory as comparison_reference
from oracles import hybrid_supervisor as supervisor_reference
from test_batch import law_reset, random_states
from test_error_frame import error_rates


def pure(params):
    return dataclasses.replace(params, sign_eps=0.0)


def outer_law(err, params, region):
    """The supervisor's command for a state of the outer subset ``region``."""
    cmd = hybrid_supervisor(err, SPACING, params, build_chi(params))
    assert cmd.region is region
    return cmd


def test_sat():
    assert sat(5.0, 0.0, 10.0) == 5.0
    assert sat(-1.0, 0.0, 10.0) == 0.0
    assert sat(30.0, 10.0, 25.0) == 25.0
    assert sat(0.0, 0.0, 10.0) == 0.0
    assert sat(10.0, 0.0, 10.0) == 10.0


class TestChi:
    def test_flat_floor_below_window(self, params):
        chi = CoordinationChi(params)
        for zeta in (0.0, 100.0, SPACING - 6.0 - 1e-9):
            assert chi(zeta) == pytest.approx(V_MIN_REF, abs=1e-12)

    def test_value_at_desired_spacing(self, params):
        chi = CoordinationChi(params)
        assert chi(SPACING) == pytest.approx(CHI_AT_SPACING, abs=1e-9)

    def test_reference_slopes(self, params):
        chi = CoordinationChi(params)
        inner = (chi(SPACING + 6.0) - chi(SPACING - 6.0)) / 12.0
        outer = (chi(SPACING + 30.0) - chi(SPACING + 10.0)) / 20.0
        assert inner == pytest.approx(0.475, abs=1e-9)
        assert outer == pytest.approx(0.95, abs=1e-9)

    def test_monotone_and_continuous(self, params):
        chi = CoordinationChi(params)
        zs = np.linspace(0.0, 2.5 * SPACING, 20000)
        vals = np.array([chi(float(z)) for z in zs])
        assert (np.diff(vals) >= -1e-12).all()
        assert np.abs(np.diff(vals)).max() < 1.0  # no jumps
        lo, hi = SPACING - params.chi_delta1, SPACING + params.chi_delta1
        inside = vals[(zs >= lo) & (zs <= hi)]
        assert (np.diff(inside) > 0.0).all()

    def test_linear_chi(self, params):
        chi = LinearChi(params)
        assert chi(0.0) == pytest.approx(V_MIN_REF)
        assert chi(100.0) == pytest.approx(V_MIN_REF + 47.5)
        assert chi.many(np.array([0.0, 100.0])).tolist() == [chi(0.0), chi(100.0)]

    def test_build_chi_validation(self, params):
        # the spacing picks the kind: piecewise for L > 0, linear for L = 0
        assert type(build_chi(params)) is CoordinationChi
        free = dataclasses.replace(params, spacing=0.0)
        assert type(build_chi(free)) is LinearChi
        assert build_chi(free).slope == 0.475
        with pytest.raises(ValueError):
            CoordinationChi(free)


class TestCoordControl:
    def test_equilibrium_on_circle(self, params):
        chi = build_chi(params)
        cmd = coord_control(PathError(0.0, 0.0, 0.0, 0.001), SPACING, params, chi)
        assert cmd.v == pytest.approx(16.082053432090323, abs=1e-9)
        assert cmd.omega == pytest.approx(0.016082053432090322, abs=1e-12)
        assert not cmd.resetvalue_applied

    def test_slow_reference_on_line(self, params):
        chi = build_chi(params)
        cmd = coord_control(PathError(0.0, 0.0, 0.0, 0.0), 100.0, params, chi)
        assert cmd.v == pytest.approx(13.232053432090323, abs=1e-9)
        assert cmd.omega == 0.0

    def test_wrong_region(self, params):
        chi = build_chi(params)
        with pytest.raises(WrongRegion):
            coord_control(PathError(200.0, -0.3), SPACING, params, chi)

    def test_boundary_margin_inequalities(self, params):
        """On the set boundary the closed-loop field satisfies the margin
        inequality of the owning subset (inward-pointing check)."""
        p = pure(params)
        chi = build_chi(p)
        a, r1, alpha = p.psi_max, p.rho_max, p.alpha
        rng = np.random.default_rng(17)
        for _ in range(10_000):
            seg = rng.integers(0, 4)
            frac = rng.uniform(0.02, 0.98)
            nudge = 1.0 - 1e-9  # keep slant points on the inner side of rounding
            if seg == 0:    # slanted edge, first quadrant
                rho, psi = r1 * (1.0 - frac) * nudge, a * frac * nudge
            elif seg == 1:  # psi = +a edge, second quadrant
                rho, psi = -r1 * frac, a
            elif seg == 2:  # slanted edge, third quadrant
                rho, psi = -r1 * (1.0 - frac) * nudge, -a * frac * nudge
            else:           # psi = -a edge, fourth quadrant
                rho, psi = r1 * frac, -a
            kappa = rng.uniform(-0.99 * p.kappa_bound, 0.99 * p.kappa_bound)
            err = PathError(rho, psi, 0.0, kappa)
            zeta = rng.uniform(0.0, 2.0 * SPACING)
            cmd = coord_control(err, zeta, p, chi)
            denom = 1.0 - kappa * rho
            bracket = a * math.sin(psi) - r1 * kappa * math.cos(psi) / denom
            if seg == 0:
                assert cmd.v * bracket + r1 * cmd.omega + r1 * alpha <= 1e-12
            elif seg == 1:
                assert cmd.omega - kappa * cmd.v * math.cos(psi) / denom + alpha <= 1e-12
            elif seg == 2:
                assert cmd.v * bracket + r1 * cmd.omega - r1 * alpha >= -1e-12
            else:
                assert cmd.omega - kappa * cmd.v * math.cos(psi) / denom - alpha >= -1e-12

    def test_box_constraint_everywhere(self, params):
        chi = build_chi(params)
        rng = np.random.default_rng(23)
        for _ in range(10_000):
            rho = rng.uniform(-params.rho_universe, params.rho_universe)
            psi = rng.uniform(-math.pi, math.pi)
            kappa = rng.uniform(-0.99 * params.kappa_bound, 0.99 * params.kappa_bound)
            cmd = hybrid_supervisor(PathError(rho, psi, 0.0, kappa),
                                    rng.uniform(0.0, 2.0 * SPACING), params, chi)
            assert params.v_min <= cmd.v <= params.v_max
            assert abs(cmd.omega) <= params.omega_max

    def test_sliding_neighborhood(self, params):
        """Near the origin the switching surface is attracting: theta*theta_dot <= 0."""
        p = pure(params)
        chi = build_chi(p)
        rng = np.random.default_rng(29)
        sin_cap = (p.k2 + p.k3) * p.alpha / (p.k1 * p.v_max)
        checked = 0
        while checked < 3000:
            psi = rng.uniform(-math.asin(sin_cap), math.asin(sin_cap))
            rho = rng.uniform(-p.rho_max, p.rho_max) * 0.2
            if abs(p.k1 * p.v_max * math.sin(psi)) > (p.k2 + p.k3 * math.cos(psi)) * p.alpha:
                continue
            kappa = rng.uniform(-0.99 * p.kappa_bound, 0.99 * p.kappa_bound)
            err = PathError(rho, psi, 0.0, kappa)
            cmd = coord_control(err, rng.uniform(0.0, 2.0 * SPACING), p, chi)
            rd, pd = error_rates(err, cmd)
            th = switching_value(rho, psi, p)
            th_dot = p.k1 * rd + (p.k2 + p.k3 * math.cos(psi)) * pd
            assert th * th_dot <= 1e-12
            checked += 1


@pytest.fixture(scope="module")
def tight_params():
    """Limits with little turn-rate headroom, so the reset actually fires."""
    lim = SpeedLimits(v_min=8.0, v_max=30.0, omega_max=0.1, kappa_bound=0.003)
    return dataclasses.replace(
        design_coordination_set(lim, speed_margin=1.0, alpha=0.01, spacing=500.0), sign_eps=0.0)


class TestResetValue:
    def test_untouched_when_inequality_holds(self, params):
        chi = build_chi(pure(params))
        cmd = coord_control(PathError(50.0, 0.2, 0.0, 0.001), SPACING,
                            pure(params), chi)
        assert not cmd.resetvalue_applied
        v = law_reset(cmd.v, cmd.omega, cmd.region, PathError(50.0, 0.2, 0.0, 0.001),
                      pure(params))
        assert v == cmd.v

    def test_reset_bound_exercised(self, tight_params):
        p = tight_params
        chi = build_chi(p)
        rng = np.random.default_rng(31)
        fired = 0
        for rho, psi in zip(*(x.tolist() for x in sample_s1(rng, p, 100_000))):
            kappa = rng.uniform(-0.999 * p.kappa_bound, 0.999 * p.kappa_bound)
            zeta = rng.uniform(0.0, 2.0 * p.spacing)
            err = PathError(rho, psi, 0.0, kappa)
            cmd = coord_control(err, zeta, p, chi)
            assert p.v_min <= cmd.v <= p.v_max
            if cmd.resetvalue_applied:
                fired += 1
                denom = 1.0 - kappa * rho
                v_before = sat(denom / math.cos(psi) * chi(zeta), p.v_min, p.v_max)
                assert p.v_coord <= cmd.v < v_before
        assert fired > 100

    def test_heading_rate_restored_in_s1_5(self):
        """A fired reset in the upper-left wedge pins the heading rate at
        the margin.  Needs limits where the curvature feedforward can eat
        nearly the whole turn budget."""
        lim = SpeedLimits(v_min=8.0, v_max=30.0, omega_max=0.08, kappa_bound=0.00265)
        p = dataclasses.replace(
            design_coordination_set(lim, speed_margin=1.0, alpha=0.01, spacing=500.0),
            sign_eps=0.0)
        chi = build_chi(p)
        rng = np.random.default_rng(37)
        fired = 0
        for _ in range(20_000):
            rho = rng.uniform(-3.0, -0.5)
            psi = rng.uniform(1.0e-4, 3.0e-3)
            kappa = rng.uniform(0.9 * p.kappa_bound, 0.999 * p.kappa_bound)
            err = PathError(rho, psi, 0.0, kappa)
            if classify(err, p) is not Region.S1_5:
                continue
            cmd = coord_control(err, 2.0 * p.spacing, p, chi)
            if cmd.resetvalue_applied:
                _, psi_dot = error_rates(err, cmd)
                assert psi_dot == pytest.approx(p.alpha, abs=1e-9)
                assert p.v_min <= cmd.v <= p.v_max
                fired += 1
                if fired >= 20:
                    break
        assert fired > 0


class TestNearOptimalLaws:
    def test_s24_full_speed_branch(self, params):
        cmd = outer_law(PathError(200.0, -0.3, 0.0, 0.001), params, Region.S2_4)
        assert (cmd.v, cmd.omega) == (25.0, -0.2)

    def test_s24_band_unconstrained(self, params):
        psi = -params.psi_max + 0.01
        kappa = -0.0019
        err = PathError(200.0, psi, 0.0, kappa)
        cmd = outer_law(err, params, Region.S2_4)
        feed = kappa * 25.0 * math.cos(psi) / (1.0 - kappa * 200.0)
        assert 0.2 - feed >= 0.0
        assert cmd.v == 25.0
        assert cmd.omega == pytest.approx(max(-0.2, feed))

    def test_s24_band_straight(self, params):
        err = PathError(200.0, -params.psi_max + 0.01, 0.0, 0.0)
        cmd = outer_law(err, params, Region.S2_4)
        assert (cmd.v, cmd.omega) == (25.0, 0.0)

    def test_s24_band_keeps_heading_inside(self, params):
        rng = np.random.default_rng(41)
        for _ in range(10_000):
            psi = rng.uniform(-params.psi_max, -params.psi_max + params.eps_switch)
            rho = rng.uniform(params.rho_max * 1.001, params.rho_universe)
            kappa = rng.uniform(-0.99 * params.kappa_bound, 0.99 * params.kappa_bound)
            err = PathError(rho, psi, 0.0, kappa)
            cmd = outer_law(err, params, Region.S2_4)
            _, psi_dot = error_rates(err, cmd)
            assert psi_dot >= -1e-12
            assert params.v_min <= cmd.v <= params.v_max
            assert abs(cmd.omega) <= params.omega_max

    def test_s22_full_speed_branch(self, params):
        cmd = outer_law(PathError(-200.0, 0.3, 0.0, 0.0), params, Region.S2_2)
        assert (cmd.v, cmd.omega) == (25.0, 0.2)

    def test_s22_band_straight(self, params):
        err = PathError(-200.0, params.psi_max - 0.01, 0.0, 0.0)
        cmd = outer_law(err, params, Region.S2_2)
        assert (cmd.v, cmd.omega) == (25.0, 0.0)

    def test_s22_band_keeps_heading_inside(self, params):
        rng = np.random.default_rng(43)
        for _ in range(10_000):
            psi = rng.uniform(params.psi_max - params.eps_switch, params.psi_max)
            rho = rng.uniform(-params.rho_universe, -params.rho_max * 1.001)
            kappa = rng.uniform(-0.99 * params.kappa_bound, 0.99 * params.kappa_bound)
            err = PathError(rho, psi, 0.0, kappa)
            cmd = outer_law(err, params, Region.S2_2)
            _, psi_dot = error_rates(err, cmd)
            assert psi_dot <= 1e-12

    def test_mirror_symmetry(self, params):
        rng = np.random.default_rng(47)
        for _ in range(2000):
            psi = rng.uniform(-params.psi_max, -1e-6)
            rho = rng.uniform(params.rho_max * 1.001, params.rho_universe)
            kappa = rng.uniform(-0.99 * params.kappa_bound, 0.99 * params.kappa_bound)
            c24 = outer_law(PathError(rho, psi, 0.0, kappa), params, Region.S2_4)
            c22 = outer_law(PathError(-rho, -psi, 0.0, -kappa), params, Region.S2_2)
            assert c22.v == pytest.approx(c24.v, abs=1e-12)
            assert c22.omega == pytest.approx(-c24.omega, abs=1e-12)


class TestRobustLaws:
    def test_constant_commands(self, params):
        c1 = outer_law(PathError(0.0, 2.0), params, Region.S2_1)
        assert (c1.v, c1.omega) == (10.0, -0.2)
        c3 = outer_law(PathError(0.0, -2.0), params, Region.S2_3)
        assert (c3.v, c3.omega) == (10.0, 0.2)

    def test_symmetry(self, params):
        rng = np.random.default_rng(53)
        for _ in range(200):
            rho = rng.uniform(-params.rho_universe, params.rho_universe)
            psi = rng.uniform(0.7, math.pi - 1e-6)
            a = outer_law(PathError(rho, psi), params, Region.S2_1)
            b = outer_law(PathError(-rho, -psi), params, Region.S2_3)
            assert (b.v, b.omega) == (a.v, -a.omega)


class TestSupervisor:
    def test_dispatch_identity(self, params):
        chi = build_chi(params)
        err = PathError(10.0, 0.1, 0.0, 0.001)
        assert classify(err, params).in_s1
        assert hybrid_supervisor(err, SPACING, params, chi) == \
            coord_control(err, SPACING, params, chi)
        err = PathError(200.0, -0.3, 0.0, 0.001)
        assert hybrid_supervisor(err, SPACING, params, chi) == s24_reference(err, params)

    def test_outside_universe(self, params):
        chi = build_chi(params)
        with pytest.raises(OutsideUniverse):
            hybrid_supervisor(PathError(params.rho_universe + 1.0, 0.0),
                              SPACING, params, chi)
        # the boundary itself is inside
        cmd = hybrid_supervisor(PathError(params.rho_universe, 0.5),
                                SPACING, params, chi)
        assert cmd.region is Region.S2_1

    def test_region_recorded(self, params):
        chi = build_chi(params)
        cmd = hybrid_supervisor(PathError(-300.0, -2.5), SPACING, params, chi)
        assert cmd.region is Region.S2_3


def _s1_box_states(params, n, seed):
    """Arrays (rho, psi, kappa, code) of n states in each coordination subset.

    Drawn in the set's bounding box, with a share of exact edge values; a
    fifth of the curvatures are zero.
    """
    rng = np.random.default_rng(seed)
    a, r1, m = params.psi_max, params.rho_max, 200_000
    rho, psi, code = np.empty(0), np.empty(0), np.empty(0, dtype=np.intp)
    while np.bincount(code, minlength=N_S1)[:N_S1].min() < n:
        r, s = rng.uniform(-r1, r1, m), rng.uniform(-a, a, m)
        edge = rng.random(m) < 0.05
        r[edge] = rng.choice([0.0, -0.0, r1, -r1, 0.5 * r1, -0.5 * r1], edge.sum())
        s[edge] = rng.choice([0.0, -0.0, a, -a, 0.5 * a, -0.5 * a], edge.sum())
        rho, psi = np.concatenate([rho, r]), np.concatenate([psi, s])
        code = np.concatenate([code, batch_classify(r, s, params)])
    pick = np.concatenate([np.flatnonzero(code == c)[:n] for c in range(N_S1)])
    kappa = rng.uniform(-params.kappa_bound, params.kappa_bound, pick.size)
    kappa[rng.random(pick.size) < 0.2] = 0.0
    return rho[pick], psi[pick], kappa, code[pick]


class TestSupervisorMatchesPublicLaws:
    """The table-driven law gives what the pre-change law bodies (tests/oracles.py) gave."""

    @pytest.mark.parametrize("sign_eps", [1.0e-3, 0.0])
    def test_command_equality_on_random_states(self, params, sign_eps):
        p = dataclasses.replace(params, sign_eps=sign_eps)
        chi = build_chi(p)
        seen = set()
        for r, s, k, z in zip(*(x.tolist() for x in random_states(p, 100_000, seed=11))):
            err = PathError(r, s, 0.0, k)
            region = classify(err, p)
            seen.add(region)
            if region is Region.OUTSIDE:
                with pytest.raises(OutsideUniverse):
                    hybrid_supervisor(err, z, p, chi)
                continue
            cmd = hybrid_supervisor(err, z, p, chi)
            assert cmd == supervisor_reference(err, z, p, chi), (err, z)
            assert cmd.region is region
        assert seen == set(Region)

    def test_reset_value_equals_reference(self, params):
        # arbitrary commands in the box, edges included, so that every
        # subset's inequality is violated often
        rng = np.random.default_rng(13)
        n = 100_000
        rho, psi, kappa, code = _s1_box_states(params, n, seed=13)
        v = rng.uniform(params.v_min, params.v_max, rho.size)
        omega = rng.uniform(-params.omega_max, params.omega_max, rho.size)
        v[::50], omega[::50] = params.v_max, -params.omega_max
        v[1::50], omega[1::50] = params.v_min, params.omega_max
        changed = dict.fromkeys(REGIONS[:N_S1], 0)
        for r, s, k, vi, wi, c in zip(*(x.tolist() for x in (rho, psi, kappa, v, omega, code))):
            region = REGIONS[c]
            err = PathError(r, s, 0.0, k)
            got = law_reset(vi, wi, region, err, params)
            assert got == reset_reference(vi, wi, region, err, params), (region, err, vi, wi)
            changed[region] += got != vi
        assert min(changed.values()) > 100, changed

    def test_every_public_law_guards_its_region(self, params):
        chi = build_chi(params)
        rho, psi, kappa, _ = random_states(params, 2_000, seed=5)
        states = [PathError(r, s, 0.0, k) for r, s, k in zip(rho.tolist(), psi.tolist(),
                                                             kappa.tolist())]
        states.append(PathError(params.rho_universe + 1.0, 0.0))
        wrong = 0
        for err in states:
            region = classify(err, params)
            if region.in_s1:
                assert coord_control(err, SPACING, params, chi).region is region
                continue
            with pytest.raises(WrongRegion):
                coord_control(err, SPACING, params, chi)
            wrong += 1
        assert wrong > 0


class TestComparisonTrajectory:
    def test_worst_case_from_right_angle(self, params):
        crossing = comparison_system_trajectory(PathError(0.0, math.pi / 2.0),
                                                params, Region.S2_1)
        assert crossing is not None
        assert crossing <= params.rho_universe
        fine = comparison_system_trajectory(PathError(0.0, math.pi / 2.0),
                                            params, Region.S2_1, dt=1.0e-4)
        assert crossing == pytest.approx(fine, abs=1e-5)

    def test_immediate_crossing(self, params):
        crossing = comparison_system_trajectory(PathError(250.0, 1.0e-4),
                                                params, Region.S2_1)
        assert crossing == pytest.approx(250.0, abs=0.05)

    def test_straight_path_closed_form(self, params):
        flat = dataclasses.replace(params, kappa_bound=0.0)
        crossing = comparison_system_trajectory(PathError(0.0, math.pi / 2.0),
                                                flat, Region.S2_1)
        # heading unwinds at the full turn rate; lateral gain v/omega
        assert crossing == pytest.approx(10.0 / 0.2, abs=1e-6)

    def test_s23_mirror(self, params):
        up = comparison_system_trajectory(PathError(0.0, math.pi / 2.0), params, Region.S2_1)
        down = comparison_system_trajectory(PathError(0.0, -math.pi / 2.0), params, Region.S2_3)
        assert down == pytest.approx(-up, abs=1e-9)

    @pytest.mark.parametrize("region, which", [(Region.S2_1, "S21"), (Region.S2_3, "S23")],
                             ids=["S21", "S23"])
    def test_flat_rk4_equals_reference(self, params, region, which):
        # starts of the suite's candidate distribution; starts on and beside
        # psi = +-pi/2, where the heading rate switches branch; headings
        # already across the axis; starts that leave the universe.  Most
        # starts take steps longer than the default 0.01 s, which keeps the
        # long trajectories affordable.
        sign = 1.0 if which == "S21" else -1.0
        rng = np.random.default_rng(21 if which == "S21" else 23)
        n, r2 = 2000, params.rho_universe
        rho = rng.uniform(-r2, r2, n)
        psi = rng.uniform(1.0e-4, math.pi - 1.0e-4, n)
        edge = math.pi / 2.0
        psi[:500] = edge + rng.choice([0.0, 1.0e-15, -1.0e-15, 1.0e-9, -1.0e-9, 0.01, -0.01], 500)
        psi[500:510] = [np.nextafter(edge, 0.0), np.nextafter(edge, 4.0), 0.0, -0.0, -1.0e-9,
                        -0.5, -edge, -math.pi, 1.0e-300, math.pi]
        rho[510:700] = sign * rng.uniform(0.9 * r2, r2, 190)
        psi *= sign
        dts = rng.choice([0.01, 0.05, 0.1, 0.25], n, p=[0.1, 0.3, 0.3, 0.3])
        crossings = []
        for r, p, dt in zip(rho.tolist(), psi.tolist(), dts.tolist()):
            got = comparison_system_trajectory(PathError(r, p), params, region, dt=dt)
            assert got == comparison_reference(PathError(r, p), params, which, dt=dt), (r, p, dt)
            crossings.append(got)
        assert 200 < crossings.count(None) < n - 200

    def test_inadmissible_returns_none(self, params):
        out = comparison_system_trajectory(
            PathError(params.rho_universe - 1.0, math.pi / 2.0), params, Region.S2_1)
        assert out is None

    @pytest.mark.parametrize("region", [r for r in REGIONS if r not in (Region.S2_1, Region.S2_3)])
    def test_only_the_robust_subsets_have_a_comparison_system(self, params, region):
        with pytest.raises(ValueError, match="comparison systems are S2_1's and S2_3's"):
            comparison_system_trajectory(PathError(0.0, math.pi / 2.0), params, region)
