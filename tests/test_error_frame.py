import math

import numpy as np
import pytest

from cpfsim.control_laws import ControlCommand
from cpfsim.error_frame import (PathError, Region, batch_error_rates, classify, compute_error,
                                switching_value)
from cpfsim.simulator import UavState, rk4_unicycle
from cpfsim.verification import in_escape_set

from conftest import RHO_MAX
from oracles import integrate_error_dynamics


class TestComputeError:
    def test_on_path_aligned(self, circle):
        err = compute_error(UavState(1, 1000.0, 0.0, math.pi / 2.0), circle)
        assert err.rho == pytest.approx(0.0, abs=1e-12)
        assert err.psi == pytest.approx(0.0, abs=1e-12)
        assert err.kappa == pytest.approx(0.001)

    def test_interior_start(self, circle):
        # tangent at the eastmost point of a ccw circle points along +y
        err = compute_error(UavState(1, 600.0, 0.0, 0.6 * math.pi), circle)
        assert err.rho == pytest.approx(400.0)
        assert err.psi == pytest.approx(0.1 * math.pi)

    def test_exterior_start(self, circle):
        err = compute_error(UavState(4, 1100.0, 0.0, -0.25 * math.pi), circle)
        assert err.rho == pytest.approx(-100.0)
        assert err.psi == pytest.approx(-0.25 * math.pi - 0.5 * math.pi)


def error_rates(err: PathError, cmd: ControlCommand) -> tuple[float, float]:
    """(rho_dot, psi_dot) of one state under one command, as a one-lane batch."""
    rd, pd = batch_error_rates(np.array([err.rho]), np.array([err.psi]),
                               np.array([cmd.v]), np.array([cmd.omega]), err.kappa)
    return float(rd[0]), float(pd[0])


class TestErrorDynamics:
    def test_circle_equilibrium(self):
        v = 16.082053432090323
        cmd = ControlCommand(v, v * 0.001, Region.S1_2)
        rd, pd = error_rates(PathError(0.0, 0.0, 0.0, 0.001), cmd)
        assert rd == 0.0
        assert pd == pytest.approx(0.0, abs=1e-15)

    def test_perpendicular_on_line(self):
        rd, pd = error_rates(PathError(0.0, math.pi / 2.0, 0.0, 0.0),
                             ControlCommand(10.0, 0.0, Region.S2_1))
        assert rd == pytest.approx(10.0)
        assert pd == 0.0

    def test_offset_feedforward(self):
        rd, pd = error_rates(PathError(100.0, 0.0, 0.0, 0.001),
                             ControlCommand(10.0, 0.0, Region.S1_1))
        assert rd == 0.0
        assert pd == pytest.approx(-0.01 / 0.9)


class TestClassify:
    def test_origin_goes_to_s1_2(self, params):
        assert classify(PathError(0.0, 0.0), params) is Region.S1_2

    def test_outer_box_subset(self, params):
        err = PathError(params.rho_max + 1.0, -params.psi_max / 2.0)
        assert classify(err, params) is Region.S2_4

    def test_reversed_heading_subset(self, params):
        err = PathError(-params.rho_universe, math.pi - 0.01)
        assert classify(err, params) is Region.S2_1

    def test_outside(self, params):
        assert classify(PathError(params.rho_universe + 1.0, 0.0),
                        params) is Region.OUTSIDE
        assert classify(PathError(params.rho_universe, 0.1),
                        params) is not Region.OUTSIDE

    def test_partition_of_universe(self, params):
        """Everything in the universe box gets an in-universe tag, exactly once."""
        rng = np.random.default_rng(42)
        n = 1_000_000
        rho = rng.uniform(-params.rho_universe, params.rho_universe, n)
        psi = rng.uniform(-math.pi, math.pi, n)
        counts = {}
        for r, p in zip(rho, psi):
            tag = classify(PathError(r, p), params)
            counts[tag] = counts.get(tag, 0) + 1
        assert Region.OUTSIDE not in counts
        assert sum(counts.values()) == n
        # coordination-set area is 3*a*r1 out of the 2*r2 x 2*pi box
        s1 = sum(v for k, v in counts.items() if k.in_s1)
        expect = 3.0 * params.psi_max * params.rho_max / (
            4.0 * math.pi * params.rho_universe)
        assert s1 / n == pytest.approx(expect, rel=0.02)

    def test_matches_set_definitions(self, params):
        """Tags agree with the region definitions restated independently."""
        a, r1, r2 = params.psi_max, params.rho_max, params.rho_universe
        rng = np.random.default_rng(3)

        def in_s1(rho, psi):
            return (abs(rho) <= r1 and abs(psi) <= a
                    and abs(a * rho + r1 * psi) <= a * r1)

        for _ in range(100_000):
            rho = rng.uniform(-r2 * 1.1, r2 * 1.1)
            psi = rng.uniform(-math.pi, math.pi)
            tag = classify(PathError(rho, psi), params)
            th = switching_value(rho, psi, params)
            if abs(rho) > r2:
                assert tag is Region.OUTSIDE
            elif in_s1(rho, psi):
                assert tag.in_s1
                expected = {
                    Region.S1_1: rho > 0 and psi >= 0 and th > 0,
                    Region.S1_2: rho <= 0 and psi >= 0 and th >= 0,
                    Region.S1_3: rho < 0 and psi <= 0 and th < 0,
                    Region.S1_4: rho >= 0 and psi <= 0 and th <= 0,
                    Region.S1_5: rho < 0 and psi > 0 and th < 0,
                    Region.S1_6: rho > 0 and psi < 0 and th > 0,
                }
                assert expected[tag]
            elif -r2 <= rho < -r1 and 0 < psi <= a:
                assert tag is Region.S2_2
            elif r1 < rho <= r2 and -a <= psi < 0:
                assert tag is Region.S2_4
            elif psi > 0 or (psi == 0 and rho > r1):
                assert tag is Region.S2_1
            else:
                assert tag is Region.S2_3

    def test_deterministic(self, params):
        err = PathError(17.3, -0.21)
        assert classify(err, params) is classify(err, params)


class TestSwitchingValue:
    def test_zero_at_origin(self, params):
        assert switching_value(0.0, 0.0, params) == 0.0

    def test_monotone(self, params):
        rng = np.random.default_rng(5)
        for _ in range(5000):
            rho = rng.uniform(-RHO_MAX, RHO_MAX)
            psi = rng.uniform(-math.pi / 2.0, math.pi / 2.0)
            d_rho = rng.uniform(1e-6, 10.0)
            d_psi = rng.uniform(1e-6, 0.1)
            base = switching_value(rho, psi, params)
            assert switching_value(rho + d_rho, psi, params) > base
            if abs(psi + d_psi) <= math.pi / 2.0:
                assert switching_value(rho, psi + d_psi, params) > base


class TestEscapeSet:
    def test_extreme_corner_is_member(self, params):
        r0 = 1.0 / params.kappa_bound
        assert in_escape_set(PathError(r0, math.pi / 2.0), params, 0.05)

    def test_origin_not_member(self, params):
        assert not in_escape_set(PathError(0.0, 0.0), params, 0.05)

    def test_slightly_inside_not_member(self, params):
        # 10*(pi/2 - 0.05)*sin(0.05)/0.2 + 495 - 500 = 3.80 - 5 < 0
        r0 = 1.0 / params.kappa_bound
        assert not in_escape_set(PathError(0.99 * r0, math.pi / 2.0), params, 0.05)

    def test_domain_gate(self, params):
        r0 = 1.0 / params.kappa_bound
        assert not in_escape_set(PathError(r0, -0.1), params, 0.05)
        assert not in_escape_set(PathError(-1.0, math.pi / 2.0), params, 0.05)


def test_error_dynamics_consistent_with_kinematics(circle):
    """Integrating the error equations tracks the full kinematic simulation."""
    s0 = 200.0
    rho0, psi0 = 50.0, 0.3
    x0, y0 = circle.point_at(s0)
    ta = circle.tangent_angle_at(s0)
    x = x0 - rho0 * math.sin(ta)
    y = y0 + rho0 * math.cos(ta)
    # interior offset of a ccw circle reduces the radius: rho is +50 here
    theta = ta + psi0
    v, omega = 15.0, 0.012
    dt, n = 1.0e-3, 10_000

    rho_ref, psi_ref = integrate_error_dynamics(rho0, psi0, v, omega, 0.001, dt, n)
    for _ in range(n):
        x, y, theta = rk4_unicycle(x, y, theta, v, omega, dt)
    err = compute_error(UavState(1, x, y, theta), circle)
    assert err.rho == pytest.approx(rho_ref, abs=1e-6)
    assert err.psi == pytest.approx(psi_ref, abs=1e-7)
