import math
import time

import pytest

from cpfsim.config import build_scenario, bundled_config_path, load_config
from cpfsim.param_design import CoordParams, SpeedLimits, design_coordination_set
from cpfsim.paths import CirclePath, SplinePath
from cpfsim.simulator import run_scenario

# Circle scenario constants used across modules.
SPACING = 1000.0 * math.pi / 3.0
PSI_MAX = 0.6303
RHO_MAX = 122.1297
V_MIN_REF = 10.0 / (1.0 - 0.002 * RHO_MAX)          # 13.232053432090323
CHI_AT_SPACING = V_MIN_REF + 0.475 * 6.0            # 16.082053432090323
CHI_FAST = math.cos(PSI_MAX) * 25.0 / (1.0 + 0.002 * RHO_MAX)
# blend hitting CHI_AT_SPACING exactly, so the ramp slopes come out 0.475/0.95
CHI_BLEND = (CHI_FAST - CHI_AT_SPACING) / (CHI_FAST - V_MIN_REF)

HIL_WAYPOINTS = [(0.0, 0.0), (2006.43, 1996.54), (4013.47, 0.0),
                 (6019.83, -1997.26), (8026.83, 0.0), (10033.19, 1997.87),
                 (12040.19, 0.0)]
HIL_LONLAT = [(113.2167, 28.2029), (113.2371, 28.2209), (113.2167, 28.2390),
              (113.1963, 28.2570), (113.2167, 28.2751), (113.2371, 28.2931),
              (113.2167, 28.3112)]

# The property tests draw their cases from seeded numpy streams.  A float
# drawn from [lo, hi] is, with probability EDGE_P, one of the interval's
# edge values: its bounds and those of EDGE_FLOATS (signed zeros, the
# smallest subnormal, the smallest normal and a tiny normal) that lie in it.
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
               1e-291, -1e-291)
EDGE_P = 0.1


def draw_float(rng, lo, hi):
    if rng.random() < EDGE_P:
        pool = [lo, hi] + [v for v in EDGE_FLOATS if lo <= v <= hi]
        return pool[rng.integers(len(pool))]
    return float(rng.uniform(lo, hi))


def for_each_draw(n, draw, check):
    """Run ``check(*case)`` on ``n`` cases ``draw()``; a failure names the
    draw and its case, which replays as an explicit case."""
    for i in range(n):
        case = draw()
        try:
            check(*case)
        except Exception as exc:
            raise AssertionError(f"draw {i} of {n} fails: {case!r}") from exc


@pytest.fixture(scope="session")
def limits():
    return SpeedLimits(v_min=10.0, v_max=25.0, omega_max=0.2, kappa_bound=0.002)


@pytest.fixture(scope="session")
def params(limits):
    """The circle-scenario parameter point with default gains and margins."""
    p = CoordParams(
        psi_max=PSI_MAX, rho_max=RHO_MAX, v_coord=25.0, rho_universe=405.0,
        v_min=limits.v_min, v_max=limits.v_max, omega_max=limits.omega_max,
        kappa_bound=limits.kappa_bound, alpha=0.01, speed_margin=1.0,
        k1=1.0, k2=RHO_MAX / PSI_MAX + 1.0, k3=1.0, eps_switch=0.05,
        chi_blend=CHI_BLEND, chi_delta1=6.0,
        spacing=SPACING, sign_eps=1.0e-3)
    p.validate()
    return p


@pytest.fixture(scope="session")
def designed_params(limits):
    return design_coordination_set(limits, speed_margin=1.0, alpha=0.01,
                                   spacing=SPACING)


@pytest.fixture(scope="session")
def circle():
    return CirclePath(center=(0.0, 0.0), radius=1000.0, direction="ccw",
                      kappa_bound=0.002)


@pytest.fixture(scope="session")
def hil_spline():
    return SplinePath(HIL_WAYPOINTS, kappa_bound=0.002)


@pytest.fixture(scope="session")
def parallel4_run():
    """(scenario, trace, metrics) of the bundled parallel4 scenario at full length."""
    scenario = build_scenario(load_config(bundled_config_path("parallel4")))
    return (scenario, *run_scenario(scenario))


@pytest.fixture(scope="session")
def circle6_cfg():
    return load_config(bundled_config_path("circle6"))


@pytest.fixture(scope="session")
def circle6_run(circle6_cfg, tmp_path_factory):
    """(scenario, trace, metrics, wall s, trace.csv bytes) of the bundled circle6 scenario."""
    scenario = build_scenario(circle6_cfg)
    t0 = time.time()
    trace, metrics = run_scenario(scenario)
    wall = time.time() - t0
    out = tmp_path_factory.mktemp("circle6") / "trace.csv"
    trace.write_csv(out)
    return scenario, trace, metrics, wall, out.read_bytes()
