"""Mutants of the batched law's region tables, each failed by a suite.

A suite that cannot tell a correct law from a broken one checks nothing.
Each test breaks one table entry of the batched law, the one the suites
run, and pins the failure that a suite reports: its count and its full
first counterexample.  The scalar law is left alone.
"""

import pytest

from cpfsim import control_laws as cl
from cpfsim import verification as vmod
from cpfsim.config import build_scenario, bundled_config_path, load_config
from cpfsim.error_frame import Region
from cpfsim.exceptions import OutsideUniverse


@pytest.fixture(scope="module")
def params():
    return build_scenario(load_config(bundled_config_path("circle6")), duration=0.0).params


@pytest.fixture
def turn_flipped(monkeypatch):
    # every outer subset turns the other way
    monkeypatch.setattr(cl, "_TURN_ARR", -cl._TURN_ARR)


def test_turn_flipped_fails_reach_robust(params, turn_flipped):
    # starts in S2_1 and S2_3 either circle in their subset past the horizon
    # or leave the universe; every one of them fails
    r = vmod.suite_reach_robust(params, n_per_class=50, seed=0)
    assert (r.passed, r.checked, r.failures) == (False, 100, 100)
    assert r.first_counterexample == (
        "S2_1: start=(110.939, 0.8476) kappa=-0.00182 left_subset=None bound=36.48s "
        "entered_s1=None")


def test_turn_flipped_makes_reach_box_leave_the_universe(params, turn_flipped):
    with pytest.raises(OutsideUniverse, match=r"^\|rho\|=405\.050 exceeds rho_universe=405\.000$"):
        vmod.suite_reach_box(params, n_per_class=50, seed=0)


def test_reset_sign_flipped_in_s1_5_fails_reset_bound_and_switch_drive(params, monkeypatch):
    # S1_5's reset tests its margin inequality with the wrong sign: one state
    # of 20,000 gets a speed below v_coord and a heading rate that does not
    # drive it toward the switching surface
    sign = cl._RESET_SIGN_ARR.copy()
    sign[Region.S1_5.code] = -sign[Region.S1_5.code]
    monkeypatch.setattr(cl, "_RESET_SIGN_ARR", sign)
    r = vmod.suite_reset_bound(params, n=20_000, seed=0)
    assert (r.passed, r.failures) == (False, 1)
    assert r.first_counterexample == (
        "state 3837: (-67.3065, 0.3438) kappa=-0.00173 zeta=1373.54: reset bound violated: "
        "v=12.892902127439818 v_before=25.0")
    r = vmod.suite_switch_drive(params, n=20_000, seed=0)
    assert (r.passed, r.failures) == (False, 1)
    assert r.first_counterexample == (
        "state 3837: (-67.3065, 0.3438) kappa=-0.00173: theta<0 but psi_dot=-0.010000000000000002")


def test_unmutated_tables_pass(params):
    # the state suites' cells above on the law as it is (golden_suites.json
    # pins the reach suites' cells)
    results = [vmod.suite_reset_bound(params, n=20_000, seed=0),
               vmod.suite_switch_drive(params, n=20_000, seed=0)]
    assert all(r.passed for r in results), [r.summary() for r in results]
