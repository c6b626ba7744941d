import json
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import cpfsim
from cpfsim import verification as vmod
from cpfsim.config import build_scenario, bundled_config_path, load_config
from cpfsim.error_frame import N_S1
from cpfsim.exceptions import Infeasible
from cpfsim.param_design import SpeedLimits, design_coordination_set
from cpfsim.paths import SplinePath
from cpfsim.verification import escape_demo, suite_reach_box

from test_config_cli import MINIMAL

# Every SuiteResult field and EscapeReport of the scalar suites (one
# hybrid_supervisor call and one RK4 step per state per step) and of the
# scalar-era escape_demo, recorded from that code before the suites were
# batched.  Never regenerate these from the batched code.
GOLDEN = json.loads((Path(__file__).parent / "golden_suites.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def circle6_scenario():
    return build_scenario(load_config(bundled_config_path("circle6")))


def test_reach_box_allows_for_step_quantized_entry(circle6_scenario):
    # seed 5 draws a start 0.0003 m outside rho_max: the analytic bound is
    # 0.00 s and entry is first observed one step later, at t = 0.01 s
    r = suite_reach_box(circle6_scenario.params, n_per_class=50, seed=5)
    assert r.passed, r.first_counterexample
    assert r.checked == 100


@pytest.mark.parametrize("seed", range(4))
def test_golden_suite_outcomes_benchmark_sizes(circle6_scenario, seed):
    entries = [e for e in GOLDEN["verify_sizes"] if e["seed"] == seed]
    assert len(entries) == len(vmod.SUITE_NAMES)
    for e in entries:
        fn = getattr(vmod, f"suite_{e['suite']}")
        args = ((circle6_scenario.params, circle6_scenario.paths[0])
                if e["suite"] == "no_overtaking" else (circle6_scenario.params,))
        assert asdict(fn(*args, seed=seed, **e["kwargs"])) == e["result"], e["suite"]


def test_no_overtaking_rejects_a_short_path_at_the_cli(tmp_path):
    # five arc positions more than 1 m apart do not fit on a 3 m path: the
    # draw looped forever, so the suite runs in a process of its own
    cfg = tmp_path / "short.yaml"
    cfg.write_text(MINIMAL.replace(
        "{kind: circle, center: [0.0, 0.0], radius: 1000.0, direction: ccw}",
        "{kind: bspline, waypoints: [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]}"),
        encoding="utf-8")
    src = str(Path(cpfsim.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-m", "cpfsim.cli", "verify", "--config", str(cfg),
                           "--suite", "no_overtaking"], capture_output=True, text=True, env=env,
                          timeout=20)
    assert proc.returncode == 1
    assert proc.stderr == "error: no_overtaking needs a path of at least 10 m, got 3 m\n"


def test_no_overtaking_rejects_a_path_shorter_than_10_m(circle6_scenario):
    # a draw on 9 m passes with probability (1 - 5/9)^4, 0.04
    path = SplinePath([(0.0, 0.0), (3.0, 0.0), (6.0, 0.0), (9.0, 0.0)])
    with pytest.raises(ValueError, match="got 9 m"):
        vmod.suite_no_overtaking(circle6_scenario.params, path, n_runs=1, duration=0.01)


def test_golden_invariance_broken_params(tmp_path):
    # heading box wider than the turn budget: the counterexample prints the
    # failing state to 6 decimals
    cfg = tmp_path / "broken.yaml"
    cfg.write_text(MINIMAL.replace("psi_max: 0.6303, rho_max: 122.1297",
                                   "psi_max: 0.78, rho_max: 20.0"), encoding="utf-8")
    params = build_scenario(load_config(cfg)).params
    assert asdict(vmod.suite_invariance(params, 200, seed=0)) == GOLDEN["broken_invariance"]


@pytest.fixture(scope="module")
def broken_params(tmp_path_factory):
    # heading box wider than the turn budget (test_golden_invariance_broken_params)
    cfg = tmp_path_factory.mktemp("broken") / "broken.yaml"
    cfg.write_text(MINIMAL.replace("psi_max: 0.6303, rho_max: 122.1297",
                                   "psi_max: 0.78, rho_max: 20.0"), encoding="utf-8")
    return build_scenario(load_config(cfg)).params


def test_reset_bound_fails_on_broken_params(broken_params):
    r = vmod.suite_reset_bound(broken_params, n=1000, seed=0)
    assert (r.passed, r.checked, r.failures, r.info) == (False, 1000, 80, {"resets_observed": 80})
    assert r.first_counterexample == (
        "state 10: (7.4217, 0.2347) kappa=-0.00136 zeta=1512.49: reset bound violated: "
        "v=18.302147913731094 v_before=25.0")


def test_switch_drive_fails_on_broken_params(broken_params):
    r = vmod.suite_switch_drive(broken_params, n=1000, seed=0)
    assert (r.passed, r.checked, r.failures) == (False, 1000, 34)
    assert r.first_counterexample == (
        "state 2: (1.7450, 0.6787) kappa=0.00118: drift ratio -0.014212550362837853 > -0.039")


def test_reach_box_fails_a_start_held_still(circle6_scenario, monkeypatch):
    # run 0 of S2_4 is held at its start: it never enters S1, runs to its
    # deadline and leaves the batch there; every other start enters in time
    step, start = vmod.batch_error_step, []

    def hold(rho, psi, *args):
        new_rho, new_psi = step(rho, psi, *args)
        if not start:
            start.append((rho[0], psi[0]))
        if (rho[0], psi[0]) == start[0]:
            new_rho[0], new_psi[0] = start[0]
        return new_rho, new_psi

    monkeypatch.setattr(vmod, "batch_error_step", hold)
    r = vmod.suite_reach_box(circle6_scenario.params, n_per_class=50, seed=0)
    assert (r.passed, r.checked, r.failures) == (False, 100, 1)
    assert r.first_counterexample == (
        "S2_4 run 0: start=(302.307, -0.2066) kappa=-0.00182 bound=87.85s entered=None")


def test_invariance_fails_a_one_step_graze(circle6_scenario, monkeypatch):
    # run 0 is put 5e-5 m outside the rho edge of S1 for one step, then back
    # inside: any step outside the set fails the run, however small
    params, step, calls = circle6_scenario.params, vmod.batch_error_step, []

    def push(rho, psi, *args):
        rho, psi = step(rho, psi, *args)
        calls.append(len(calls))
        if calls[-1] in (9, 10):
            rho, psi = rho.copy(), psi.copy()
            rho[0], psi[0] = (params.rho_max + 5.0e-5, 0.0) if calls[-1] == 9 else (0.0, 0.0)
        return rho, psi

    monkeypatch.setattr(vmod, "batch_error_step", push)
    r = vmod.suite_invariance(params, n_runs=20, duration=1.0, seed=0)
    assert (r.passed, r.failures) == (False, 1)
    assert r.first_counterexample.startswith("run 0: start=(")
    assert r.first_counterexample.endswith(
        f"t=0.09s state=({params.rho_max + 5.0e-5:.6f}, 0.000000) slack=5.000e-05")


@pytest.mark.parametrize("where, region", [("rho_max", "S2_1"), ("rho_universe", "OutsideS")])
def test_no_overtaking_fails_a_run_whose_uav_leaves_s1(circle6_scenario, monkeypatch, where,
                                                       region):
    # run 0's UAV 0 is put just outside the rho edge of S1, or outside the
    # universe, by the tenth step: the claim's premise fails there, so the
    # run fails; an outer subset passed and the universe raised OutsideUniverse
    params, step, calls = circle6_scenario.params, vmod.batch_error_step, []

    def push(rho, psi, *args):
        rho, psi = step(rho, psi, *args)
        calls.append(len(calls))
        if calls[-1] == 9:
            rho, psi = rho.copy(), psi.copy()
            rho[0], psi[0] = getattr(params, where) + 5.0e-5, 0.0
        return rho, psi

    monkeypatch.setattr(vmod, "batch_error_step", push)
    r = vmod.suite_no_overtaking(params, circle6_scenario.paths[0], n_runs=2, duration=5.0,
                                 seed=0)
    assert (r.passed, r.checked, r.failures) == (False, 2, 1)
    assert r.first_counterexample == (
        f"run 0: UAV 0 left the coordination set at t=0.10s in {region}")


def test_invariance_holds_on_designed_sets():
    # no step leaves S1 at dt 0.01, on a seeded family of designs whose limits
    # span v_min 5-15, v_max - v_min 2-22, omega_max 0.05-0.4, kappa_bound 5e-4-0.01
    rng, designs = np.random.default_rng(26), []
    while len(designs) < 8:
        v_min = rng.uniform(5.0, 15.0)
        limits = SpeedLimits(v_min, v_min + rng.uniform(2.0, 22.0), rng.uniform(0.05, 0.4),
                             rng.uniform(5.0e-4, 0.01))
        try:
            designs.append(design_coordination_set(limits, spacing=1000.0))
        except Infeasible:
            continue
    for params in designs:
        r = vmod.suite_invariance(params, n_runs=100, duration=10.0, seed=0)
        assert r.passed, (params.limits(), r.first_counterexample)


def test_golden_reset_bound_criterion_5(params):
    assert asdict(vmod.suite_reset_bound(params, n=100_000, seed=0)) == GOLDEN["criterion5"]


def test_golden_escape_reports(params):
    for e in GOLDEN["escape_demo"]:
        kw = {k: tuple(v) if isinstance(v, list) else v for k, v in e["kwargs"].items()}
        assert vars(escape_demo(params, **kw)) == e["report"], kw


def test_coord_states_draw_like_one_at_a_time(circle6_scenario):
    # curvature then spacing per state, after all states, as scalar draws
    params = circle6_scenario.params
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    rho, psi, kappa, zeta, *_ = vmod._coord_states(rng, params, 500)
    states = list(zip(*(x.tolist() for x in vmod.sample_s1(ref, params, 500))))
    draws = [(ref.uniform(-0.999 * params.kappa_bound, 0.999 * params.kappa_bound),
              ref.uniform(0.0, 2.0 * params.spacing)) for _ in states]
    assert list(zip(rho.tolist(), psi.tolist())) == states
    assert list(zip(kappa.tolist(), zeta.tolist())) == draws


@pytest.fixture(scope="module")
def parallel4_scenario():
    return build_scenario(load_config(bundled_config_path("parallel4")), duration=0.0)


def test_zero_spacing_draws_zeta_up_to_v_max(parallel4_scenario):
    # every zeta was 0, so the coordinated law was checked at one speed only
    pure = replace(parallel4_scenario.params, sign_eps=0.0)
    chi = vmod.build_chi(pure)
    top = (pure.v_max - chi(0.0)) / chi.slope
    assert top == pytest.approx(24.77, abs=0.01)
    zeta = vmod._coord_states(np.random.default_rng(0), pure, 20_000)[3]
    assert 0.0 <= zeta.min() < 0.01 * top and 0.99 * top < zeta.max() < top


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_zero_spacing_state_suites_pass(parallel4_scenario, seed):
    sc = parallel4_scenario
    results = vmod.run_suites(sc.params, sc.paths[0], names=["reset_bound", "switch_drive"],
                              seed=seed)
    assert [r.passed for r in results] == [True, True], [r.summary() for r in results]


@pytest.mark.parametrize("seed", range(4))
def test_zero_spacing_invariance_draws_zeta_per_run(parallel4_scenario, monkeypatch, seed):
    # every run held zeta at 0, the linear chi's floor; now each run draws
    # its own zeta in [0, z) with chi(z) = v_max, after its start and curvature
    params = parallel4_scenario.params
    chi = vmod.build_chi(params)
    top = (params.v_max - chi(0.0)) / chi.slope
    law, seen = vmod.batch_coord_law, []

    def spy(rho, psi, kappa, chi_z, *args):
        seen.append(chi_z)
        return law(rho, psi, kappa, chi_z, *args)

    monkeypatch.setattr(vmod, "batch_coord_law", spy)
    # benchmark size (perfbench's verify workload)
    r = vmod.suite_invariance(params, n_runs=200, duration=5.0, seed=seed)
    assert r.passed, r.first_counterexample
    ref = np.random.default_rng(seed)
    vmod.sample_s1(ref, params, 200)
    ref.uniform(-0.99 * params.kappa_bound, 0.99 * params.kappa_bound, 200)
    zeta = ref.uniform(0.0, top, 200)
    assert np.array_equal(seen[0], chi.many(zeta))
    assert 0.0 <= zeta.min() < 0.05 * top and 0.95 * top < zeta.max() < top


@pytest.mark.parametrize("suite", ["reach_box", "reach_robust"])
def test_reach_suites_run_the_law_on_outer_lanes_only(parallel4_scenario, monkeypatch, suite):
    # _run_to_s1 drops a lane as it enters S1, before the law runs: the
    # reach suites never run the coordinated law
    law, codes = vmod.batch_outer_law, []

    def spy(rho, psi, kappa, params, code):
        codes.append(code)
        return law(rho, psi, kappa, params, code)

    def coord(*args):
        raise AssertionError("coordinated law called")

    monkeypatch.setattr(vmod, "batch_outer_law", spy)
    monkeypatch.setattr(vmod, "batch_coord_law", coord)
    r = getattr(vmod, f"suite_{suite}")(parallel4_scenario.params, n_per_class=50, seed=0)
    assert r.passed, r.first_counterexample
    assert codes and all((code >= N_S1).all() for code in codes)
