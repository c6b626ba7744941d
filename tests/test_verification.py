import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from cpfsim import verification as vmod
from cpfsim.config import build_scenario, bundled_config_path, load_config
from cpfsim.error_frame import N_S1
from cpfsim.exceptions import Infeasible
from cpfsim.param_design import SpeedLimits, design_coordination_set
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


def test_golden_invariance_broken_params(tmp_path):
    # heading box wider than the turn budget: the counterexample prints the
    # failing state to 6 decimals
    cfg = tmp_path / "broken.yaml"
    cfg.write_text(MINIMAL.replace("psi_max: 0.6303, rho_max: 122.1297",
                                   "psi_max: 0.78, rho_max: 20.0"), encoding="utf-8")
    params = build_scenario(load_config(cfg)).params
    assert asdict(vmod.suite_invariance(params, 200, seed=0)) == GOLDEN["broken_invariance"]


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
    law, seen = vmod.batch_hybrid_law, []

    def spy(rho, psi, kappa, zeta, *args):
        seen.append(zeta)
        return law(rho, psi, kappa, zeta, *args)

    monkeypatch.setattr(vmod, "batch_hybrid_law", spy)
    # benchmark size (perfbench's verify workload)
    r = vmod.suite_invariance(params, n_runs=200, duration=5.0, seed=seed)
    assert r.passed, r.first_counterexample
    ref = np.random.default_rng(seed)
    vmod.sample_s1(ref, params, 200)
    ref.uniform(-0.99 * params.kappa_bound, 0.99 * params.kappa_bound, 200)
    assert np.array_equal(seen[0], ref.uniform(0.0, top, 200))
    assert 0.0 <= seen[0].min() < 0.05 * top and 0.95 * top < seen[0].max() < top


@pytest.mark.parametrize("suite", ["reach_box", "reach_robust"])
def test_reach_suites_run_the_law_on_outer_lanes_only(parallel4_scenario, monkeypatch, suite):
    # _run_to_s1 drops a lane as it enters S1, before the law runs, and the
    # outer laws do not read zeta: the reach suites never evaluate the chi
    law, codes = vmod.batch_hybrid_law, []

    def spy(rho, psi, kappa, zeta, params, chi, code):
        codes.append(code)
        return law(rho, psi, kappa, zeta, params, chi, code)

    monkeypatch.setattr(vmod, "batch_hybrid_law", spy)
    r = getattr(vmod, f"suite_{suite}")(parallel4_scenario.params, n_per_class=50, seed=0)
    assert r.passed, r.first_counterexample
    assert codes and all((code >= N_S1).all() for code in codes)
