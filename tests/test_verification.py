import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from cpfsim import verification as vmod
from cpfsim.config import build_scenario, bundled_config_path, load_config
from cpfsim.simulator import escape_demo
from cpfsim.verification import suite_reach_box

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


def test_golden_reset_bound_criterion_5(params):
    assert asdict(vmod.suite_reset_bound(params, n=100_000, seed=0)) == GOLDEN["criterion5"]


def test_golden_escape_reports(params):
    for e in GOLDEN["escape_demo"]:
        kw = {k: tuple(v) if isinstance(v, list) else v for k, v in e["kwargs"].items()}
        assert vars(escape_demo(params, **kw)) == e["report"], kw


def test_coord_states_draw_like_one_at_a_time(circle6_scenario):
    # curvature then spacing per state, after all states, as scalar draws
    params = circle6_scenario.params
    chi = vmod.build_chi(params)
    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    rho, psi, kappa, zeta, *_ = vmod._coord_states(rng, params, 500, chi)
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
    chi = parallel4_scenario.chi()
    top = (pure.v_max - chi(0.0)) / chi.slope
    assert top == pytest.approx(24.77, abs=0.01)
    zeta = vmod._coord_states(np.random.default_rng(0), pure, 20_000, chi)[3]
    assert 0.0 <= zeta.min() < 0.01 * top and 0.99 * top < zeta.max() < top


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_zero_spacing_state_suites_pass(parallel4_scenario, seed):
    sc = parallel4_scenario
    results = vmod.run_suites(sc.params, sc.paths[0], names=["reset_bound", "switch_drive"],
                              seed=seed, chi=sc.chi())
    assert [r.passed for r in results] == [True, True], [r.summary() for r in results]
