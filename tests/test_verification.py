from cpfsim.config import build_scenario, bundled_config_path, load_config
from cpfsim.verification import suite_reach_box


def test_reach_box_allows_for_step_quantized_entry():
    # seed 5 draws a start 0.0003 m outside rho_max: the analytic bound is
    # 0.00 s and entry is first observed one step later, at t = 0.01 s
    params = build_scenario(load_config(bundled_config_path("circle6"))).params
    r = suite_reach_box(params, n_per_class=50, seed=5)
    assert r.passed, r.first_counterexample
    assert r.checked == 100
