"""The batched law and error-dynamics step against the scalar law and RK4.

Equality is exact throughout: region codes, commands and trajectories are
compared with ``==``, never with a tolerance.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from cpfsim.control_laws import (ControlCommand, _batch_reset, batch_hybrid_law, build_chi,
                                 hybrid_supervisor, reset_value)
from cpfsim.error_frame import (REGIONS, PathError, Region, batch_classify,
                                batch_error_step, classify)
from cpfsim.exceptions import OutsideUniverse
from cpfsim.verification import sample_s1

from oracles import error_step, integrate_error_dynamics, sample_s1_one_at_a_time


def random_states(params, n, seed):
    """States over every region: the set's box, the universe and its rim, and
    exact boundary values (zero, the set's corners, the switching surface)."""
    rng = np.random.default_rng(seed)
    a, r1, r2 = params.psi_max, params.rho_max, params.rho_universe
    k = n // 4
    rho = np.concatenate([rng.uniform(-r1, r1, k), rng.uniform(-1.05 * r2, 1.05 * r2, k),
                          rng.uniform(-1.2 * r1, 1.2 * r1, k), np.empty(n - 3 * k)])
    psi = np.concatenate([rng.uniform(-a, a, k), rng.uniform(-math.pi, math.pi, k),
                          rng.uniform(-1.2 * a, 1.2 * a, k), np.empty(n - 3 * k)])
    edges_rho = np.array([0.0, -0.0, r1, -r1, r2, -r2, 0.5 * r1, -0.5 * r1,
                          np.nextafter(r1, 0.0), np.nextafter(r2, np.inf)])
    edges_psi = np.array([0.0, -0.0, a, -a, a - params.eps_switch,
                          -a + params.eps_switch, 0.5 * a, -0.5 * a, 1.0, -1.0])
    m = n - 3 * k
    rho[3 * k:] = rng.choice(edges_rho, m)
    psi[3 * k:] = rng.choice(edges_psi, m)
    # a slice on the switching surface: theta == 0 up to rounding
    j = 3 * k + m // 2
    psi[j:j + 100] = rng.uniform(-0.1, 0.1, 100)
    rho[j:j + 100] = -(params.k2 * psi[j:j + 100] + params.k3 * np.sin(psi[j:j + 100]))
    rho[j:j + 100] /= params.k1
    kappa = rng.uniform(-params.kappa_bound, params.kappa_bound, n)
    kappa[rng.random(n) < 0.3] = 0.0
    spacing, d1 = params.spacing, params.chi_delta1
    zeta = rng.uniform(0.0, 2.0 * spacing, n)
    zeta[:8] = [spacing, spacing - d1, spacing + d1, 0.0, 2.0 * spacing,
                np.nextafter(spacing - d1, 0.0), np.nextafter(spacing + d1, np.inf),
                spacing + 2.0 * d1]
    return rho, psi, kappa, zeta


@pytest.mark.parametrize("sign_eps", [0.0, 1.0e-3])
def test_batch_law_equals_supervisor(params, sign_eps):
    p = replace(params, sign_eps=sign_eps)
    chi = build_chi(p)
    rho, psi, kappa, zeta = random_states(p, 100_000, seed=7)
    code = batch_classify(rho, psi, p)
    v, omega = batch_hybrid_law(rho, psi, kappa, zeta, p, chi, code)
    seen = set()
    for i, (r, s, k, z) in enumerate(zip(rho.tolist(), psi.tolist(), kappa.tolist(),
                                         zeta.tolist())):
        err = PathError(r, s, 0.0, k)
        region = classify(err, p)
        assert REGIONS[code[i]] is region, (i, r, s)
        seen.add(region)
        if region is Region.OUTSIDE:
            with pytest.raises(OutsideUniverse):
                hybrid_supervisor(err, z, p, chi)
            assert math.isnan(v[i]) and math.isnan(omega[i])
            continue
        cmd = hybrid_supervisor(err, z, p, chi)
        assert (v[i], omega[i]) == (cmd.v, cmd.omega), (i, region, r, s, k, z)
    assert seen == set(Region)
    assert (kappa == 0.0).sum() > 10_000


def test_batch_reset_equals_reset_value(params):
    # arbitrary commands in the box, so every subset's inequality is violated
    # often (the law's own commands rarely trigger a reset)
    rng = np.random.default_rng(12)
    rho, psi, kappa, _ = random_states(params, 100_000, seed=12)
    code = batch_classify(rho, psi, params)
    s1 = code < 6
    rho, psi, kappa, code = rho[s1], psi[s1], kappa[s1], code[s1]
    v = rng.uniform(params.v_min, params.v_max, rho.size)
    omega = rng.uniform(-params.omega_max, params.omega_max, rho.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        got = _batch_reset(v, omega, code, np.sin(psi), np.cos(psi), kappa,
                           1.0 - kappa * rho, params)
    changed = set()
    for i, (r, s, k, vi, wi) in enumerate(zip(rho.tolist(), psi.tolist(), kappa.tolist(),
                                               v.tolist(), omega.tolist())):
        region = REGIONS[code[i]]
        want = reset_value(ControlCommand(vi, wi, region), PathError(r, s, 0.0, k), params)
        assert got[i] == want, (i, region)
        if want != vi:
            changed.add(region)
    assert changed == {r for r in Region if r.in_s1}


def test_batch_law_scalar_zeta(params):
    # a scalar spacing (the suites' desired spacing) gives the array result
    chi = build_chi(params)
    rho, psi, kappa, _ = random_states(params, 20_000, seed=8)
    code = batch_classify(rho, psi, params)
    v1, w1 = batch_hybrid_law(rho, psi, kappa, params.spacing, params, chi, code)
    v2, w2 = batch_hybrid_law(rho, psi, kappa, np.full(rho.size, params.spacing),
                              params, chi, code)
    assert np.array_equal(v1, v2, equal_nan=True) and np.array_equal(w1, w2, equal_nan=True)


def test_batch_law_region_subsets(params):
    # lanes of one region alone, and mixed lanes, give the same commands
    chi = build_chi(params)
    rho, psi, kappa, zeta = random_states(params, 20_000, seed=9)
    code = batch_classify(rho, psi, params)
    v, omega = batch_hybrid_law(rho, psi, kappa, zeta, params, chi, code)
    for region in REGIONS:
        m = code == region.code
        vm, wm = batch_hybrid_law(rho[m], psi[m], kappa[m], zeta[m], params, chi, code[m])
        assert np.array_equal(vm, v[m], equal_nan=True)
        assert np.array_equal(wm, omega[m], equal_nan=True)


def test_batch_error_step_held_controls(params):
    rng = np.random.default_rng(3)
    n, steps, dt = 60, 3000, 0.01
    rho = rng.uniform(-300.0, 300.0, n)
    psi = rng.uniform(-math.pi, math.pi, n)
    v = rng.uniform(params.v_min, params.v_max, n)
    omega = rng.uniform(-params.omega_max, params.omega_max, n)
    kappa = rng.uniform(-params.kappa_bound, params.kappa_bound, n)
    kappa[:10] = 0.0
    ref = list(zip(rho.tolist(), psi.tolist()))
    br, bp = rho, psi
    for _ in range(steps):
        br, bp = batch_error_step(br, bp, v, omega, kappa, dt)
        ref = [error_step(r, p, vi, wi, ki, dt) for (r, p), vi, wi, ki
               in zip(ref, v.tolist(), omega.tolist(), kappa.tolist())]
    assert list(zip(br.tolist(), bp.tolist())) == ref
    # unwrapped, as escape_demo steps it: equal to the fine reference RK4
    ur, up = rho, psi
    for _ in range(steps):
        ur, up = batch_error_step(ur, up, v, omega, kappa, dt, wrap=False)
    for i in range(n):
        assert (ur[i], up[i]) == integrate_error_dynamics(
            float(rho[i]), float(psi[i]), float(v[i]), float(omega[i]), float(kappa[i]),
            dt, steps)


def test_batch_closed_loop_equals_scalar_loop(params):
    # 4 starts per region of the universe, 3,000 steps of law + RK4 each
    chi = build_chi(params)
    rho, psi, kappa, _ = random_states(params, 4000, seed=11)
    code = batch_classify(rho, psi, params)
    pick = np.concatenate([np.flatnonzero(code == r.code)[:4] for r in REGIONS
                           if r is not Region.OUTSIDE])
    assert pick.size == 40
    rho, psi, kappa = rho[pick], psi[pick], kappa[pick]
    ref = list(zip(rho.tolist(), psi.tolist()))
    for _ in range(3000):
        code = batch_classify(rho, psi, params)
        assert (code != Region.OUTSIDE.code).all()
        v, omega = batch_hybrid_law(rho, psi, kappa, params.spacing, params, chi, code)
        rho, psi = batch_error_step(rho, psi, v, omega, kappa, 0.01)
        nxt = []
        for (r, p), k in zip(ref, kappa.tolist()):
            cmd = hybrid_supervisor(PathError(r, p, 0.0, k), params.spacing, params, chi)
            nxt.append(error_step(r, p, cmd.v, cmd.omega, k, 0.01))
        ref = nxt
    assert list(zip(rho.tolist(), psi.tolist())) == ref


@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("n", [1, 7, 5000])  # 5000: rounds of at most _BLOCK attempts
def test_sample_s1_unchanged(params, seed, n):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    rho, psi = sample_s1(rng, params, n)
    assert list(zip(rho.tolist(), psi.tolist())) == sample_s1_one_at_a_time(ref_rng, params, n)
    # the generator is left where the one-at-a-time loop leaves it
    assert rng.random() == ref_rng.random()
