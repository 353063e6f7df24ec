"""Acceptance gate: the ten headline criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines; each test prints exactly one PASS/FAIL line before asserting.
"""

import time

import numpy as np
import pytest
from scipy import stats

from levyreduce import (
    RadialMeasure,
    ReducedModel,
    RngStream,
    SimConfig,
    bond_price,
    compare_term_structures,
    compensated_exp,
    density_reducibility_check,
    density_spec,
    improper_value,
    induced_spec,
    laplace_radial,
    mc_bond_prices,
    power_radial,
    q_ratios,
    radial_balance,
    reduce_model,
    reduced_run,
    riccati_solve,
    sample_stable,
    spherical_integrate,
    stable_coefficient,
)

from conftest import C_15
from test_spherical import cartesian_reference, smooth_window


def verdict(n, label, ok, detail=""):
    line = f"criterion {n:02d} [{label}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_stable_coefficient_identity():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (1.1, 1.5, 1.9):
        quad = improper_value(lambda v, _a=alpha: compensated_exp(v) * v ** (-1.0 - _a))
        worst = max(worst, abs(quad / stable_coefficient(alpha) - 1.0))
    elapsed = time.perf_counter() - start
    verdict(
        1,
        "c_alpha identity",
        worst < 1e-8 and elapsed < 1.0,
        f"max rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_kernel_scaling_bounds():
    # min(1, t^2) H(z) <= H(tz) <= max(1, t^2) H(z), and the same
    # envelope for every radial Laplace exponent J_rho
    rng = np.random.default_rng(202)
    z = rng.uniform(0.0, 50.0, size=100_000)
    t = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=z.size))
    h, ht = compensated_exp(z), compensated_exp(t * z)
    slack = 1e-12 * np.maximum(1.0, np.maximum(h, ht))
    kernel_viol = int(
        np.count_nonzero(
            (np.minimum(1.0, t * t) * h > ht + slack)
            | (ht > np.maximum(1.0, t * t) * h + slack)
        )
    )

    fixtures = [
        power_radial(1.5),
        power_radial(1.2),
        RadialMeasure(atoms=((0.5, 1.0), (2.0, 0.7))),
    ]
    j_viol = 0
    for rho in fixtures:
        bs = rng.uniform(0.05, 20.0, size=1000)
        ts = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), size=1000))
        for b, tt in zip(bs, ts):
            j, jt = laplace_radial(rho, b), laplace_radial(rho, tt * b)
            s = 1e-12 * max(1.0, j, jt)
            if min(1.0, tt * tt) * j > jt + s or jt > max(1.0, tt * tt) * j + s:
                j_viol += 1
    verdict(
        2,
        "scaling bounds",
        kernel_viol == 0 and j_viol == 0,
        f"kernel violations {kernel_viol}/100000, exponent violations {j_viol}/3000",
    )


def test_criterion_03_spherical_vs_cartesian():
    start = time.perf_counter()
    worst = 0.0
    for dim in (2, 3):
        power = 3.5 if dim == 2 else 4.5

        def g(pts, _p=power):
            r = np.maximum(np.linalg.norm(pts, axis=1), 1e-300)
            return smooth_window(r, 0.5, 3.0) * r**-_p

        def f(pts):
            return 1.0 / (1.0 + np.sum(pts * pts, axis=1))

        spec = induced_spec(density_spec(g, dim))
        spherical = spherical_integrate(f, spec)
        cartesian = cartesian_reference(g, f, dim, 3.0, 120 if dim == 2 else 80)
        worst = max(worst, abs(spherical / cartesian - 1.0))
    elapsed = time.perf_counter() - start
    verdict(
        3,
        "spherical vs cartesian",
        worst < 1e-3 and elapsed < 10.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_04_balance_and_domination(example_spec, cos_spec):
    k_unit, rep_unit = radial_balance(example_spec)
    k_cos, rep_cos = radial_balance(cos_spec)
    q0, q_inf, rep_q = q_ratios(power_radial(1.5, 0.5), power_radial(1.5, 1.5))
    ok = (
        abs(k_unit - 1.0) <= 1e-9
        and rep_unit.overall_pass
        and abs(k_cos - 3.0) <= 1e-6
        and rep_cos.overall_pass
        and abs(q0 - 3.0) <= 1e-6
        and abs(q_inf - 3.0) <= 1e-6
        and rep_q.overall_pass
    )
    verdict(
        4,
        "radial balance",
        ok,
        f"K=1{k_unit - 1.0:+.1e}, K=3{k_cos - 3.0:+.1e}, q=({q0:.6f},{q_inf:.6f})",
    )


def test_criterion_05_reduction_accuracy(example_spec, example_vol):
    start = time.perf_counter()
    model, report = reduce_model(example_spec, example_vol, a=-0.5, b=0.1)
    elapsed = time.perf_counter() - start
    # independent quadrature value: J(1) = sum_i w_i J_gamma(<u, xi_i>)
    # with both inner products 1, so C = (J_quad(1) / c_alpha)^(1/alpha)
    c_quad = (laplace_radial(power_radial(1.5), 1.0) / C_15) ** (1.0 / 1.5)
    residual = report.item("affinity_residual").value
    ok = (
        abs(model.alpha - 1.5) <= 0.01
        and abs(model.C / c_quad - 1.0) <= 0.01
        and residual < 1e-4
        and report.overall_pass
        and elapsed < 30.0
    )
    verdict(
        5,
        "reduction accuracy",
        ok,
        f"alpha={model.alpha:.4f}, C={model.C:.6f} vs {c_quad:.6f}, "
        f"residual={residual:.1e}, {elapsed:.1f}s",
    )


def test_criterion_06_riccati_steady_state():
    ts = riccati_solve(ReducedModel(0.0, 0.0, 1.0, 1.5), 10.0, 200)
    target = C_15 ** (-1.0 / 1.5)
    err = abs(ts.B[-1] - target)
    verdict(6, "Riccati steady state", err < 1e-3, f"B(10)={ts.B[-1]:.6f}, err {err:.1e}")


def test_criterion_07_mc_vs_riccati_pricing():
    start = time.perf_counter()
    model = ReducedModel(a=-0.5, b=0.1, C=1.0, alpha=1.5)
    # the prices are summed while the run steps; no path matrix is kept
    run = reduced_run(model, 1.0, 5.0, 5000, 100_000, RngStream(7))
    ts = riccati_solve(model, 5.0, 500)
    details, ok = [], True
    taus = (0.5, 1.0, 5.0)
    for tau, (p_mc, se) in zip(taus, mc_bond_prices(run, run.dt, taus)):
        p_ode = bond_price(ts, 1.0, tau)
        gap = abs(p_mc - p_ode)
        band = 3.0 * se + 1e-3
        ok = ok and gap <= band
        details.append(f"tau={tau:g}: |{gap:.2e}|<={band:.2e}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    verdict(7, "stable-CIR pricing", ok, "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_08_end_to_end_reducibility(example_spec, example_vol):
    sim_cfg = SimConfig(dt=2e-3, n_paths=50_000, eps=1.5e-3, seed=10, n_ode_steps=200)
    taus = [0.5, 1.0, 2.0]
    original = (example_vol, example_spec, -0.5, 0.1)

    true_result = compare_term_structures(
        original, ReducedModel(-0.5, 0.1, 1.0, 1.5), 1.0, taus, sim_cfg
    )
    perturbed_result = compare_term_structures(
        original, ReducedModel(-0.5, 0.1, 1.0, 1.7), 1.0, taus, sim_cfg
    )
    ok = true_result.passed and not perturbed_result.passed
    verdict(
        8,
        "end-to-end reducibility",
        ok,
        f"true max disc {true_result.max_discrepancy:.2e} (pass={true_result.passed}), "
        f"alpha=1.7 control max disc {perturbed_result.max_discrepancy:.2e} "
        f"(pass={perturbed_result.passed})",
    )


def test_criterion_09_stable_sampler_contract():
    dt, scale = 0.5, 1.2
    draws = sample_stable(1.5, scale, dt, RngStream(9), size=1_000_000)
    details, ok = [], True
    for u in (0.5, 1.0, 2.0):
        obs = np.exp(-u * draws)
        target = np.exp(C_15 * u**1.5 * dt * scale**1.5)
        se = obs.std() / np.sqrt(obs.size)
        gap = abs(obs.mean() - target)
        ok = ok and gap <= 3.0 * se
        details.append(f"u={u:g}: |{gap:.1e}|<={3.0 * se:.1e}")

    short = sample_stable(1.5, 1.0, 0.25, RngStream(90), size=100_000)
    unit = sample_stable(1.5, 1.0, 1.0, RngStream(91), size=100_000)
    ks = stats.ks_2samp(short, 0.25 ** (1.0 / 1.5) * unit).statistic
    ok = ok and ks < 0.01
    verdict(9, "stable sampler", ok, "; ".join(details) + f"; KS={ks:.4f}")


def test_criterion_10_density_criteria(cos_density_spec):
    passing = density_reducibility_check(cos_density_spec)

    def damped(points):
        r = np.maximum(np.linalg.norm(points, axis=1), 1e-300)
        return r**-1.5 * np.exp(-r)

    failing = density_reducibility_check(density_spec(damped, 2, (1.5, np.inf)))
    failed_names = [it.name for it in failing.failing()]
    ok = (
        passing.overall_pass
        and not failing.overall_pass
        and failed_names == ["small_jump_divergence"]
    )
    verdict(
        10,
        "density criteria",
        ok,
        f"cosine fixture pass={passing.overall_pass}, "
        f"integrable-small-jump fixture fails {failed_names}",
    )
