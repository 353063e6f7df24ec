"""Tests for random streams, stable increments, jump samplers, and path schemes."""

import collections
import dataclasses
import importlib.util
import itertools
import types
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

from levyreduce import (
    CutoffTooSmall,
    LevySpec,
    PathEnsemble,
    RadialMeasure,
    ReducedModel,
    RngStream,
    SphericalMeasure,
    VolatilityFunction,
    compensated_exp,
    laplace_jump,
    original_run,
    panel_integral,
    power_radial,
    reduced_run,
    sample_stable,
    simulate_original,
    simulate_reduced,
    stable_atom_sampler,
    stable_coefficient,
    stable_spec,
    tabulated_radial,
    truncated_jump_sampler,
)
from levyreduce import simulate

from conftest import ALPHA, C_15, one_atom_form


def drift_mean(x0, a, b, t):
    """E R(t) for dR = (aR + b)dt + martingale noise."""
    t = np.asarray(t, dtype=float)
    if a == 0.0:
        return x0 + b * t
    limit = -b / a
    return limit + (x0 - limit) * np.exp(a * t)


class TestRngStream:
    def test_same_identifier_reproduces(self):
        x = RngStream(3, 1).generator().standard_normal(8)
        y = RngStream(3, 1).generator().standard_normal(8)
        assert np.array_equal(x, y)

    def test_generator_is_fresh_each_call(self):
        stream = RngStream(5)
        first = stream.generator().standard_normal()
        stream.generator().standard_normal()
        assert stream.generator().standard_normal() == first

    def test_streams_decorrelate(self):
        x = RngStream(3, 0).generator().standard_normal(8)
        y = RngStream(3, 1).generator().standard_normal(8)
        assert not np.array_equal(x, y)

    def test_integer_seed_matches_default_stream(self):
        a = sample_stable(1.5, 1.0, 1.0, 7, size=16)
        b = sample_stable(1.5, 1.0, 1.0, RngStream(7), size=16)
        assert np.array_equal(a, b)

    def test_generator_argument_accepted(self):
        gen = RngStream(7).generator()
        a = sample_stable(1.5, 1.0, 1.0, gen, size=16)
        b = sample_stable(1.5, 1.0, 1.0, RngStream(7), size=16)
        assert np.array_equal(a, b)

    def test_rejects_other_rng_types(self):
        with pytest.raises(TypeError):
            sample_stable(1.5, 1.0, 1.0, "seed")


class TestSampleStable:
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 2.5])
    def test_rejects_index_outside_open_interval(self, alpha):
        with pytest.raises(ValueError):
            sample_stable(alpha, 1.0, 1.0, 0)

    @pytest.mark.parametrize("scale,dt", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -0.5)])
    def test_rejects_nonpositive_scale_or_step(self, scale, dt):
        with pytest.raises(ValueError):
            sample_stable(1.5, scale, dt, 0)

    def test_scalar_and_vector_shapes(self):
        x = sample_stable(1.5, 1.0, 0.1, RngStream(1))
        assert isinstance(x, float)
        assert np.isfinite(x)
        xs = sample_stable(1.5, 1.0, 0.1, RngStream(1), size=40)
        assert xs.shape == (40,)
        assert np.all(np.isfinite(xs))

    def test_scale_enters_linearly(self):
        base = sample_stable(1.5, 1.0, 0.3, RngStream(2), size=100)
        doubled = sample_stable(1.5, 2.0, 0.3, RngStream(2), size=100)
        np.testing.assert_allclose(doubled, 2.0 * base, rtol=1e-12)

    def test_step_enters_through_alpha_root(self):
        base = sample_stable(1.5, 1.0, 1.0, RngStream(2), size=100)
        stepped = sample_stable(1.5, 1.0, 0.25, RngStream(2), size=100)
        np.testing.assert_allclose(stepped, 0.25 ** (1.0 / 1.5) * base, rtol=1e-12)

    def test_laplace_transform_matches_contract(self):
        # E exp(-u X) = exp(dt scale^alpha c_alpha u^alpha); exp(-uX) has
        # finite variance for every u > 0, so a 3 sigma band is honest.
        draws = sample_stable(1.5, 1.0, 1.0, RngStream(11), size=1_000_000)
        for u in (0.5, 1.0, 2.0):
            obs = np.exp(-u * draws)
            target = np.exp(C_15 * u**1.5)
            se = obs.std() / np.sqrt(obs.size)
            assert abs(obs.mean() - target) <= 3.0 * se

    def test_compensated_mean_is_small(self):
        # the mean exists (alpha > 1) but the variance does not, so this
        # is a frozen-seed regression guard rather than a CLT band
        draws = sample_stable(1.5, 1.0, 1.0, RngStream(12), size=1_000_000)
        assert abs(draws.mean()) < 0.05

    def test_self_similarity_of_increments(self):
        dt = 0.25
        short = sample_stable(1.5, 1.0, dt, RngStream(13), size=100_000)
        unit = sample_stable(1.5, 1.0, 1.0, RngStream(14), size=100_000)
        rescaled = dt ** (1.0 / 1.5) * unit
        ks = stats.ks_2samp(short, rescaled).statistic
        assert ks < 0.01

    def test_positive_skew(self):
        # spectrally positive: the right tail is the heavy one
        draws = sample_stable(1.5, 1.0, 1.0, RngStream(15), size=200_000)
        hi = np.quantile(draws, 0.999)
        lo = np.quantile(draws, 0.001)
        assert hi > -lo

    def test_draws_uniforms_then_exponentials(self):
        gen = RngStream(16).generator()
        v = gen.uniform(-0.5 * np.pi, 0.5 * np.pi, size=50)
        w = gen.standard_exponential(size=50)
        draws = sample_stable(1.7, 2.0, 0.3, RngStream(16), size=50)
        assert np.array_equal(draws, simulate._cms(1.7, 2.0 * 0.3 ** (1.0 / 1.7), v, w))


def direct_cms(alpha, v, w):
    """The direct trigonometric Chambers-Mallows-Stuck formula, scaled to
    E exp(-u X) = exp(c_alpha u^alpha)."""
    t = np.tan(0.5 * np.pi * alpha)
    b0 = np.arctan(t) / alpha
    s0 = (1.0 + t * t) ** (1.0 / (2.0 * alpha))
    x = (
        s0
        * np.sin(alpha * (v + b0))
        / np.cos(v) ** (1.0 / alpha)
        * (np.cos(v - alpha * (v + b0)) / w) ** ((1.0 - alpha) / alpha)
    )
    return (stable_coefficient(alpha) * abs(np.cos(0.5 * np.pi * alpha))) ** (1.0 / alpha) * x


class TestStableKernel:
    ALPHAS = [1.05, 1.1, 1.5, 1.7, 1.9, 1.95]

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_matches_direct_trigonometric_formula(self, alpha):
        # up to 1e-6 from either end; the grid stays 0.015 or more away
        # from the zero of sin(alpha (v + pi/2)), where relative error
        # means nothing
        half = 0.5 * np.pi
        v = np.concatenate(
            [[-half + 1e-6, -half + 1e-3], np.linspace(-1.5, 1.5, 31), [half - 1e-3, half - 1e-6]]
        )
        w = np.resize([0.05, 0.7, 3.0], v.size)
        kernel = simulate._cms(alpha, 1.0, v, w)
        np.testing.assert_allclose(kernel, direct_cms(alpha, v, w), rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_closed_end_gives_the_limit(self, alpha):
        # uniform(-pi/2, pi/2) can return -pi/2 itself; there every sine
        # vanishes and X tends to -c^(1/a) a (a-1)^((1-a)/a) w^((a-1)/a)
        w = np.array([0.05, 0.7, 3.0])
        x = simulate._cms(alpha, 1.0, np.full(3, -0.5 * np.pi), w)
        limit = (
            -stable_coefficient(alpha) ** (1.0 / alpha)
            * alpha
            * (alpha - 1.0) ** ((1.0 - alpha) / alpha)
            * w ** ((alpha - 1.0) / alpha)
        )
        np.testing.assert_allclose(x, limit, rtol=1e-12)


class TestSimulateReduced:
    def test_zero_model_is_constant(self):
        model = types.SimpleNamespace(a=0.0, b=0.0, C=0.0, alpha=1.5)
        paths = simulate_reduced(model, 1.0, 1.0, 10, 5, RngStream(0))
        assert np.array_equal(paths.values, np.ones((5, 11), dtype=np.float32))

    def test_degenerate_noise_tracks_drift_ode(self):
        model = types.SimpleNamespace(a=-1.0, b=0.5, C=0.0, alpha=1.5)
        paths = simulate_reduced(model, 2.0, 1.0, 200, 3, RngStream(0))
        exact = drift_mean(2.0, -1.0, 0.5, paths.times())
        err = np.abs(paths.values - exact[None, :]).max()
        assert err < 2.0 * paths.dt

    def test_ensemble_mean_tracks_drift_ode(self):
        # R(t) has tail index alpha, so the sample variance diverges; the
        # check runs at a frozen seed and allows an O(dt) scheme bias on
        # top of the realized 3 sigma band.
        model = ReducedModel(a=-0.5, b=0.1, C=1.0, alpha=1.5)
        paths = simulate_reduced(model, 1.0, 1.0, 100, 20_000, RngStream(4))
        for t in (0.5, 1.0):
            k = int(round(t / paths.dt))
            col = paths.values[:, k].astype(float)
            se = col.std() / np.sqrt(col.size)
            target = drift_mean(1.0, -0.5, 0.1, t)
            assert abs(col.mean() - target) <= 3.0 * se + 2.0 * paths.dt

    def test_paths_start_at_x0_and_stay_nonnegative(self):
        model = ReducedModel(a=-0.5, b=0.1, C=1.0, alpha=1.5)
        paths = simulate_reduced(model, 0.3, 1.0, 50, 500, RngStream(6))
        assert np.all(paths.values[:, 0] == np.float32(0.3))
        assert paths.values.min() >= 0.0
        assert paths.values.dtype == np.float32
        assert 0.0 <= paths.clamp_frequency < 1.0

    def test_grid_metadata(self):
        model = types.SimpleNamespace(a=0.0, b=0.0, C=0.0, alpha=1.5)
        paths = simulate_reduced(model, 1.0, 2.0, 8, 2, RngStream(0))
        assert paths.n_paths == 2
        assert paths.n_steps == 8
        assert paths.dt == pytest.approx(0.25)
        assert paths.horizon == pytest.approx(2.0)
        np.testing.assert_allclose(paths.times(), np.arange(9) * 0.25)
        assert paths.seed == (0, 0)

    def test_bitwise_reproducible(self):
        model = ReducedModel(a=-0.5, b=0.1, C=1.0, alpha=1.5)
        first = simulate_reduced(model, 1.0, 0.5, 20, 100, RngStream(8))
        second = simulate_reduced(model, 1.0, 0.5, 20, 100, RngStream(8))
        third = simulate_reduced(model, 1.0, 0.5, 20, 100, RngStream(8, 1))
        assert np.array_equal(first.values, second.values)
        assert not np.array_equal(first.values, third.values)

    def test_steps_the_stable_cir_recursion(self):
        # reference: R <- max(0, R + (aR+b)dt + C R^(1/alpha) dZ) on the
        # first block's stream; at C = 1 the one-atom step does the same
        # arithmetic, so the states are equal to the bit
        model = ReducedModel(a=-0.5, b=0.1, C=1.0, alpha=1.5)
        run = reduced_run(model, 1.0, 1.0, 50, 500, RngStream(3))
        gen = np.random.default_rng(np.random.SeedSequence([3, 0], spawn_key=(0,)))
        r = np.full(500, 1.0)
        for k, state in enumerate(run):
            if k:
                dz = sample_stable(1.5, 1.0, run.dt, gen, size=500)
                r = np.maximum(r + (-0.5 * r + 0.1) * run.dt + r ** (1.0 / 1.5) * dz, 0.0)
            assert np.array_equal(state, r)

    def test_steps_the_one_atom_original(self):
        # the reduced equation is the original one with d = 1; both runs
        # step one loop with the same sampler and G, so every state is
        # equal to the bit, also where C != 1 and steps are clipped
        model = ReducedModel(a=-0.5, b=0.1, C=1.476, alpha=1.5)
        G, spec = one_atom_form(model.C)
        # at eps 1e-3 the rule expects 210 jumps per path-step: exact
        assert stable_atom_sampler(spec, 1e-3, 0.01) is not None
        reduced = reduced_run(model, 1.0, 1.0, 100, 12_000, RngStream(3))
        original = original_run(
            G, spec, model.a, model.b, 1.0, 1e-3, 1.0, 100, 12_000, RngStream(3)
        )
        for r, s in zip(reduced, original, strict=True):
            assert np.array_equal(r, s)
        assert reduced.clipped > 0
        assert reduced.scheme_summary() == original.scheme_summary()

    def test_one_atom_increments_are_the_matrix_product(self):
        # one atom takes a product per entry, the k = 1 np.dot to the bit
        sampler = simulate.StableAtomSampler(
            directions=np.array([[0.6, -0.8]]), alphas=np.array([1.5]), scales=np.array([1.3])
        )
        dz = sampler.sample_increment(0.01, 5000, np.random.default_rng(4))
        y = sample_stable(1.5, 1.3, 0.01, np.random.default_rng(4), size=5000)
        np.testing.assert_array_equal(dz, np.dot(y[:, None], sampler.directions))

    def test_rejects_bad_arguments(self):
        model = ReducedModel(a=-0.5, b=0.1, C=1.0, alpha=1.5)
        with pytest.raises(ValueError):
            simulate_reduced(model, -1.0, 1.0, 10, 10, RngStream(0))
        with pytest.raises(ValueError):
            simulate_reduced(model, 1.0, 1.0, 0, 10, RngStream(0))
        with pytest.raises(ValueError):
            simulate_reduced(model, 1.0, 1.0, 10, 0, RngStream(0))


def unit_weight_spec():
    spherical = SphericalMeasure.from_atoms([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
    return stable_spec(ALPHA, spherical)


class TestTruncatedJumpSampler:
    def test_rejects_nonpositive_cutoff(self):
        with pytest.raises(ValueError):
            truncated_jump_sampler(unit_weight_spec(), 0.0)

    def test_tail_intensity_of_stable_tails(self):
        # per direction: int_eps^inf r^-2.5 dr = eps^-1.5 / 1.5
        sampler, _ = truncated_jump_sampler(unit_weight_spec(), 0.1)
        assert sampler.intensity == pytest.approx(42.16370213557839, rel=1e-6)
        assert sampler.cutoff == 0.1

    def test_dropped_variance_of_small_jumps(self):
        # per direction: int_0^eps r^2 r^-2.5 dr = 2 sqrt(eps)
        _, dropped = truncated_jump_sampler(unit_weight_spec(), 0.1)
        assert dropped == pytest.approx(4.0 * np.sqrt(0.1), rel=1e-6)

    def test_small_jump_moments_of_power_laws(self):
        # atom i under s_i r^-(1+alpha_i): Sigma = sum_i w_i s_i xi_i xi_i^T
        # eps^(2-alpha_i) / (2-alpha_i), and third moments w_i s_i
        # eps^(3-alpha_i) / (3-alpha_i)
        spec, eps = scaled_atom_spec(), 0.05
        sampler, dropped = truncated_jump_sampler(spec, eps)
        dirs = np.asarray(spec.spherical.directions)
        laws = [spec.radial(xi) for xi in dirs]
        alphas = np.array([law.power_index for law in laws])
        mass = np.asarray(spec.spherical.weights) * [float(law.density(1.0)) for law in laws]
        second = mass * eps ** (2.0 - alphas) / (2.0 - alphas)
        third = mass * eps ** (3.0 - alphas) / (3.0 - alphas)
        np.testing.assert_allclose(sampler.small_cov, (dirs.T * second) @ dirs, rtol=1e-6, atol=0)
        np.testing.assert_allclose(sampler.small_third, third, rtol=1e-6)
        assert dropped == sampler.dropped_variance == pytest.approx(second.sum(), rel=1e-6)
        g = np.array([1.0, -2.0, 0.5])
        assert sampler.third_moment(g) == pytest.approx(third @ (dirs @ g) ** 3, rel=1e-6)

    def test_small_jump_moments_of_a_tabulated_law(self):
        # the tempered table is linear between its nodes, so quad settles
        # each cell below the cutoff exactly
        r = np.geomspace(1e-4, 50.0, 400)
        gamma = tabulated_radial(r, r**-2.5 * np.exp(-r))
        eps = 0.05
        sampler, _ = truncated_jump_sampler(axis_spec([gamma] * 2, [0.5, 1.5]), eps)
        edges = np.concatenate([[0.0], r[r < eps], [eps]])
        for p, got in ((2, np.diag(sampler.small_cov)), (3, sampler.small_third)):
            moment = sum(
                integrate.quad(lambda x: x**p * float(gamma.density(x)), lo, hi)[0]
                for lo, hi in zip(edges[:-1], edges[1:])
            )
            np.testing.assert_allclose(got, [0.5 * moment, 1.5 * moment], rtol=1e-7)
        assert sampler.small_cov[0, 1] == sampler.small_cov[1, 0] == 0.0

    def test_mean_flux_vector(self):
        # per direction: int_eps^inf r r^-2.5 dr = 2 / sqrt(eps)
        sampler, _ = truncated_jump_sampler(unit_weight_spec(), 0.1)
        np.testing.assert_allclose(
            sampler.mean_flux, 2.0 / np.sqrt(0.1) * np.ones(2), rtol=1e-6
        )

    def test_intensity_budget_guard(self):
        with pytest.raises(CutoffTooSmall):
            truncated_jump_sampler(unit_weight_spec(), 0.1, intensity_budget=10.0)

    def test_atom_radial_below_cutoff_is_silent(self):
        spherical = SphericalMeasure.from_atoms([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        spec = LevySpec(
            dimension=2,
            wiener_cov=np.zeros((2, 2)),
            spherical=spherical,
            radial_family=lambda xi: RadialMeasure(atoms=((1.0, 3.0),)),
        )
        sampler, dropped = truncated_jump_sampler(spec, 2.0)
        assert sampler.intensity == 0.0
        assert dropped == pytest.approx(6.0)
        inc = sampler.sample_increment(0.5, 64, RngStream(1))
        assert np.array_equal(inc, np.zeros((64, 2)))

    def test_atom_radial_compensation(self):
        # bounded jumps, so the increment has finite variance
        # dt int r^2 gamma(dr) and an honest 3 sigma band applies
        spherical = SphericalMeasure.from_atoms([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        spec = LevySpec(
            dimension=2,
            wiener_cov=np.zeros((2, 2)),
            spherical=spherical,
            radial_family=lambda xi: RadialMeasure(atoms=((1.0, 3.0),)),
        )
        sampler, _ = truncated_jump_sampler(spec, 0.5)
        assert sampler.intensity == pytest.approx(6.0)
        dt, n = 0.1, 200_000
        inc = sampler.sample_increment(dt, n, RngStream(21))
        se = np.sqrt(dt * 3.0 / n)
        assert abs(inc[:, 0].mean()) <= 3.0 * se
        assert abs(inc[:, 1].mean()) <= 3.0 * se

    def test_increment_laplace_transform(self):
        # one-step characteristic identity: E exp(-u . X) equals
        # exp(dt int_eps^inf (e^{-ur} - 1 + ur) gamma(dr)); the truncated
        # kernel integral is evaluated by quadrature as the oracle
        spherical = SphericalMeasure.from_atoms([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
        spec = stable_spec(ALPHA, spherical)
        eps, dt, n = 0.1, 0.02, 400_000
        sampler, _ = truncated_jump_sampler(spec, eps)
        inc = sampler.sample_increment(dt, n, RngStream(22))[:, 0]
        for u in (0.5, 2.0):
            below = panel_integral(
                lambda r: compensated_exp(u * r) * r**-2.5, 1e-12, eps
            )
            exponent = dt * (C_15 * u**1.5 - below)
            obs = np.exp(-u * inc)
            se = obs.std() / np.sqrt(n)
            # small absolute slack covers the inverse-table discretization
            assert abs(obs.mean() - np.exp(exponent)) <= 3.0 * se + 5e-4

    def test_sampled_radii_follow_the_tail_law(self):
        # with a single unit-rate direction, one huge step isolates the
        # radius law: survival above r given r > eps is (r/eps)^-alpha
        spherical = SphericalMeasure.from_atoms([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
        spec = stable_spec(ALPHA, spherical)
        eps = 0.1
        sampler, _ = truncated_jump_sampler(spec, eps)
        gen = RngStream(23).generator()
        counts = gen.poisson(sampler.intensities[0] * 1.0, size=1)
        radii = sampler._draw_radii(0, 50_000, gen)
        assert counts[0] > 0
        assert radii.min() >= eps * (1.0 - 1e-9)
        pareto = stats.pareto(b=ALPHA, scale=eps)
        ks = stats.kstest(radii, pareto.cdf).statistic
        assert ks < 0.01


def axis_spec(laws, weights):
    """Atoms on the coordinate axes, axis k carrying the radial law laws[k]."""
    d = len(laws)
    spherical = SphericalMeasure.from_atoms(np.eye(d), weights)
    return LevySpec(d, np.zeros((d, d)), spherical, lambda xi: laws[int(np.argmax(xi))])


def tabulated_power_law():
    """r^-2.5 as a table on [1e-6, 1e6]: the power law to table accuracy,
    but without a power_index, so it never selects exact increments."""
    r = np.geomspace(1e-6, 1e6, 1201)
    return tabulated_radial(r, r**-2.5)


@pytest.fixture(scope="module")
def tabulated_example_spec():
    """example_spec with its radial law tabulated: every cutoff and step
    select the compound-Poisson sampler."""
    return axis_spec([tabulated_power_law()] * 2, [0.5, 0.5])


def power_laplace_exponent(eps, u):
    """int_eps^inf (e^{-ur} - 1 + ur) r^-2.5 dr: the stable exponent minus
    its part below the cutoff."""
    below = panel_integral(lambda r: compensated_exp(u * r) * r**-2.5, 1e-12, eps)
    return C_15 * u**1.5 - below


def truncated_laplace_exponent(gamma, eps, u):
    """int_eps^inf (e^{-ur} - 1 + ur) gamma(dr) for a tabulated law on a
    bounded support, or for atoms."""
    total = sum(w * float(compensated_exp(u * r)) for r, w in gamma.atoms if r > eps)
    if gamma.density is not None:
        total += panel_integral(lambda r: compensated_exp(u * r) * gamma.density(r), eps, 2.0)
    return total


class TestBatchedJumpDraws:
    def test_power_tail_laplace_transform_is_exact(self):
        # closed-form Pareto radii carry no table error, so the one-step
        # Laplace identity holds at 3 standard errors without slack
        spec = axis_spec([power_radial(ALPHA)] * 2, [1.0, 0.0])
        eps, dt, n = 0.1, 0.02, 400_000
        sampler, _ = truncated_jump_sampler(spec, eps)
        assert sampler.radius_laws == (ALPHA,)
        inc = sampler.sample_increment(dt, n, RngStream(24))[:, 0]
        for u in (0.5, 2.0):
            obs = np.exp(-u * inc)
            se = obs.std() / np.sqrt(n)
            assert abs(obs.mean() - np.exp(dt * power_laplace_exponent(eps, u))) <= 3.0 * se

    def test_mixed_laws_keep_their_marginals_and_independence(self):
        # power, tabulated and atom radii on three axes: each coordinate
        # follows its own compound-Poisson law and the coordinates are
        # independent
        r = np.linspace(0.05, 2.0, 40)
        laws = [
            power_radial(ALPHA),
            tabulated_radial(r, 3.0 * (2.0 - r)),
            RadialMeasure(atoms=((0.05, 9.0), (0.5, 2.0), (1.5, 1.0))),
        ]
        eps, dt, n = 0.1, 0.02, 400_000
        sampler, _ = truncated_jump_sampler(axis_spec(laws, [1.0, 1.0, 1.0]), eps)
        kinds = [type(law) for law in sampler.radius_laws]
        assert kinds == [float, np.ndarray, tuple]
        inc = sampler.sample_increment(dt, n, RngStream(25))
        u = 1.0
        exponents = [dt * power_laplace_exponent(eps, u)]
        exponents += [dt * truncated_laplace_exponent(g, eps, u) for g in laws[1:]]
        for k, target in enumerate(exponents):
            obs = np.exp(-u * inc[:, k])
            assert abs(obs.mean() - np.exp(target)) <= 3.0 * obs.std() / np.sqrt(n)
        obs = np.exp(-u * inc.sum(axis=1))
        assert abs(obs.mean() - np.exp(sum(exponents))) <= 3.0 * obs.std() / np.sqrt(n)

    def test_unit_radius_counts_are_poisson_per_path(self):
        # with every jump of size 1, the uncompensated per-path sums are
        # the jump counts: Poisson(lam dt), independent across directions
        spec = axis_spec([RadialMeasure(atoms=((1.0, 1.5),))] * 2, [1.0, 2.0])
        dt, n = 0.1, 200_000
        sampler, _ = truncated_jump_sampler(spec, 0.5)
        inc = sampler.sample_increment(dt, n, RngStream(26)) + dt * sampler.mean_flux
        counts = np.round(inc)
        np.testing.assert_allclose(inc, counts, atol=1e-9)
        for k, lam in enumerate(sampler.intensities * dt):
            assert abs(counts[:, k].mean() - lam) <= 3.0 * np.sqrt(lam / n)
            assert abs(counts[:, k].var() - lam) <= 3.0 * np.sqrt((lam + 2 * lam**2) / n)
        centred = counts - counts.mean(axis=0)
        cov = np.mean(centred[:, 0] * centred[:, 1])
        assert abs(cov) <= 3.0 * np.sqrt(np.prod(sampler.intensities * dt) / n)

    def test_setup_runs_once_per_distinct_measure(self):
        base = tabulated_radial(np.linspace(0.05, 2.0, 40), np.linspace(2.0, 0.1, 40))
        calls = []

        def counted(r):
            calls.append(np.size(r))
            return base.density(r)

        shared = RadialMeasure(density=counted)

        def density_calls(n_atoms):
            calls.clear()
            angles = np.linspace(0.0, 0.5 * np.pi, n_atoms)
            dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
            spherical = SphericalMeasure.from_atoms(dirs, np.ones(n_atoms))
            spec = LevySpec(2, np.zeros((2, 2)), spherical, lambda xi: shared)
            sampler, _ = truncated_jump_sampler(spec, 0.1)
            assert len(sampler.radius_laws) == 1
            assert np.all(sampler.law_of == 0)
            return len(calls)

        assert density_calls(8) == density_calls(1) > 0


class TestRadiusTable:
    def test_tabulation_stops_a_decade_past_the_support(self, monkeypatch):
        # the tempered law r^-2.5 e^-r tabulated on [1e-4, 50]: the grid
        # runs to eps 1e8, far past the support.  A bump on [1e4, 2e4],
        # behind two empty decades, lies in cells after the first empty
        # decade, so the table ignores it
        r = np.r_[np.geomspace(1e-4, 50.0, 400), 60.0]
        dens = np.r_[r[:-1] ** -2.5 * np.exp(-r[:-1]), 0.0]
        gamma = tabulated_radial(r, dens)
        bumped = tabulated_radial(
            np.r_[r, 9e3, 1e4, 2e4, 2.1e4], np.r_[dens, 0.0, 1e-9, 1e-9, 0.0]
        )
        calls = []

        def counted(f, lo, hi):
            calls.append(np.size(lo))
            return panel_integral(f, lo, hi)

        monkeypatch.setattr(simulate, "panel_integral", counted)
        for eps in (3e-3, 1e-2):
            calls.clear()
            table = simulate._radius_table(gamma, eps)
            assert np.array_equal(simulate._radius_table(bumped, eps), table)
            # every cell of a table is integrated in one batched pass
            assert len(calls) == 2 and calls[0] > 1000
            with monkeypatch.context() as full:
                full.setattr(simulate, "_EMPTY_RUN_STOP", 10**9)
                assert np.array_equal(simulate._radius_table(gamma, eps), table)
                assert not np.array_equal(simulate._radius_table(bumped, eps), table)


def assert_mean_tracks_drift(spec, vol, scheme):
    # compensated jumps leave the mean ODE m' = am + b intact; frozen
    # seed because the marginals have tail index alpha
    paths = simulate_original(vol, spec, -0.5, 0.1, 1.0, 0.01, 1.0, 100, 20_000, RngStream(4))
    assert paths.scheme == scheme
    for t in (0.5, 1.0):
        k = int(round(t / paths.dt))
        col = paths.values[:, k].astype(float)
        se = col.std() / np.sqrt(col.size)
        target = drift_mean(1.0, -0.5, 0.1, t)
        assert abs(col.mean() - target) <= 3.0 * se + 2.0 * paths.dt


def assert_refinement_consistent(spec, vol, scheme):
    # the discounted-path functional is bounded in (0, 1], so CLT
    # bands are honest; halving dt and eps must stay within the joint
    # band plus an O(dt) allowance for the scheme bias
    def discounted(paths):
        integral = np.trapezoid(paths.values.astype(float), dx=paths.dt, axis=1)
        disc = np.exp(-integral)
        return disc.mean(), disc.std() / np.sqrt(disc.size)

    coarse = simulate_original(vol, spec, -0.5, 0.1, 1.0, 0.01, 1.0, 100, 4000, RngStream(30))
    fine = simulate_original(vol, spec, -0.5, 0.1, 1.0, 0.005, 1.0, 200, 4000, RngStream(31))
    assert coarse.scheme == fine.scheme == scheme
    p1, se1 = discounted(coarse)
    p2, se2 = discounted(fine)
    assert abs(p1 - p2) <= 3.0 * np.hypot(se1, se2) + 1.5 * coarse.dt


class TestSimulateOriginal:
    def test_no_noise_reduces_to_drift_euler(self):
        spherical = SphericalMeasure.from_atoms([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        spec = LevySpec(
            dimension=2,
            wiener_cov=np.zeros((2, 2)),
            spherical=spherical,
            radial_family=lambda xi: RadialMeasure(),
        )
        G = VolatilityFunction.power(2.0 / 3.0, [1.0, 1.0])
        paths = simulate_original(G, spec, -1.0, 0.5, 2.0, 0.01, 1.0, 200, 3, RngStream(0))
        exact = drift_mean(2.0, -1.0, 0.5, paths.times())
        assert np.abs(paths.values - exact[None, :]).max() < 2.0 * paths.dt
        assert paths.clamp_frequency == 0.0

    def test_ensemble_mean_tracks_drift_ode(self, tabulated_example_spec, example_vol):
        assert_mean_tracks_drift(tabulated_example_spec, example_vol, "compound_poisson")

    def test_exact_ensemble_mean_tracks_drift_ode(self, example_spec, example_vol):
        assert_mean_tracks_drift(example_spec, example_vol, "exact_stable")

    def test_wiener_part_produces_gaussian_scheme(self):
        # pure diffusion with G = (sqrt(x), 0): a CIR Euler scheme whose
        # one-step variance from x0 is x0 dt
        spherical = SphericalMeasure.from_atoms([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        spec = LevySpec(
            dimension=2,
            wiener_cov=np.eye(2),
            spherical=spherical,
            radial_family=lambda xi: RadialMeasure(),
        )
        G = VolatilityFunction(
            lambda x: np.stack([np.sqrt(np.maximum(x, 0.0)), np.zeros_like(x)], axis=-1),
            dimension=2,
        )
        paths = simulate_original(G, spec, 0.0, 0.0, 1.0, 0.01, 0.1, 1, 50_000, RngStream(5))
        step = paths.values[:, 1].astype(float) - 1.0
        assert abs(step.mean()) <= 3.0 * step.std() / np.sqrt(step.size)
        assert step.var() == pytest.approx(0.1, rel=0.05)

    def test_ensemble_carries_sampler_statistics(self, example_spec, example_vol):
        paths = simulate_original(
            example_vol, example_spec, -0.5, 0.1, 1.0, 0.1, 0.1, 2, 10, RngStream(0)
        )
        # two half-weight axis atoms: eps^-1.5 / 1.5 and 2 sqrt(eps) in total
        assert paths.cutoff == 0.1
        assert paths.jump_intensity == pytest.approx(0.1**-1.5 / 1.5, rel=1e-6)
        assert paths.dropped_variance == pytest.approx(2.0 * np.sqrt(0.1), rel=1e-6)
        model = ReducedModel(a=-0.5, b=0.1, C=1.0, alpha=1.5)
        exact = simulate_reduced(model, 1.0, 0.1, 2, 10, RngStream(0))
        assert (exact.cutoff, exact.jump_intensity, exact.dropped_variance) == (None,) * 3

    def test_bitwise_reproducible(self, tabulated_example_spec, example_vol):
        runs = [
            simulate_original(
                example_vol, tabulated_example_spec, -0.5, 0.1, 1.0, 0.05, 0.5, 10, 200,
                RngStream(9),
            )
            for _ in range(2)
        ]
        assert runs[0].scheme == "compound_poisson"
        assert np.array_equal(runs[0].values, runs[1].values)
        assert runs[0].seed == (9, 0)

    @pytest.mark.parametrize("eps", [1e-3, 0.05])
    def test_run_streams_the_stored_states(self, example_spec, example_vol, eps):
        # the stored paths are the streamed float64 states rounded to
        # float32, from the same draws in the same order; b = 0 makes
        # both schemes clip
        args = (example_vol, example_spec, -0.5, 0.0, 0.05, eps, 0.5, 20, 300, RngStream(12))
        run = original_run(*args)
        states = list(run)  # each state is a fresh array
        paths = simulate_original(*args)
        assert len(states) == paths.n_steps + 1
        assert np.array_equal(np.array(states, dtype=np.float32).T, paths.values)
        assert run.scheme_summary() == paths.scheme_summary()
        assert run.scheme == ("exact_stable" if eps < 0.01 else "compound_poisson")
        assert run.clamp_frequency > 0.0

    @pytest.mark.parametrize("eps", [1e-3, 0.05])
    def test_a_block_does_not_depend_on_the_path_count(self, example_spec, example_vol, eps):
        # the first of two path blocks draws what a one-block run draws
        args = (example_vol, example_spec, -0.5, 0.1, 1.0, eps, 0.1, 5)
        one = simulate_original(*args, 10_000, RngStream(13))
        two = simulate_original(*args, 12_000, RngStream(13))
        assert np.array_equal(two.values[:10_000], one.values)
        assert not np.array_equal(two.values[10_000:], one.values[:2000])

    def test_rejects_bad_arguments(self, example_spec, example_vol):
        with pytest.raises(ValueError):
            simulate_original(
                example_vol, example_spec, -0.5, 0.1, -1.0, 0.05, 1.0, 10, 10, RngStream(0)
            )
        with pytest.raises(ValueError):
            simulate_original(
                example_vol, example_spec, -0.5, -0.1, 1.0, 0.05, 1.0, 10, 10, RngStream(0)
            )
        with pytest.raises(ValueError):
            simulate_original(
                example_vol, example_spec, -0.5, 0.1, 1.0, 0.05, 1.0, 0, 10, RngStream(0)
            )

    def test_refining_step_and_cutoff_is_consistent(self, tabulated_example_spec, example_vol):
        assert_refinement_consistent(tabulated_example_spec, example_vol, "compound_poisson")

    def test_refining_exact_step_is_consistent(self, example_spec, example_vol):
        # exact increments have no cutoff, so only dt is refined
        assert_refinement_consistent(example_spec, example_vol, "exact_stable")

    @pytest.mark.slow
    def test_marginal_law_matches_reduced_model(self, example_spec, example_vol):
        # distributional reducibility: the original scheme's R(1) marginal
        # and the reduced stable-CIR marginal agree in Kolmogorov distance
        # only the terminal states are read, so no path matrix is kept
        original = original_run(
            example_vol,
            example_spec,
            -0.5,
            0.1,
            1.0,
            1e-3,
            1.0,
            1000,
            100_000,
            RngStream(41),
        )
        model = ReducedModel(a=-0.5, b=0.1, C=1.0, alpha=1.5)
        reduced = reduced_run(model, 1.0, 1.0, 1000, 100_000, RngStream(42))
        terminal = [collections.deque(run, maxlen=1).pop() for run in (original, reduced)]
        ks = stats.ks_2samp(*terminal).statistic
        assert ks < 0.02


def sixteen_atom_spec():
    """16 atoms on the positive octant of S^2 with weights summing to 1,
    each carrying r^-2.5."""
    gen = RngStream(16).generator()
    dirs = np.abs(gen.standard_normal((16, 3)))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    weights = gen.uniform(0.5, 1.5, 16)
    spherical = SphericalMeasure.from_atoms(dirs, weights / weights.sum())
    return stable_spec(ALPHA, spherical)


def scaled_atom_spec():
    """Three atoms in d = 3, each with its own power index and scale."""
    dirs = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8], [1.0, 1.0, 1.0] / np.sqrt(3.0)])
    laws = [power_radial(1.5, 1.0), power_radial(1.3, 0.4), power_radial(1.8, 2.5)]

    def family(xi):
        return laws[int(np.argmin(np.linalg.norm(dirs - xi, axis=1)))]

    spherical = SphericalMeasure.from_atoms(dirs, [0.5, 1.0, 0.3])
    return LevySpec(3, np.zeros((3, 3)), spherical, family)


class TestExactStableIncrements:
    @pytest.mark.parametrize(
        "make_spec,z",
        [
            (lambda: axis_spec([power_radial(ALPHA)] * 2, [0.5, 0.5]), [0.7, 1.3]),
            (scaled_atom_spec, [0.9, 0.5, 1.2]),
        ],
        ids=["example_spec", "scaled_atoms_d3"],
    )
    def test_one_step_laplace_transform(self, make_spec, z):
        # E exp(-<z, dZ>) = exp(dt J_X(z)) for <z, xi_i> >= 0; exp(-<z, dZ>)
        # has finite variance (its square is the transform at 2z)
        spec, z = make_spec(), np.asarray(z)
        dt, n = 0.05, 400_000
        sampler = stable_atom_sampler(spec, 1e-3, dt)
        assert sampler is not None
        inc = sampler.sample_increment(dt, n, RngStream(27))
        assert inc.shape == (n, spec.dimension)
        obs = np.exp(-inc @ z)
        target = np.exp(dt * float(laplace_jump(spec, z)))
        assert abs(obs.mean() - target) <= 3.0 * obs.std() / np.sqrt(n)

    def test_bitwise_reproducible(self, example_spec, example_vol):
        runs = [
            simulate_original(
                example_vol, example_spec, -0.5, 0.1, 1.0, 1e-3, 0.5, 10, 200, RngStream(9)
            )
            for _ in range(2)
        ]
        assert runs[0].scheme == "exact_stable"
        assert np.array_equal(runs[0].values, runs[1].values)


class TestSchemeChoice:
    # (radial law of the half-weight axis atoms, or None for the 16-atom
    # spec; eps; dt; scheme): exact increments iff every law is a pure
    # power law of index in (1, 2) and n_atoms is at most the expected
    # jumps per path-step above eps, dt eps^-1.5 / 1.5 for both specs.
    # The "-above"/"-below" cases sit at 2.05 / 1.94 and 16.8 / 15.5
    # expected jumps.  The last three cases expect more than 4 jumps per
    # path-step, so only the law rules them out
    CASES = {
        "criterion-08": ([power_radial(ALPHA)], 1.5e-3, 2e-3, "exact_stable"),
        "cli-small-doc": ([power_radial(ALPHA)], 0.05, 0.02, "compound_poisson"),
        "two-atoms-above": ([power_radial(ALPHA)], 7.5e-3, 2e-3, "exact_stable"),
        "two-atoms-below": ([power_radial(ALPHA)], 7.8e-3, 2e-3, "compound_poisson"),
        "sixteen-atoms": (None, 1e-2, 2e-3, "compound_poisson"),
        "sixteen-atoms-above": (None, 1.85e-3, 2e-3, "exact_stable"),
        "sixteen-atoms-below": (None, 1.95e-3, 2e-3, "compound_poisson"),
        "tabulated-power": ([tabulated_power_law()], 1.5e-3, 2e-3, "compound_poisson"),
        "power-index-2.5": ([power_radial(2.5)], 1e-2, 2e-3, "compound_poisson"),
        "power-with-atoms": (
            [dataclasses.replace(power_radial(ALPHA), atoms=((1e-3, 2.0),))],
            1.5e-3, 2e-3, "compound_poisson",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rule_picks_scheme(self, case):
        law, eps, dt, scheme = self.CASES[case]
        spec = sixteen_atom_spec() if law is None else axis_spec(law * 2, [0.5, 0.5])
        exact = stable_atom_sampler(spec, eps, dt) is not None
        assert exact == (scheme == "exact_stable")
        G = VolatilityFunction.power(2.0 / 3.0, np.ones(spec.dimension))
        paths = simulate_original(G, spec, -0.5, 0.1, 1.0, eps, dt, 1, 2, RngStream(0))
        assert paths.scheme == scheme

    def test_rejects_nonpositive_cutoff(self, example_spec):
        with pytest.raises(ValueError):
            stable_atom_sampler(example_spec, 0.0, 1e-3)

    def test_rejects_negative_weight(self):
        spec = axis_spec([power_radial(ALPHA)] * 2, [0.5, -0.5])
        with pytest.raises(ValueError):
            stable_atom_sampler(spec, 1e-3, 1e-3)


class TestPathEnsemble:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            PathEnsemble(np.zeros(5), 0.1)
        with pytest.raises(ValueError):
            PathEnsemble(np.zeros((2, 5)), 0.0)


def wiener_spec(d):
    """Exact stable jumps on d axis atoms plus a Wiener part."""
    q = [[0.3]] if d == 1 else [[0.3, 0.1], [0.1, 0.2]]
    spherical = SphericalMeasure.from_atoms(np.eye(d), [0.5] * d)
    return LevySpec(d, np.array(q), spherical, lambda xi: power_radial(ALPHA))


def gaussian_root(q):
    """The root of a Gaussian covariance q, as original_run forms it."""
    w, vecs = np.linalg.eigh(q)
    return vecs @ np.diag(np.sqrt(np.clip(w, 0.0, None)))


def drawn_increments(sampler, q, dt, n_paths, gen, draws=None):
    """The increments of each Euler step over sampler's jumps plus a
    Gaussian of covariance q dt, formed through @ and drawn from gen in
    the loop's order.  draws holds the steps each draw takes at once:
    sampler's increments of all their path-steps, then their normals,
    read step after step in blocks of n_paths rows.  By default each
    step draws its own, as on the plain level."""
    root = gaussian_root(q) if np.any(q != 0.0) else None
    for m in itertools.repeat(1) if draws is None else draws:
        dz = sampler.sample_increment(dt, m * n_paths, gen)
        if root is not None:
            dz += gen.standard_normal((m * n_paths, len(q))) @ root.T * np.sqrt(dt)
        yield from dz.reshape(m, n_paths, -1)


def projected_increments(G, spec, eps, dt, n_paths, gen, draws=None):
    """The increments U^T dZ of an exact Euler step of original_run, for
    U = G.basis (see drawn_increments): the atom directions projected on
    U, and K normals per path mixed by the root of U^T Q U."""
    U = G.basis
    sampler = stable_atom_sampler(spec, eps, dt)
    sampler = dataclasses.replace(sampler, directions=sampler.directions @ U)
    return drawn_increments(sampler, U.T @ spec.wiener_cov @ U, dt, n_paths, gen, draws)


def step_draws(n_steps, n_paths):
    """The steps of each draw of a multilevel block of n_paths paths: as
    many as 10 000 path-steps hold, the rest in the last."""
    batch = max(1, 10_000 // n_paths)
    return [min(batch, n_steps - s) for s in range(0, n_steps, batch)]


def level_generator(seed, level, j):
    """The generator of block j of level: the child (index, j) of the
    run's seed sequence."""
    return np.random.default_rng(np.random.SeedSequence([seed, 0], spawn_key=(level.index, j)))


def euler_step(G, r, dt, dz, a=-0.5, b=0.1):
    """The full-truncation Euler step on increments dz in the coordinates
    of G's basis."""
    r = r + (a * r + b) * dt + G.inner(r, dz)
    np.maximum(r, 0.0, out=r)
    return r


def assert_coupled_level_steps_the_pair_sums(run, spec, G, eps, seed, j=5, n_paths=300):
    """The finest level of run is coupled; its block j of n_paths paths
    steps the fine leg on the projected increments of its stream (index,
    j), drawn step_draws at a time, and the coarse leg at 2 dt on the sum
    of each pair of them, to the bit."""
    level = run.levels[-1]
    gen = level_generator(seed, level, j)
    draws = step_draws(20, n_paths)
    increments = projected_increments(G, spec, eps, 0.01, n_paths, gen, draws)
    assert_coupled_block_steps(level, G, increments, j, n_paths)


def assert_coupled_block_steps(level, G, increments, j, n_paths):
    """Block j of level, coupled at 20 steps of 0.01, steps the fine leg
    on increments and the coarse leg at 2 dt on the sum of each pair of
    them, to the bit."""
    assert (level.dt, level.n_steps, level.coupled) == (0.01, 20, True)
    r = coarse = np.ones(n_paths)
    for k, (state, coarse_state, _) in enumerate(level.block(j, n_paths)):
        if k:
            dz = next(increments)
            r = euler_step(G, r, 0.01, dz)
        assert np.array_equal(state, r)
        if k % 2:
            first = dz
            assert coarse_state is None
            continue
        if k:
            coarse = euler_step(G, coarse, 0.02, first + dz)
        assert np.array_equal(coarse_state, coarse)


def d_dimensional_states(spec, eps, dt, n_steps, n_paths, gen, contract, a=-0.5, b=0.1):
    """The states of the Euler loop that steps the whole d-dimensional
    increment: the unprojected sampler's jumps, d normals per path mixed
    by the root of Q + small_cov, and contract(r, dz) for <G(r), dz>."""
    sampler = stable_atom_sampler(spec, eps, dt)
    q = spec.wiener_cov
    if sampler is None:
        sampler = truncated_jump_sampler(spec, eps)[0]
        q = q + sampler.small_cov
    root = gaussian_root(q) if np.any(q != 0.0) else None
    r = np.ones(n_paths)
    yield r
    for _ in range(n_steps):
        dz = sampler.sample_increment(dt, n_paths, gen)
        if root is not None:
            dz += gen.standard_normal((n_paths, len(q))) @ root.T * np.sqrt(dt)
        r = np.maximum(r + (a * r + b) * dt + contract(r, dz), 0.0)
        yield r


def sixteen_gaussian_jump_spec():
    """sixteen_atom_spec's directions and weights with bounded radii 0.05,
    0.5 and 1.5 of weights 400, 2 and 1, and a Wiener part: at the cutoff
    0.1 the atom at 0.05 goes to the Gaussian, of variance 400 * 0.05^2 =
    1 per unit weight, and the jumps above it have 2 * 0.5^2 + 1.5^2 =
    2.75."""
    radial = RadialMeasure(atoms=((0.05, 400.0), (0.5, 2.0), (1.5, 1.0)))
    q = np.array([[0.3, 0.1, 0.0], [0.1, 0.2, 0.05], [0.0, 0.05, 0.4]])
    return LevySpec(3, q, sixteen_atom_spec().spherical, lambda xi: radial)


class CountingGenerator(np.random.Generator):
    """A Generator that counts the standard normals drawn through it."""

    normals = 0

    def standard_normal(self, *args, **kw):
        drawn = super().standard_normal(*args, **kw)
        self.normals += np.size(drawn)
        return drawn


class TestProjectedStep:
    """Every run steps U^T dZ, the coordinates of the increment in G's
    basis U, under exact and compound-Poisson increments alike."""

    def test_tabulated_run_equals_the_d_dimensional_loop(self):
        # U = I: the run steps the d-dimensional increment itself
        spec = sixteen_gaussian_jump_spec()
        G = VolatilityFunction.tabulated(
            [0.0, 1.0, 5.0], [[0.0, 0.0, 0.0], [1.0, 0.5, 0.2], [2.0, 3.0, 1.0]]
        )
        run = original_run(G, spec, -0.5, 0.1, 1.0, 0.1, 0.2, 20, 300, RngStream(8))
        assert run.scheme == "compound_poisson" and np.array_equal(G.basis, np.eye(3))
        gen = np.random.default_rng(np.random.SeedSequence([8, 0], spawn_key=(0,)))
        contract = lambda r, dz: np.einsum("ij,ij->i", G(r), dz)  # noqa: E731
        reference = d_dimensional_states(spec, 0.1, 0.01, 20, 300, gen, contract)
        for state, expected in zip(run, reference, strict=True):
            assert np.array_equal(state, expected)

    def test_worked_exact_run_equals_the_d_dimensional_loop(self, example_spec, example_vol):
        # on axis atoms the projected directions are u's entries, so the
        # projected step keeps the contraction x^(2/3) <dz, u> of the
        # d-dimensional loop to the bit
        run = original_run(example_vol, example_spec, -0.5, 0.1, 1.0, 3e-3, 0.2, 20, 300, 9)
        assert run.scheme == "exact_stable"
        gen = np.random.default_rng(np.random.SeedSequence([9, 0], spawn_key=(0,)))
        u = example_vol.basis[:, 0]
        contract = lambda r, dz: r ** (2.0 / 3.0) * np.dot(dz, u)  # noqa: E731
        reference = d_dimensional_states(example_spec, 3e-3, 0.01, 20, 300, gen, contract)
        for state, expected in zip(run, reference, strict=True):
            assert np.array_equal(state, expected)

    @pytest.mark.parametrize(
        "case, columns",
        [("power", 1), ("tabulated", 3), ("exact", 1)],
    )
    def test_generator_sees_one_normal_per_column(self, case, columns):
        # every run steps the K columns of G's basis: one for a power G
        # under exact and compound-Poisson increments alike
        spec = wiener_spec(2) if case == "exact" else sixteen_gaussian_jump_spec()
        if case == "tabulated":
            G = VolatilityFunction.tabulated([0.0, 2.0], [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        else:
            G = VolatilityFunction.power(2.0 / 3.0, np.ones(spec.dimension))
        eps = 1e-3 if case == "exact" else 0.1
        run = original_run(G, spec, -0.5, 0.1, 1.0, eps, 0.2, 20, 300, RngStream(10))
        assert run.scheme == ("exact_stable" if case == "exact" else "compound_poisson")
        gen = CountingGenerator(np.random.PCG64(10))
        loop = run.plain.steps(0.01, 20, False, 300, gen)
        next(loop)
        for _ in range(3):
            before = gen.normals
            next(loop)
            assert gen.normals - before == columns * 300

    @pytest.mark.parametrize("bounded", [True, False], ids=["bounded-radii", "power-law"])
    def test_projected_increments_have_the_law_of_the_projection(self, bounded):
        # <u, dz> of the d-dimensional step against the projected step: a
        # two-sample KS statistic below 0.01 at 100k draws, as in criterion
        # 09.  Bounded radii give both mean 0 and variance (u^T (Q +
        # small_cov) u + 2.75 sum_i w_i <u, xi_i>^2) dt; many-atoms' r^-2.5
        # atoms at compare's cutoff 0.08 have no variance
        spec = sixteen_gaussian_jump_spec() if bounded else sixteen_atom_spec()
        eps, dt = (0.1, 0.05) if bounded else (0.08, 0.002)
        n = 100_000
        u = np.array([1.0, 1.0, 1.0])
        full = loop_increments(spec, eps, dt, 1, n, RngStream(35)) @ u
        G = VolatilityFunction(lambda x: np.ones((len(x), 1)), 3, u[:, None])
        run = original_run(G, spec, 0.0, 0.0, 100.0, eps, dt, 1, n, RngStream(36))
        assert run.scheme == "compound_poisson"
        projected = collections.deque(run, maxlen=1).pop() - 100.0
        assert stats.ks_2samp(full, projected).statistic < 0.01
        if bounded:
            sampler, _ = truncated_jump_sampler(spec, eps)
            xi, w = spec.spherical.directions, spec.spherical.weights
            var = dt * (u @ (spec.wiener_cov + sampler.small_cov) @ u + 2.75 * w @ (xi @ u) ** 2)
            for draws in (full, projected):
                assert abs(draws.mean()) <= 3.0 * np.sqrt(var / n)
                assert draws.var() == pytest.approx(var, rel=0.03)

    def test_reports_read_the_unprojected_sampler(self):
        spec = sixteen_gaussian_jump_spec()
        G = VolatilityFunction.power(2.0 / 3.0, [1.0, 1.0, 1.0])
        run = original_run(G, spec, -0.5, 0.1, 1.0, 0.1, 0.2, 20, 300, RngStream(11))
        sampler, dropped = truncated_jump_sampler(spec, 0.1)
        for field in ("directions", "mean_flux", "small_cov", "small_third"):
            assert np.array_equal(getattr(run.jumps, field), getattr(sampler, field))
        assert run.dropped_variance == dropped
        # the step is priced as the d-dimensional one, 3 Gaussian columns
        assert run.plain.step_cost == simulate._step_cost(sampler, 3, 0.01)


class TestMultilevelForm:
    def test_levels_double_the_step_while_the_count_is_even(self, example_spec, example_vol):
        args = (example_vol, example_spec, -0.5, 0.1, 1.0, 3e-3, 2.0)
        run = original_run(*args, 1000, 10, RngStream(1))
        sizes = [(level.index, level.dt, level.n_steps, level.coupled) for level in run.levels]
        assert sizes == [
            (0, 0.016, 125, False), (1, 0.008, 250, True),
            (2, 0.004, 500, True), (3, 0.002, 1000, True),
        ]
        assert [level.path_steps for level in run.levels] == [125, 375, 750, 1500]
        # an odd step count leaves the plain run alone as the one level
        odd = original_run(*args, 25, 10, RngStream(1))
        assert odd.levels == (odd.plain,)
        assert (odd.plain.index, odd.plain.dt, odd.plain.n_steps, odd.plain.coupled) == (
            None, 0.08, 25, False
        )
        # compound-Poisson jumps get levels as exact increments do
        jumps = original_run(example_vol, example_spec, -0.5, 0.1, 1.0, 0.05, 0.2, 10, 10, 1)
        assert jumps.scheme == "compound_poisson"
        sizes = [(level.index, level.dt, level.n_steps, level.coupled) for level in jumps.levels]
        assert sizes == [(0, 0.04, 5, False), (1, 0.02, 10, True)]

    @pytest.mark.parametrize("d", [1, 2])
    def test_wiener_increments_match_the_matmul_form(self, d):
        spec, G = wiener_spec(d), VolatilityFunction.power(2.0 / 3.0, [1.0] * d)
        run = original_run(G, spec, -0.5, 0.1, 1.0, 1e-3, 0.2, 20, 300, RngStream(7))
        assert run.scheme == "exact_stable"
        gen = np.random.default_rng(np.random.SeedSequence([7, 0], spawn_key=(0,)))
        increments = projected_increments(G, spec, 1e-3, 0.01, 300, gen)
        r = np.ones(300)
        for k, state in enumerate(run):
            if k:
                r = euler_step(G, r, 0.01, next(increments))
            assert np.array_equal(state, r)

    def test_coupled_leg_steps_the_pair_sums(self):
        # the fine leg is the plain loop on the level's stream; the coarse
        # leg steps 2 dt on the sum of each pair, Wiener part included
        spec, G = wiener_spec(2), VolatilityFunction.power(2.0 / 3.0, [1.0, 1.0])
        run = original_run(G, spec, -0.5, 0.1, 1.0, 1e-3, 0.2, 20, 300, RngStream(4))
        assert run.scheme == "exact_stable"
        assert_coupled_level_steps_the_pair_sums(run, spec, G, 1e-3, 4)

    def test_worked_coupled_level_steps_the_projected_pair_sums(self, example_spec, example_vol):
        # worked's shape: two exact axis atoms and G = x^(2/3) (1, 1); the
        # coarse leg adds the pair sums in the one coordinate of G's basis
        run = original_run(example_vol, example_spec, -0.5, 0.1, 1.0, 3e-3, 0.2, 20, 300, 12)
        assert run.scheme == "exact_stable"
        assert_coupled_level_steps_the_pair_sums(run, example_spec, example_vol, 3e-3, 12)

    @pytest.mark.parametrize("case", ["exact", "compound-poisson"])
    def test_batched_block_equals_the_loop_of_its_draws(self, case):
        # 3000 paths draw 3 steps at once, so the 20 steps take draws of
        # 3, 3, 3, 3, 3, 3 and 2 steps, and pairs straddle the draws
        assert step_draws(20, 3000) == [3, 3, 3, 3, 3, 3, 2]
        if case == "exact":
            spec, G = wiener_spec(2), VolatilityFunction.power(2.0 / 3.0, [1.0, 1.0])
            run = original_run(G, spec, -0.5, 0.1, 1.0, 1e-3, 0.2, 20, 10, RngStream(4))
            assert run.scheme == "exact_stable"
            assert_coupled_level_steps_the_pair_sums(run, spec, G, 1e-3, 4, j=1, n_paths=3000)
        else:
            # U = I: the run steps the d-dimensional increment itself
            spec = sixteen_gaussian_jump_spec()
            G = VolatilityFunction.tabulated([0.0, 2.0], [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
            run = original_run(G, spec, -0.5, 0.1, 1.0, 0.1, 0.2, 20, 10, RngStream(8))
            assert run.scheme == "compound_poisson"
            level = run.levels[-1]
            assert level.batch(3000) == 3
            sampler, _ = truncated_jump_sampler(spec, 0.1)
            q = spec.wiener_cov + sampler.small_cov
            gen = level_generator(8, level, 1)
            increments = drawn_increments(sampler, q, 0.01, 3000, gen, step_draws(20, 3000))
            assert_coupled_block_steps(level, G, increments, 1, 3000)

    def test_plain_level_draws_one_step_per_call(self):
        # simulate and the one-level legs read the plain level, whose
        # blocks draw step by step at every size; a level's small blocks
        # draw as many steps as 10 000 path-steps hold
        spec = sixteen_gaussian_jump_spec()
        G = VolatilityFunction.tabulated([0.0, 2.0], [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
        run = original_run(G, spec, -0.5, 0.1, 1.0, 0.1, 0.2, 20, 10, RngStream(8))
        finest = run.levels[-1]
        assert [run.plain.batch(n) for n in (1, 300, 10_000)] == [1, 1, 1]
        assert [finest.batch(n) for n in (1, 300, 3000, 6000, 10_000)] == [10_000, 33, 3, 1, 1]
        sampler, _ = truncated_jump_sampler(spec, 0.1)
        q = spec.wiener_cov + sampler.small_cov
        gen = np.random.default_rng(np.random.SeedSequence([8, 0], spawn_key=(2,)))
        increments = drawn_increments(sampler, q, 0.01, 300, gen)
        r = np.ones(300)
        for k, (state, coarse, _) in enumerate(run.plain.block(2, 300)):
            if k:
                r = euler_step(G, r, 0.01, next(increments))
            assert np.array_equal(state, r) and coarse is None

    @pytest.mark.parametrize("case", ["exact", "compound-poisson"])
    def test_batched_increments_have_the_law_of_one_step_draws(self, example_spec, case):
        # <1, dz> of 100 steps of 1000 paths, drawn 10 steps at once on a
        # level and one step at a time on the plain level: a two-sample
        # KS statistic below 0.01 at 100k draws, as in criterion 09.  A
        # constant G = 1 with no drift makes the state steps <1, dz>
        if case == "exact":
            spec, eps, horizon = example_spec, 3e-3, 2.0
        else:
            spec, eps, horizon = sixteen_gaussian_jump_spec(), 0.1, 0.2
        d = spec.dimension
        G = VolatilityFunction(lambda x: np.ones((len(x), d)), d)
        scheme = "exact_stable" if case == "exact" else "compound_poisson"

        def steps(run, level):
            assert run.scheme == scheme and level.n_steps == 100
            states = np.array([r for r, _, _ in level.block(0, 1000)])
            return np.diff(states, axis=0).ravel()

        levels = original_run(G, spec, 0.0, 0.0, 100.0, eps, horizon, 200, 10, RngStream(35))
        level = levels.levels[-2]
        assert level.batch(1000) == 10
        plain = original_run(G, spec, 0.0, 0.0, 100.0, eps, horizon, 100, 10, RngStream(36))
        assert plain.plain.dt == pytest.approx(level.dt, rel=1e-12)
        batched, single = steps(levels, level), steps(plain, plain.plain)
        assert batched.size == single.size == 100_000
        assert stats.ks_2samp(batched, single).statistic < 0.01

    def test_each_level_is_priced_at_its_own_step(self, example_spec, example_vol):
        # a compound-Poisson level at 2 dt draws twice the jumps of a
        # path-step at dt, so it pays twice their per-path time; exact
        # atoms cost the same at every step
        jumps = original_run(example_vol, example_spec, -0.5, 0.1, 1.0, 0.05, 0.2, 10, 10, 1)
        assert jumps.scheme == "compound_poisson"
        sampler, _ = truncated_jump_sampler(example_spec, 0.05)
        for level in (jumps.plain, *jumps.levels):
            assert level.step_cost == simulate._step_cost(sampler, 2, level.dt)
        coarse, fine = (level.step_cost[2] for level in jumps.levels)
        assert coarse - fine == pytest.approx(0.02 * sampler.intensity * 29.0, rel=1e-12)
        exact = original_run(example_vol, example_spec, -0.5, 0.1, 1.0, 3e-3, 2.0, 1000, 10, 1)
        assert exact.scheme == "exact_stable"
        assert {level.step_cost for level in exact.levels} == {exact.plain.step_cost}

    def test_batched_block_pays_its_draws_once_per_batch(self, example_spec, example_vol):
        # 125 steps of the coarsest level: a block of 300 paths draws 33
        # steps at once, 4 draws in all; the plain level draws every step
        run = original_run(example_vol, example_spec, -0.5, 0.1, 1.0, 3e-3, 2.0, 1000, 10, 1)
        coarsest, finest = run.levels[0], run.levels[-1]
        step, draw, per_path = run.plain.step_cost
        assert coarsest.cost([300]) == pytest.approx(125 * (step + 300 * per_path) + 4 * draw)
        assert run.plain.cost([300]) == pytest.approx(1000 * (step + draw + 300 * per_path))
        # the coupled level adds its coarse leg's 500 steps at 2 dt
        fine = 1000 * (step + 10_000 * per_path + draw)
        coarse = 500 * (simulate._COARSE_COST[0] + 10_000 * simulate._COARSE_COST[1])
        assert finest.cost([10_000]) == pytest.approx(fine + coarse)

    def test_compare_rounds_its_step_count_to_the_ladder(self):
        # the least odd multiple of 2^L at or above n, for L the most
        # halvings that keep 32 steps; n itself when 2^L divides it
        ladder = simulate._ladder_steps
        cases = {1: 1, 25: 25, 48: 48, 63: 63, 64: 64, 65: 66, 100: 100, 500: 504, 1000: 1008}
        assert {n: ladder(n) for n in cases} == cases
        for n in range(1, 3000):
            m = ladder(n)
            depth = max([L for L in range(12) if n >= 32 * 2**L], default=0)
            plain = simulate.EulerLevel(None, 1.0 / m, m, False, None, (0, 0), None)
            levels = simulate._levels(plain, lambda dt: None)
            assert m >= n and len(levels) - 1 >= depth
            if n % 2**depth == 0:
                assert m == n
            else:
                assert len(levels) - 1 == depth
                assert levels[0].n_steps % 2 == 1 and levels[0].n_steps >= 32
                assert m < n + 2 ** (depth + 1)

    def test_pair_sums_of_exact_increments_have_the_double_step_law(self, example_spec):
        # as criterion 09: two-sample KS statistic below 0.01 at 100k draws
        dt, n = 0.01, 100_000
        sampler = stable_atom_sampler(example_spec, 1e-3, dt)
        pairs = sampler.sample_increment(dt, 2 * n, RngStream(30)).reshape(n, 2, 2).sum(axis=1)
        double = sampler.sample_increment(2.0 * dt, n, RngStream(31))
        for i in range(2):
            assert stats.ks_2samp(pairs[:, i], double[:, i]).statistic < 0.01

    def test_pair_sums_of_compound_poisson_increments_have_the_double_step_moments(self):
        # bounded radii 0.5 and 1.5 of weights 2 and 1 on both axes: the
        # compensated 2 dt increment has mean 0 and variance
        # 2 dt int r^2 gamma(dr) = 2 dt 2.75 per axis
        spherical = SphericalMeasure.from_atoms(np.eye(2), [1.0, 1.0])
        radial = RadialMeasure(atoms=((0.5, 2.0), (1.5, 1.0)))
        spec = LevySpec(2, np.zeros((2, 2)), spherical, lambda xi: radial)
        sampler, dropped = truncated_jump_sampler(spec, 0.1)
        assert dropped == 0.0
        dt, n = 0.05, 200_000
        pairs = sampler.sample_increment(dt, 2 * n, RngStream(32)).reshape(n, 2, 2).sum(axis=1)
        var = 2.0 * dt * 2.75
        for i in range(2):
            assert abs(pairs[:, i].mean()) <= 3.0 * np.sqrt(var / n)
            assert pairs[:, i].var() == pytest.approx(var, rel=0.03)

    def test_pair_sums_of_gaussian_corrected_increments_have_the_double_step_law(self):
        # the atom at 0.05 falls below the cutoff 0.1, so a Gaussian of
        # variance 400 * 0.05^2 = 1 per axis and unit time carries it:
        # the 2 dt increment has mean 0 and covariance 2 dt 3.75 I.  The
        # pair sums of the loop's increments at dt and its increments at
        # 2 dt agree in KS distance on <1, .> as criterion 09 asks
        spherical = SphericalMeasure.from_atoms(np.eye(2), [1.0, 1.0])
        radial = RadialMeasure(atoms=((0.05, 400.0), (0.5, 2.0), (1.5, 1.0)))
        spec = LevySpec(2, np.zeros((2, 2)), spherical, lambda xi: radial)
        sampler, _ = truncated_jump_sampler(spec, 0.1)
        np.testing.assert_allclose(sampler.small_cov, np.eye(2), rtol=1e-12)
        dt, n = 0.05, 100_000
        pairs = loop_increments(spec, 0.1, 2.0 * dt, 2, n, RngStream(33))
        double = loop_increments(spec, 0.1, 2.0 * dt, 1, n, RngStream(34))
        cov = 2.0 * dt * 3.75 * np.eye(2)
        for draws in (pairs, double):
            assert np.all(np.abs(draws.mean(axis=0)) <= 3.0 * np.sqrt(np.diag(cov) / n))
            np.testing.assert_allclose(np.cov(draws.T), cov, rtol=0.03, atol=0.03 * cov[0, 0])
        assert stats.ks_2samp(pairs.sum(axis=1), double.sum(axis=1)).statistic < 0.01


def loop_increments(spec, eps, horizon, n_steps, n_paths, rng):
    """(n_paths, d) sums of the increments dz an original_run draws over
    n_steps steps, Gaussian included: axis k is read off the run under
    the constant G = e_k with no drift, whose draws do not depend on G."""
    d = spec.dimension
    columns = []
    for e in np.eye(d):
        G = VolatilityFunction(lambda x, e=e: np.tile(e, (len(x), 1)), d)
        run = original_run(G, spec, 0.0, 0.0, 100.0, eps, horizon, n_steps, n_paths, rng)
        assert run.scheme == "compound_poisson"
        columns.append(collections.deque(run, maxlen=1).pop() - 100.0)
    return np.column_stack(columns)


def lattice_search():
    """tools/lattice_search.py, the script that finds the stored
    generator, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "tools" / "lattice_search.py"
    spec = importlib.util.spec_from_file_location("lattice_search", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tent_points(z, shift, n=4096):
    """The tent-transformed, clipped coordinate of the lattice points
    k z / n + shift, k = 0..n-1, written out on its own: the tent 1 -
    |2x - 1| of the fractional part x, as 2 min(x, 1 - x), which is
    exact."""
    x = (np.arange(n) * z % n) / n + shift
    x = x - np.floor(x)
    u = 2.0 * np.minimum(x, 1.0 - x)
    return np.clip(u, 2.0**-53, 1.0 - 2.0**-53)


class TestLattice:
    N, G = simulate._LATTICE_POINTS, simulate._LATTICE_GENERATOR

    def test_every_projection_is_a_permutation(self):
        search = lattice_search()
        z = search.generating_vector(self.N, self.G, 1024)
        assert z.tolist() == [pow(self.G, j, self.N) for j in range(1024)]
        points = np.arange(self.N)[:, None] * z % self.N
        assert np.array_equal(np.sort(points, axis=0), np.tile(np.arange(self.N)[:, None], 1024))

    def test_stored_generator_beats_most_candidates(self):
        # the criterion of the stored g against 50 fixed odd candidates
        search = lattice_search()
        candidates = np.random.default_rng(26).choice(np.arange(1, self.N, 2), 50, replace=False)
        stored = search.criterion(self.N, self.G, 256)
        scores = [search.criterion(self.N, int(g), 256) for g in candidates]
        assert np.mean([stored <= score for score in scores]) >= 0.9

    def test_uniforms_are_the_tent_of_the_shifted_points(self):
        coords = np.array([0, 1, 7, 251, 5000])
        shift = np.random.default_rng(3).random(coords.size)
        u = simulate._lattice_uniforms(self.N, coords, shift)
        for row, j, s in zip(u, coords, shift):
            assert np.array_equal(row, tent_points(pow(self.G, int(j), self.N), s))

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_points_at_zero_and_one_give_finite_draws(self, alpha):
        # unshifted, coordinate 0 (z = 1) holds the points 0 and 1/2,
        # which the tent maps to u = 0 and u = 1 before the clip
        u = simulate._lattice_uniforms(self.N, np.array([0]), np.zeros(1))[0]
        assert (u[0], u[self.N // 2]) == (2.0**-53, 1.0 - 2.0**-53)
        assert np.all((u > 0.0) & (u < 1.0))
        v, w = simulate._stable_inputs(u, u)
        assert np.all((v > -np.pi / 2) & (v < np.pi / 2))
        assert np.all(np.isfinite(w) & (w > 0.0))
        assert np.all(np.isfinite(simulate._cms(alpha, 1.0, v, w)))
        sampler = simulate.StableAtomSampler(np.eye(2), np.array([alpha, 1.5]), np.ones(2))
        assert np.all(np.isfinite(sampler.mapped_increment(0.01, np.stack([u, u, u[::-1], u]))))

    def test_mapped_uniforms_have_the_law_of_drawn_increments(self, example_spec):
        # as criterion 09: two-sample KS statistic below 0.01 at 100k
        # draws, i.i.d. uniforms mapped against the sampler's own draws
        sampler = stable_atom_sampler(example_spec, 1e-3, 0.01)
        u = RngStream(40).generator().random((4, 100_000))
        mapped = sampler.mapped_increment(0.01, u)
        drawn = sampler.sample_increment(0.01, 100_000, RngStream(41))
        for i in range(2):
            assert stats.ks_2samp(mapped[:, i], drawn[:, i]).statistic < 0.01

    def test_lattice_block_steps_the_mapped_points(self, example_spec, example_vol):
        # worked's shape at 20 steps: the coarsest level steps 5 of 0.04.
        # A lattice block draws its shift first, then takes step k, atom
        # i's uniforms from coordinates 2 (2k + i) and 2 (2k + i) + 1
        run = original_run(example_vol, example_spec, -0.5, 0.1, 1.0, 3e-3, 0.2, 20, 10, 12)
        level = dataclasses.replace(run.levels[0], lattice=True)
        assert (level.n_steps, level.coupled, level.batch(self.N)) == (5, False, 2)
        sampler = stable_atom_sampler(example_spec, 3e-3, 0.04)
        sampler = dataclasses.replace(sampler, directions=sampler.directions @ example_vol.basis)
        shift = level_generator(12, level, 3).random(5 * 4)
        r = np.ones(self.N)
        for k, (state, coarse, _) in enumerate(level.block(3, self.N)):
            if k:
                c = [2 * (2 * (k - 1) + i) + e for i in range(2) for e in range(2)]
                u = np.stack([tent_points(pow(self.G, j, self.N), shift[j]) for j in c])
                r = euler_step(example_vol, r, 0.04, sampler.mapped_increment(0.04, u))
            assert np.array_equal(state, r) and coarse is None
        with pytest.raises(ValueError, match="4096 paths"):
            level.block(0, 4000)
