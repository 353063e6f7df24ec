"""Tests for random streams, stable increments, jump samplers, and path schemes."""

import collections
import dataclasses
import types

import numpy as np
import pytest
from scipy import stats

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
