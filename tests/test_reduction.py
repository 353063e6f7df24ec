"""Extraction of the level-proportional jump exponent, the power-law
fit, and assembly of the one-factor stable-CIR model."""

import numpy as np
import pytest

from levyreduce import (
    AffinityViolation,
    NotPowerLaw,
    PreconditionFailed,
    RadialMeasure,
    ReducedModel,
    ResidualNuG0,
    SphericalMeasure,
    VolatilityFunction,
    ZeroVolatility,
    check_hypotheses,
    direction_limit_at_zero,
    extract_affine_exponents,
    fit_power_law,
    laplace_radial,
    power_radial,
    reduce_model,
    stable_spec,
)

from conftest import C_15, one_atom_form


class TestDirectionLimit:
    def test_constant_direction(self, example_vol):
        g0, residual = direction_limit_at_zero(example_vol)
        assert np.allclose(g0, np.sqrt(0.5))
        assert residual < 1e-12

    def test_dominant_component(self):
        G = VolatilityFunction(lambda x: np.stack([x, x * x], axis=-1), 2)
        g0, residual = direction_limit_at_zero(G)
        assert np.allclose(g0, [1.0, 0.0], atol=1e-6)
        assert residual < 1e-4

    def test_oscillating_direction_flagged(self):
        G = VolatilityFunction(
            lambda x: np.stack([x * np.cos(1.0 / x), x * np.sin(1.0 / x)], axis=-1), 2
        )
        _, residual = direction_limit_at_zero(G)
        assert residual > 1e-4

    def test_zero_volatility_raises(self):
        G = VolatilityFunction(lambda x: np.zeros((x.shape[0], 2)), 2)
        with pytest.raises(ZeroVolatility):
            direction_limit_at_zero(G)


class TestExtractExponents:
    def test_worked_example(self, example_spec, example_vol):
        b_grid = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
        slopes, intercepts, residual = extract_affine_exponents(
            example_spec, example_vol, b_grid
        )
        assert residual < 1e-6
        assert np.allclose(intercepts, 0.0, atol=1e-9)
        assert slopes[0] == 0.0  # J_mu(0) = 0 exactly
        expected = C_15 * b_grid[1:] ** 1.5
        assert np.allclose(slopes[1:], expected, rtol=1e-6)

    def test_linear_volatility_violates_affinity(self, example_spec):
        G = VolatilityFunction(lambda x: np.stack([x, x], axis=-1), 2)
        with pytest.raises(AffinityViolation):
            extract_affine_exponents(example_spec, G)

    def test_diffusion_term_absorbed(self, two_atom_spherical, example_vol):
        # a CIR Wiener part enters as c b^2 and must not contaminate slopes
        from levyreduce import LevySpec

        G = VolatilityFunction(
            lambda x: np.stack([np.sqrt(x), np.zeros_like(x)], axis=-1), 2
        )
        spec = LevySpec(2, np.eye(2), two_atom_spherical, lambda xi: RadialMeasure())
        b_grid = np.array([0.5, 1.0, 2.0, 3.0])
        slopes, intercepts, residual = extract_affine_exponents(spec, G, b_grid)
        assert residual < 1e-9
        assert np.allclose(slopes, 0.0, atol=1e-9)
        assert np.allclose(intercepts, 0.0, atol=1e-9)


class TestPowerFit:
    def test_exact_power_law(self):
        b = np.logspace(-2, 2, 40)
        c_tilde, alpha, residual, report = fit_power_law(b, 2.5 * b**1.5)
        assert c_tilde == pytest.approx(2.5, rel=1e-9)
        assert alpha == pytest.approx(1.5, abs=1e-9)
        assert residual < 1e-9
        assert report.overall_pass
        assert report.item("scaling_factor_2").passed
        assert report.item("scaling_factor_3").passed

    def test_quadratic_flagged_as_boundary(self):
        b = np.logspace(-2, 2, 40)
        _, alpha, _, report = fit_power_law(b, 0.5 * b**2)
        assert alpha == pytest.approx(2.0, abs=1e-9)
        assert report.item("alpha_range").status == "warn"
        assert "GAUSSIAN_BOUNDARY" in report.item("alpha_range").detail

    def test_non_power_law_rejected(self):
        b = np.logspace(-1, 1, 40)
        with pytest.raises(NotPowerLaw):
            fit_power_law(b, np.exp(b) - 1.0 - b)


class TestReducedModel:
    def test_field_validation(self):
        for kwargs in (
            dict(a=0.0, b=0.0, C=1.0, alpha=2.0),
            dict(a=0.0, b=0.0, C=1.0, alpha=1.0),
            dict(a=0.0, b=0.0, C=0.0, alpha=1.5),
            dict(a=0.0, b=-0.1, C=1.0, alpha=1.5),
        ):
            with pytest.raises(ValueError):
                ReducedModel(**kwargs)

    def test_exponents_match_closed_form(self):
        a, b, c, j_mu, j_nu = ReducedModel(a=-0.5, b=0.1, C=1.3, alpha=1.5).exponents()
        assert (a, b, c, j_nu(2.0)) == (-0.5, 0.1, 0.0, 0.0)
        # J_mu is the Laplace exponent of the stable measure C^alpha r^(-1-alpha) dr
        for u in (0.01, 2.0, 50.0):
            expected = laplace_radial(power_radial(1.5, 1.3**1.5), u)
            assert j_mu(u) == pytest.approx(expected, rel=1e-8)
        assert j_mu(2.0) == pytest.approx(1.3**1.5 * C_15 * 2.0**1.5, rel=1e-12)


class TestCheckHypotheses:
    def test_item_order_with_volatility(self, example_spec):
        # G(0) = (1, 1) keeps the variation items
        G = VolatilityFunction(lambda x: np.stack([x + 1.0, x + 1.0], axis=-1), 2)
        names = [it.name for it in check_hypotheses(example_spec, G).items]
        assert names[4:] == [
            "martingale_moment",
            "jump_direction_sign",
            "infinite_variation_mass",
            "variation_span",
            "balance_finite",
            "balance_stable",
            "direction_limit",
        ]

    def test_variation_waived_when_volatility_vanishes_at_zero(self, example_spec, example_vol):
        report = check_hypotheses(example_spec, example_vol)
        assert report.overall_pass
        assert "infinite_variation_mass" not in report
        assert report.items[-1].name == "direction_limit"

    def test_without_volatility(self, example_spec):
        names = [it.name for it in check_hypotheses(example_spec).items]
        assert names[4:] == [
            "martingale_moment",
            "infinite_variation_mass",
            "variation_span",
            "balance_finite",
            "balance_stable",
        ]

    def test_reduce_refuses_with_the_suite_report(self, example_spec):
        G = VolatilityFunction(lambda x: np.stack([x, -x], axis=-1), 2)
        with pytest.raises(PreconditionFailed) as info:
            reduce_model(example_spec, G)
        assert info.value.report == check_hypotheses(example_spec, G)
        assert "jump_direction_sign" in str(info.value)


class TestReduceModel:
    def test_worked_example(self, example_spec, example_vol):
        model, report = reduce_model(example_spec, example_vol, a=-0.5, b=0.1)
        assert report.overall_pass
        assert model.a == -0.5 and model.b == 0.1
        assert model.alpha == pytest.approx(1.5, abs=1e-6)
        assert model.C == pytest.approx(1.0, rel=1e-6)

    def test_one_atom_form_returns_its_own_coefficients(self):
        # the reduced equation written as the original one in d = 1
        # reduces to itself
        G, spec = one_atom_form(1.476)
        model, report = reduce_model(spec, G, a=-0.5, b=0.1)
        assert report.overall_pass
        assert (model.a, model.b) == (-0.5, 0.1)
        assert model.C == pytest.approx(1.476, rel=1e-10)
        assert model.alpha == pytest.approx(1.5, rel=1e-10)

    def test_span_deficiency_is_a_precondition(self):
        spec = stable_spec(1.5, SphericalMeasure.from_atoms([[1.0, 0.0]], [1.0]))
        G = VolatilityFunction(
            lambda x: np.stack([x + 1.0, np.zeros_like(x)], axis=-1), 2
        )
        with pytest.raises(PreconditionFailed):
            reduce_model(spec, G)

    def test_span_deficiency_waived_when_volatility_vanishes_at_zero(self):
        # G(0) = 0 is the alternative hypothesis: reduction proceeds
        spec = stable_spec(1.5, SphericalMeasure.from_atoms([[1.0, 0.0]], [1.0]))
        G = VolatilityFunction.power(2.0 / 3.0, [1.0, 0.0])
        model, report = reduce_model(spec, G)
        assert model.alpha == pytest.approx(1.5, abs=1e-3)
        assert report.overall_pass
        assert "variation_span" not in report

    def test_wiener_part_flagged_but_extraction_continues(
        self, two_atom_spherical, example_vol, example_spec
    ):
        from levyreduce import LevySpec

        spec = LevySpec(2, np.eye(2), two_atom_spherical, example_spec.radial_family)
        model, report = reduce_model(spec, example_vol)
        assert model.alpha == pytest.approx(1.5, abs=1e-3)
        assert not report.overall_pass
        assert not report.item("wiener_part_vanishes").passed

    def test_sign_violation_is_a_precondition(self, example_spec):
        G = VolatilityFunction(lambda x: np.stack([x, -x], axis=-1), 2)
        with pytest.raises(PreconditionFailed):
            reduce_model(example_spec, G)

    def test_alpha_recovered_across_atom_configurations(self):
        directions = np.array([[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]])
        sph = SphericalMeasure.from_atoms(directions, [0.3, 0.5, 0.2])
        spec = stable_spec(1.7, sph)
        G = VolatilityFunction.power(1.0 / 1.7, [1.0, 1.0])
        model, _ = reduce_model(spec, G)
        assert model.alpha == pytest.approx(1.7, abs=1e-3)

    def test_spherical_rescaling_moves_only_the_scale(self, example_vol):
        base = stable_spec(1.5, SphericalMeasure.from_atoms(
            [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5]
        ))
        doubled = stable_spec(1.5, SphericalMeasure.from_atoms(
            [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0]
        ))
        m1, _ = reduce_model(base, example_vol)
        m2, _ = reduce_model(doubled, example_vol)
        assert m2.alpha == pytest.approx(m1.alpha, abs=1e-6)
        # doubling lambda doubles C^alpha, so C gains 2^(1/alpha)
        assert m2.C == pytest.approx(m1.C * 2.0 ** (1.0 / 1.5), rel=1e-6)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_c_matches_the_closed_form(self, seed):
        # 16 atoms on the positive octant of S^2 with weights summing to
        # one; for G(x) = x^(1/alpha) g0 the paper's constant is
        # C = (sum_i w_i <g0, xi_i>^alpha)^(1/alpha)
        rng = np.random.default_rng(seed)
        dirs = np.abs(rng.standard_normal((16, 3)))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        weights = rng.uniform(0.5, 1.5, 16)
        weights /= weights.sum()
        g0 = np.ones(3)
        spec = stable_spec(1.5, SphericalMeasure.from_atoms(dirs, weights))
        model, _ = reduce_model(spec, VolatilityFunction.power(2.0 / 3.0, g0))
        closed_form = float(np.sum(weights * (dirs @ g0) ** 1.5)) ** (1.0 / 1.5)
        assert model.C == pytest.approx(closed_form, rel=1e-10)


def test_residual_intercept_detected(two_atom_spherical, example_vol):
    # adding a state-independent jump component leaves a nonzero
    # intercept, which the reduction must refuse to absorb
    from levyreduce import LevySpec

    def family(xi):
        return RadialMeasure(density=lambda r: r**-2.5, atoms=((1.0, 0.4),))

    spec = LevySpec(2, np.zeros((2, 2)), two_atom_spherical, family)
    base = VolatilityFunction.power(2.0 / 3.0, [1.0, 1.0])

    def g_offset(x):
        return base(np.asarray(x)) + np.array([0.3, 0.1])

    G = VolatilityFunction(g_offset, 2)
    with pytest.raises((ResidualNuG0, AffinityViolation)):
        reduce_model(spec, G)
