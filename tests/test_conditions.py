"""Hypothesis checks for the affine generating property, the radial
balance condition, domination ratios, and the density criteria."""

import numpy as np
import pytest
from scipy.integrate import quad

from levyreduce import (
    DenominatorZero,
    InfimumZero,
    LevySpec,
    RadialMeasure,
    SphericalMeasure,
    VolatilityFunction,
    angular_grid,
    check_martingale,
    check_positive_jumps,
    check_structure,
    check_variation,
    density_reducibility_check,
    density_spec,
    power_radial,
    q_ratios,
    radial_balance,
    stable_spec,
    wiener_cir_check,
)


class TestMartingale:
    def test_stable_moment_value(self, example_spec):
        report = check_martingale(example_spec)
        assert report.overall_pass
        # int (r^2 wedge r) r^(-2.5) dr = 2 + 2
        assert report.item("martingale_moment").value == pytest.approx(4.0, rel=1e-8)

    def test_heavy_large_jumps_fail(self, two_atom_spherical):
        # density r^(-1.8): int_1^inf r * r^(-1.8) dr diverges
        spec = LevySpec(
            2,
            np.zeros((2, 2)),
            two_atom_spherical,
            lambda xi: RadialMeasure(density=lambda r: r**-1.8),
        )
        report = check_martingale(spec)
        assert not report.overall_pass

    def test_zero_measure_warns(self, two_atom_spherical):
        spec = LevySpec(2, np.zeros((2, 2)), two_atom_spherical, lambda xi: RadialMeasure())
        report = check_martingale(spec)
        assert report.overall_pass
        assert report.item("martingale_moment").status == "warn"


    # A family whose direction is drawn afresh per call: every direction
    # gets its own radial measure, so a sweep must integrate each of them.
    def test_divergent_direction_subset_fails(self):
        uniform = SphericalMeasure.from_angular(2, lambda a: np.ones(a.shape[0]))
        spec = LevySpec(
            2,
            np.zeros((2, 2)),
            uniform,
            lambda xi: power_radial(2.5 if xi[0] < -0.5 else 1.5),
        )
        item = check_martingale(spec).item("martingale_moment")
        assert item.status == "fail"
        assert "divergent" in item.detail

    def test_value_is_max_over_directions(self):
        uniform = SphericalMeasure.from_angular(2, lambda a: np.ones(a.shape[0]))
        spec = LevySpec(
            2,
            np.zeros((2, 2)),
            uniform,
            lambda xi: power_radial(1.5, scale=1.0 - 0.5 * float(xi[0])),
        )
        dirs = angular_grid(uniform, 16)[0]
        expected = float(np.max(4.0 * (1.0 - 0.5 * dirs[:, 0])))
        value = check_martingale(spec).item("martingale_moment").value
        assert value == pytest.approx(expected, rel=1e-8)
        assert value == pytest.approx(5.91, abs=5e-3)


class TestStructure:
    def test_negative_weight_fails(self):
        sph = SphericalMeasure.from_atoms([[1.0, 0.0], [0.0, 1.0]], [0.5, -0.5])
        report = check_structure(stable_spec(1.5, sph))
        assert report.item("atom_weights_positive").status == "fail"

    def test_non_unit_direction_fails(self):
        sph = SphericalMeasure.from_atoms([[2.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        report = check_structure(stable_spec(1.5, sph))
        assert report.item("unit_directions").status == "fail"
        assert report.item("unit_directions").value == pytest.approx(1.0)

    def test_zero_angular_mass_fails(self):
        empty = SphericalMeasure.from_angular(2, lambda a: np.zeros(a.shape[0]))
        report = check_structure(stable_spec(1.5, empty))
        assert report.item("angular_mass_positive").status == "fail"

    def test_martingale_report_leads_with_structure(self, example_spec):
        names = [it.name for it in check_martingale(example_spec).items]
        assert names == [
            "atom_weights_positive",
            "unit_directions",
            "wiener_cov_symmetric",
            "wiener_cov_psd",
            "martingale_moment",
        ]


class TestVariation:
    def test_stable_two_atoms_pass(self, example_spec):
        report = check_variation(example_spec)
        assert report.overall_pass
        assert report.item("infinite_variation_mass").value == pytest.approx(1.0)
        assert report.item("variation_span").value == 2.0

    def test_finite_variation_fails_mass(self, two_atom_spherical):
        spec = LevySpec(
            2,
            np.zeros((2, 2)),
            two_atom_spherical,
            lambda xi: RadialMeasure(atoms=((1.0, 1.0),)),
        )
        report = check_variation(spec)
        assert not report.item("infinite_variation_mass").passed

    def test_single_atom_fails_span(self):
        spec = stable_spec(1.5, SphericalMeasure.from_atoms([[1.0, 0.0]], [1.0]))
        report = check_variation(spec)
        assert report.item("infinite_variation_mass").passed
        assert not report.item("variation_span").passed


    def test_divergent_direction_subset_located(self):
        uniform = SphericalMeasure.from_angular(2, lambda a: np.ones(a.shape[0]))
        spec = LevySpec(
            2,
            np.zeros((2, 2)),
            uniform,
            lambda xi: power_radial(1.5 if xi[0] < -0.5 else 0.5),
        )
        dirs, wgts, _ = angular_grid(uniform, 32)
        report = check_variation(spec)
        assert report.overall_pass
        assert report.item("infinite_variation_mass").value == pytest.approx(
            float(np.sum(wgts[dirs[:, 0] < -0.5]))
        )


class TestPositiveJumps:
    def test_admissible_pair(self, example_vol, example_spec):
        assert check_positive_jumps(example_vol, example_spec).overall_pass

    def test_sign_violation(self, example_spec):
        G = VolatilityFunction(lambda x: np.stack([x, -x], axis=-1), 2)
        report = check_positive_jumps(G, example_spec)
        assert not report.overall_pass

    def test_degenerate_warns(self, example_spec):
        G = VolatilityFunction(lambda x: np.zeros((x.shape[0], 2)), 2)
        report = check_positive_jumps(G, example_spec)
        assert report.overall_pass
        assert report.item("jump_direction_sign").status == "warn"

    @staticmethod
    def half_disc_spec(sign):
        # angular density 1{sign * cos(theta) > 0}: jumps on one half-plane
        spherical = SphericalMeasure.from_angular(
            2, lambda a: (sign * np.cos(a[:, 0]) > 0).astype(float)
        )
        return LevySpec(2, np.zeros((2, 2)), spherical, lambda xi: power_radial(1.5))

    def test_zero_density_sector_is_not_scanned(self):
        # G along e1 is negative only on cos(theta) < 0, where no jump lands
        G = VolatilityFunction.power(2.0 / 3.0, [1.0, 0.0])
        report = check_positive_jumps(G, self.half_disc_spec(1.0))
        assert report.overall_pass
        assert report.item("jump_direction_sign").value >= 0.0

    def test_density_on_negative_side_still_fails(self):
        G = VolatilityFunction.power(2.0 / 3.0, [1.0, 0.0])
        assert not check_positive_jumps(G, self.half_disc_spec(-1.0)).overall_pass

    def test_massless_spherical_part_warns(self):
        spherical = SphericalMeasure.from_atoms([[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0])
        spec = stable_spec(1.5, spherical)
        G = VolatilityFunction.power(2.0 / 3.0, [1.0, 0.0])
        assert check_positive_jumps(G, spec).item("jump_direction_sign").status == "warn"


class TestWienerCir:
    def test_no_diffusion(self, example_vol):
        c, residual, report = wiener_cir_check(np.zeros((2, 2)), example_vol)
        assert c == 0.0
        assert residual == 0.0
        assert report.overall_pass

    def test_cir_square_root(self):
        G = VolatilityFunction(
            lambda x: np.stack([np.sqrt(x), np.zeros_like(x)], axis=-1), 2
        )
        c, residual, report = wiener_cir_check(np.eye(2), G)
        assert c == pytest.approx(0.5, rel=1e-9)
        assert report.overall_pass

    def test_affinity_mismatch(self, example_vol):
        # |G|^2 = 2 x^(4/3) is not linear in x
        _, _, report = wiener_cir_check(np.eye(2), example_vol)
        assert not report.overall_pass


class TestRadialBalance:
    def test_identical_measures(self, example_spec):
        k_hat, report = radial_balance(example_spec)
        assert report.overall_pass
        assert k_hat == pytest.approx(1.0, abs=1e-9)

    def test_proportional_family(self, cos_spec):
        k_hat, report = radial_balance(cos_spec)
        assert report.overall_pass
        assert k_hat == pytest.approx(3.0, abs=1e-6)

    def test_proportional_family_is_resolved_to_rounding(self, cos_spec):
        # the scales 3/2 and 1/2 at theta = 0 and pi give K = 3 exactly;
        # every exponent of the ratio is held to its own relative accuracy
        k_hat, _ = radial_balance(cos_spec)
        assert k_hat == pytest.approx(3.0, rel=0.0, abs=1e-12)

    def test_degenerate_direction_raises(self, two_atom_spherical):
        def family(xi):
            if xi[0] > 0.5:
                return power_radial(1.5)
            return RadialMeasure()  # no jumps at all along e2

        spec = LevySpec(2, np.zeros((2, 2)), two_atom_spherical, family)
        with pytest.raises(InfimumZero):
            radial_balance(spec)

    def test_unbalanced_family_fails(self, two_atom_spherical):
        # Dirac radial atoms against a stable tail: the exponent ratio
        # grows like b^(1/2), so no finite K works
        def family(xi):
            if xi[0] > 0.5:
                return power_radial(1.5)
            return RadialMeasure(atoms=((1.0, 1.0),))

        spec = LevySpec(2, np.zeros((2, 2)), two_atom_spherical, family)
        k_hat, report = radial_balance(spec)
        assert not report.overall_pass

    def test_divergent_family_has_no_balance_constant(self, two_atom_spherical):
        # every radial law fails the martingale moment, so every exponent
        # is infinite: inf/inf must not read as K = 1
        spec = LevySpec(
            2, np.zeros((2, 2)), two_atom_spherical, lambda xi: power_radial(2.5)
        )
        k_hat, report = radial_balance(spec)
        assert k_hat == np.inf
        assert not report.item("balance_finite").passed
        assert not report.item("balance_stable").passed


class TestQRatios:
    def test_proportional_measures(self):
        q0, q_inf, report = q_ratios(power_radial(1.5, 0.5), power_radial(1.5, 1.5))
        assert report.overall_pass
        assert q0 == pytest.approx(3.0, abs=1e-6)
        assert q_inf == pytest.approx(3.0, abs=1e-6)

    def test_equal_measures(self):
        rho = power_radial(1.3, 0.8)
        q0, q_inf, report = q_ratios(rho, rho)
        assert report.overall_pass
        assert q0 == pytest.approx(1.0, abs=1e-9)
        assert q_inf == pytest.approx(1.0, abs=1e-9)

    def test_extra_bounded_mass_above_one(self):
        # Gamma = gamma + 1_(2,3)(r) dr: both window integrals of the
        # lower measure diverge, so the shared part dominates both limits
        lower = power_radial(1.5)
        upper = RadialMeasure(density=lambda r: r**-2.5 + ((r > 2.0) & (r < 3.0)))
        eps = np.logspace(-4, -9, 11)
        q0, q_inf, report = q_ratios(lower, upper, eps_grid=eps)
        assert q0 == pytest.approx(1.0, abs=1e-6)
        assert np.isfinite(q_inf)
        # the estimate is the max over the three smallest eps; the ratio
        # at eps is 1 + (19/3) / (2 (eps^(-1/2) - 1))
        worst_eps = eps[-3]
        bound = 1.0 + (19.0 / 3.0) / (2.0 * (worst_eps**-0.5 - 1.0))
        assert 1.0 < q_inf <= bound * (1.0 + 1e-6)

    def test_ordering_violation_reported(self):
        q0, q_inf, report = q_ratios(power_radial(1.5, 2.0), power_radial(1.5, 1.0))
        assert not report.item("domination_order").passed

    def test_denominator_zero(self):
        lower = RadialMeasure(atoms=((5.0, 1.0),))  # no mass below 1
        upper = RadialMeasure(density=lambda r: np.ones_like(r), atoms=((5.0, 1.0),))
        with pytest.raises(DenominatorZero):
            q_ratios(lower, upper)


class TestDensityCriteria:
    def test_cosine_fixture_passes(self, cos_density_spec):
        report = density_reducibility_check(cos_density_spec)
        assert report.overall_pass
        assert report.item("ratio_small").value == pytest.approx(3.0, rel=1e-4)
        assert report.item("ratio_large").value == pytest.approx(3.0, rel=1e-4)

    def test_cosine_fixture_items_come_from_the_decomposed_suite(self, cos_density_spec):
        # integrability is the largest per-direction moment, at most the
        # (1 + 1/2) * 4 of the ray theta = 0; every direction diverges
        report = density_reducibility_check(cos_density_spec)
        assert 5.99 < report.item("integrability").value <= 6.0
        assert report.item("small_jump_divergence").value == pytest.approx(
            2.0 * np.pi, abs=1e-12
        )

    def test_three_d_cosine_passes(self):
        # (1 + x_1 / (2|x|)) |x|^(-4.5): the envelopes over each sphere are
        # 1/2 and 3/2 times |x|^(-4.5), so both ratios are 3
        def g(points):
            r = np.maximum(np.linalg.norm(points, axis=1), 1e-300)
            return (1.0 + 0.5 * points[:, 0] / r) * r**-4.5

        report = density_reducibility_check(density_spec(g, 3, (4.5, 4.5)))
        assert [it.name for it in report.items] == [
            "integrability", "span", "small_jump_divergence", "ratio_small", "ratio_large",
        ]
        assert report.overall_pass
        assert report.item("ratio_small").value == pytest.approx(3.0, rel=1e-4)
        assert report.item("ratio_large").value == pytest.approx(3.0, rel=1e-4)

    def test_quadrant_support_spans(self):
        def g(points):
            r = np.maximum(np.linalg.norm(points, axis=1), 1e-300)
            inside = (points[:, 0] > 0) & (points[:, 1] > 0)
            return inside * r**-3.5

        report = density_reducibility_check(density_spec(g, 2, (3.5, 3.5)))
        assert report.item("span").passed

    def test_integrable_small_jumps_fail_exactly_one_condition(self):
        # |x|^(-1.5) with an exponential cap: int_0^1 r^2 r^(-1.5) dr is
        # finite, so only the small-jump divergence criterion fails
        def g(points):
            r = np.maximum(np.linalg.norm(points, axis=1), 1e-300)
            return r**-1.5 * np.exp(-r)

        report = density_reducibility_check(density_spec(g, 2, (1.5, np.inf)))
        assert not report.overall_pass
        assert [it.name for it in report.failing()] == ["small_jump_divergence"]

    def test_rotation_invariance(self):
        def g(points):
            r = np.maximum(np.linalg.norm(points, axis=1), 1e-300)
            cos_t = points[:, 0] / r
            return (1.0 + 0.5 * cos_t) * r**-3.5

        rot = np.pi / 4.0
        mat = np.array([[np.cos(rot), -np.sin(rot)], [np.sin(rot), np.cos(rot)]])

        def g_rot(points):
            return g(points @ mat)

        base = density_reducibility_check(density_spec(g, 2, (3.5, 3.5)))
        turned = density_reducibility_check(density_spec(g_rot, 2, (3.5, 3.5)))
        assert base.overall_pass and turned.overall_pass
        for name in ("ratio_small", "ratio_large"):
            assert turned.item(name).value == pytest.approx(
                base.item(name).value, rel=1e-3
            )


def test_balance_matches_scipy_on_smooth_bump(two_atom_spherical):
    # radial density exp(-1/((r-2)(3-r))) on (2,3): the Laplace exponent
    # from the adaptive panels must match an independent quadrature
    def bump(r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = (r > 2.0) & (r < 3.0)
        t = (r[inside] - 2.0) * (3.0 - r[inside])
        out[inside] = np.exp(-1.0 / t)
        return out

    from levyreduce import laplace_radial
    from levyreduce.laplace import compensated_exp

    rho = RadialMeasure(density=bump)
    for b in (0.5, 2.0):
        ours = laplace_radial(rho, b)
        ref, _ = quad(lambda r: compensated_exp(b * r) * bump(np.array([r]))[0], 2.0, 3.0)
        assert ours == pytest.approx(ref, rel=1e-7)
