"""Data model for jump measures, specs, and volatility functions."""

import numpy as np
import pytest

from levyreduce import (
    CONVERGED,
    LevySpec,
    RadialMeasure,
    SphericalMeasure,
    VolatilityFunction,
    angular_grid,
    check_martingale,
    density_spec,
    laplace_radial,
    power_radial,
    radial_integral,
    stable_spec,
    tabulated_radial,
)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestRadialMeasure:
    def test_zero_measure(self):
        assert RadialMeasure().is_zero
        assert not power_radial(1.5).is_zero

    def test_atom_validation(self):
        with pytest.raises(ValueError):
            RadialMeasure(atoms=((0.0, 1.0),))
        with pytest.raises(ValueError):
            RadialMeasure(atoms=((1.0, -2.0),))

    def test_list_inputs_stay_hashable(self):
        # sweeps memoise per-measure work with the measure as the key
        rho = RadialMeasure(atoms=[[0.5, 1.0]])
        assert rho.atoms == ((0.5, 1.0),)
        assert {rho: 1}[RadialMeasure(atoms=((0.5, 1.0),))] == 1

    def test_power_radial_density(self):
        rho = power_radial(1.5, scale=2.0)
        r = np.array([0.5, 1.0, 4.0])
        assert np.allclose(rho.density(r), 2.0 * r**-2.5)

    def test_tabulated_radial_interpolates_and_vanishes_outside(self):
        rho = tabulated_radial([1.0, 2.0], [1.0, 3.0])
        assert rho.density(np.array([1.5]))[0] == pytest.approx(2.0)
        assert rho.density(np.array([0.5]))[0] == 0.0
        assert rho.density(np.array([5.0]))[0] == 0.0

    def test_tabulated_radial_validation(self):
        with pytest.raises(ValueError):
            tabulated_radial([2.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            tabulated_radial([1.0, 2.0], [1.0, -1.0])
        with pytest.raises(ValueError, match="two points"):
            tabulated_radial([1.0], [1.0])

    def test_radial_integral_power_law(self):
        # int (r^2 wedge r) r^(-2.5) dr = 2 + 2
        res = radial_integral(power_radial(1.5), lambda r: np.minimum(r * r, r))
        assert res.status == CONVERGED
        assert res.value == pytest.approx(4.0, rel=1e-8)

    def test_radial_integral_atoms_exact(self):
        rho = RadialMeasure(atoms=((0.5, 2.0), (2.0, 1.0)))
        res = radial_integral(rho, lambda r: r**2)
        assert res.value == pytest.approx(2.0 * 0.25 + 4.0)


    @pytest.mark.parametrize("lo, hi", [(2.0, 1.0), (-1.0, np.inf)])
    @pytest.mark.parametrize(
        "measure",
        [power_radial(1.5), RadialMeasure(atoms=((1.5, 1.0),))],
        ids=["density", "atoms-only"],
    )
    def test_reversed_or_negative_range_rejected(self, measure, lo, hi):
        with pytest.raises(ValueError, match="0 <= lo < hi"):
            radial_integral(measure, lo=lo, hi=hi)


class TestSphericalMeasure:
    def test_from_atoms(self, two_atom_spherical):
        assert two_atom_spherical.is_atomic
        assert two_atom_spherical.n_atoms == 2
        assert np.sum(two_atom_spherical.weights) == pytest.approx(1.0)

    def test_from_atoms_validation(self):
        with pytest.raises(ValueError):
            SphericalMeasure.from_atoms(np.empty((0, 2)), [])
        with pytest.raises(ValueError):
            SphericalMeasure.from_atoms([[1.0, 0.0]], [1.0, 2.0])

    def test_angular_form(self):
        uniform = SphericalMeasure.from_angular(2, lambda a: np.ones(a.shape[0]))
        assert not uniform.is_atomic
        assert np.sum(angular_grid(uniform)[1]) == pytest.approx(2.0 * np.pi)
        assert uniform.angular_box() == ((0.0, 2.0 * np.pi),)

    def test_angular_needs_plane_or_higher(self):
        with pytest.raises(ValueError):
            SphericalMeasure.from_angular(1, lambda a: np.ones(a.shape[0]))

    def test_empty_measure_rejected(self):
        with pytest.raises(ValueError):
            SphericalMeasure(2, None, None, None)


class TestLevySpec:
    def test_stable_spec_radial_law(self, example_spec):
        assert np.all(example_spec.wiener_cov == 0.0)
        r = np.array([0.3, 1.0, 7.0])
        for xi in ([1.0, 0.0], [0.0, 1.0]):
            rho = example_spec.radial(np.asarray(xi))
            assert np.allclose(rho.density(r), r**-2.5)

    def test_stable_spec_same_law_at_every_angle(self):
        quarter = SphericalMeasure.from_angular(
            2, lambda a: ((a[:, 0] >= 0) & (a[:, 0] <= np.pi / 2)).astype(float)
        )
        spec = stable_spec(1.5, quarter)
        r = np.array([0.5, 2.0])
        base = spec.radial(unit([1.0, 0.0])).density(r)
        there = spec.radial(unit([1.0, 2.0])).density(r)
        assert np.allclose(base, there)

    def test_stable_spec_rejects_bad_alpha(self, two_atom_spherical):
        for alpha in (0.8, 1.0, 2.0, 2.3):
            with pytest.raises(ValueError):
                stable_spec(alpha, two_atom_spherical)

    def test_laplace_identical_across_directions(self, example_spec):
        # identical radial measures give identical exponents
        b_grid = np.logspace(-2, 2, 9)
        j1 = np.array([laplace_radial(example_spec.radial([1.0, 0.0]), b) for b in b_grid])
        j2 = np.array([laplace_radial(example_spec.radial([0.0, 1.0]), b) for b in b_grid])
        assert np.max(np.abs(j1 - j2) / j1) < 1e-9

    def test_dimension_mismatch_rejected(self, two_atom_spherical):
        with pytest.raises(ValueError):
            LevySpec(3, np.zeros((3, 3)), two_atom_spherical, lambda xi: power_radial(1.5))
        with pytest.raises(ValueError):
            LevySpec(2, np.zeros((3, 3)), two_atom_spherical, lambda xi: power_radial(1.5))

    def test_jump_only_strips_diffusion(self, two_atom_spherical):
        spec = LevySpec(2, np.eye(2), two_atom_spherical, lambda xi: power_radial(1.5))
        assert np.all(spec.jump_only().wiener_cov == 0.0)


class TestValidateSpec:
    """Spec validation: the structural and moment sweep of check_martingale."""

    def test_stable_spec_passes(self, example_spec):
        report = check_martingale(example_spec)
        assert report.overall_pass
        assert report.item("martingale_moment").value == pytest.approx(4.0, rel=1e-6)

    def test_zero_weight_fails(self):
        sph = SphericalMeasure.from_atoms([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
        spec = LevySpec(2, np.zeros((2, 2)), sph, lambda xi: power_radial(1.5))
        report = check_martingale(spec)
        assert not report.overall_pass
        assert not report.item("atom_weights_positive").passed

    def test_asymmetric_covariance_fails(self, two_atom_spherical):
        q = np.array([[1.0, 0.5], [0.0, 1.0]])
        spec = LevySpec(2, q, two_atom_spherical, lambda xi: power_radial(1.5))
        report = check_martingale(spec)
        assert not report.item("wiener_cov_symmetric").passed

    def test_indefinite_covariance_fails(self, two_atom_spherical):
        q = np.array([[1.0, 2.0], [2.0, 1.0]])
        spec = LevySpec(2, q, two_atom_spherical, lambda xi: power_radial(1.5))
        report = check_martingale(spec)
        assert not report.item("wiener_cov_psd").passed

    def test_idempotent(self, example_spec):
        assert check_martingale(example_spec) == check_martingale(example_spec)


class TestDensitySpec:
    def test_wraps_density_and_hints(self):
        dspec = density_spec(lambda p: np.linalg.norm(p, axis=1) ** -3.5, 2, (3.5, 3.5))
        assert dspec.dimension == 2
        vals = dspec(np.array([[1.0, 0.0], [2.0, 0.0]]))
        assert vals == pytest.approx([1.0, 2.0**-3.5])

    def test_negative_density_raises_on_evaluation(self):
        dspec = density_spec(lambda p: p[:, 0], 2)
        with pytest.raises(ValueError, match="negative"):
            dspec(np.array([[-1.0, 0.0]]))

    def test_needs_plane_or_higher(self):
        with pytest.raises(ValueError):
            density_spec(lambda p: np.ones(p.shape[0]), 1)


class TestVolatilityFunction:
    def test_power_form(self, example_vol):
        x = np.array([0.0, 1.0, 8.0])
        out = example_vol(x)
        assert out.shape == (3, 2)
        assert np.allclose(out[:, 0], x ** (2.0 / 3.0))
        assert np.allclose(out[1], [1.0, 1.0])
        assert np.all(example_vol(0.0) == 0.0)

    def test_power_is_the_elementwise_product(self):
        x = np.concatenate([[0.0, 1e-300, 1.0, 1e10], np.geomspace(1e-8, 1e3, 200)])
        direction = np.array([0.3, -1.7, 2.0])
        expected = x[:, None] ** 0.6 * direction[None, :]
        assert np.array_equal(VolatilityFunction.power(0.6, direction)(x), expected)

    @pytest.mark.parametrize(
        "G",
        [
            VolatilityFunction.power(0.6, [0.3, 1.7, 2.0]),
            VolatilityFunction.tabulated(
                [0.0, 1.0, 1e3], [[0.0, 0.5, 1.0], [1.0, 2.0, 0.2], [3.0, 1.0, 4.0]]
            ),
        ],
        ids=["power", "tabulated"],
    )
    def test_inner_is_the_contraction_of_the_call(self, G):
        # <G(x), dz> = <coeff(x), U^T dz>: inner reads the increments in
        # the coordinates of the basis, one for the power form
        rng = np.random.default_rng(7)
        x = np.concatenate([[0.0, 1e-300, 1.0], rng.gamma(2.0, 0.5, 500)])
        dz = rng.exponential(size=(x.size, 3))
        expected = np.einsum("ij,ij->i", G(x), dz)
        np.testing.assert_allclose(G.inner(x, dz @ G.basis), expected, rtol=1e-15, atol=0.0)

    def test_power_form_has_its_direction_as_basis(self):
        x = np.geomspace(1e-8, 1e3, 50)
        G = VolatilityFunction.power(0.6, [0.3, -1.7, 2.0])
        assert np.array_equal(G.basis, [[0.3], [-1.7], [2.0]])
        assert G == G and G in {G}
        assert np.array_equal(G.coefficients(x), x[:, None] ** 0.6)
        dz = np.random.default_rng(3).standard_normal((x.size, 1))
        assert np.array_equal(G.inner(x, dz), x**0.6 * dz[:, 0])

    def test_tabulated_form_has_the_identity_basis(self):
        grid = np.array([0.0, 1.0, 1e3])
        table = np.array([[0.0, 0.5, 1.0], [1.0, 2.0, 0.2], [3.0, 1.0, 4.0]])
        G = VolatilityFunction.tabulated(grid, table)
        assert np.array_equal(G.basis, np.eye(3))
        rng = np.random.default_rng(5)
        x = np.concatenate([[0.0, 1e-300, 1.0, 2e3], rng.gamma(2.0, 0.5, 500)])
        expected = np.column_stack([np.interp(x, grid, table[:, k]) for k in range(3)])
        assert np.array_equal(G(x), expected)
        assert np.array_equal(G.coefficients(x), expected)
        # a plain VolatilityFunction(func, d) gets the identity too
        plain = VolatilityFunction(lambda s: np.ones((len(s), 2)), 2)
        assert np.array_equal(plain.basis, np.eye(2))
        assert np.array_equal(plain(x), np.ones((x.size, 2)))

    def test_scalar_call_returns_vector(self, example_vol):
        out = example_vol(4.0)
        assert out.shape == (2,)
        assert np.allclose(out, 4.0 ** (2.0 / 3.0))

    def test_power_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            VolatilityFunction.power(0.0, [1.0, 0.0])

    def test_tabulated_interpolates(self):
        G = VolatilityFunction.tabulated([0.0, 1.0, 2.0], [[0.0, 0.0], [1.0, 2.0], [2.0, 4.0]])
        out = G(np.array([0.5, 1.5]))
        assert np.allclose(out, [[0.5, 1.0], [1.5, 3.0]])

    def test_tabulated_rejects_unordered_grid(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            VolatilityFunction.tabulated([1.0, 0.0, 2.0], [[1.0, 1.0], [0.0, 0.0], [2.0, 2.0]])

    def test_custom_evaluator_shape_enforced(self):
        G = VolatilityFunction(lambda x: x, 2)
        with pytest.raises(ValueError):
            G(np.array([1.0, 2.0]))
