"""Polar geometry: the trigonometric direction map, induced radial
measures, and integration against decomposed specs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyreduce import (
    DivergentIntegral,
    LevySpec,
    RadialMeasure,
    SphericalMeasure,
    check_structure,
    density_spec,
    induced_spec,
    integrate_over_directions,
    polar_map,
    radial_from_density,
    radial_integral,
    spherical_integrate,
    stable_spec,
    uniform_angle_grid,
)


class TestPolarMap:
    def test_plane_axis(self):
        xi, jac = polar_map([0.0])
        assert np.allclose(xi, [1.0, 0.0])
        assert jac == 1.0

    def test_three_d_equator(self):
        xi, jac = polar_map([np.pi / 2, 0.0])
        assert np.allclose(xi, [0.0, 1.0, 0.0], atol=1e-15)
        assert jac == pytest.approx(1.0)

    def test_three_d_diagonal(self):
        xi, jac = polar_map([np.pi / 4, np.pi / 2])
        root_half = np.sqrt(0.5)
        assert np.allclose(xi, [root_half, 0.0, root_half], atol=1e-15)
        assert jac == pytest.approx(root_half)

    @settings(max_examples=60, deadline=None)
    @given(
        angles=st.lists(
            st.floats(min_value=0.0, max_value=np.pi), min_size=1, max_size=3
        )
    )
    def test_unit_norm_and_jacobian_range(self, angles):
        angles = list(angles)
        angles[-1] *= 2.0  # last coordinate ranges over [0, 2pi]
        xi, jac = polar_map(angles)
        assert abs(np.linalg.norm(xi) - 1.0) < 1e-12
        assert 0.0 <= jac <= 1.0


class TestRadialFromDensity:
    def test_plane_isotropic(self):
        dspec = density_spec(
            lambda p: np.linalg.norm(p, axis=1) ** -3.5, 2, (3.5, 3.5)
        )
        rho = radial_from_density(dspec, np.array([0.6, 0.8]))
        r = np.array([0.5, 1.0, 2.0])
        assert np.allclose(rho.density(r), r**-2.5)

    def test_plane_cosine_at_zero_angle(self, cos_density_spec):
        rho = radial_from_density(cos_density_spec, np.array([1.0, 0.0]))
        r = np.array([0.5, 1.0, 2.0])
        assert np.allclose(rho.density(r), 1.5 * r**-2.5)

    def test_three_d_pole(self):
        dspec = density_spec(
            lambda p: np.linalg.norm(p, axis=1) ** -4.5, 3, (4.5, 4.5)
        )
        rho = radial_from_density(dspec, np.array([0.0, 0.0, 1.0]))
        r = np.array([0.5, 1.0, 2.0])
        assert np.allclose(rho.density(r), r**-2.5)

    def test_three_d_axis(self):
        # the surface measure carries the polar Jacobian, so the ray
        # through the axis e1 (a polar angle 0) keeps its full density
        dspec = density_spec(
            lambda p: np.linalg.norm(p, axis=1) ** -4.5, 3, (4.5, 4.5)
        )
        rho = radial_from_density(dspec, np.array([1.0, 0.0, 0.0]))
        r = np.array([0.5, 1.0, 2.0])
        assert np.allclose(rho.density(r), r**-2.5)

    def test_three_d_angular_mass_is_sphere_area(self):
        dspec = density_spec(lambda p: np.linalg.norm(p, axis=1) ** -4.5, 3)
        report = check_structure(induced_spec(dspec))
        assert report.item("angular_mass_positive").value == pytest.approx(
            4.0 * np.pi, rel=1e-12
        )

    def test_rejects_non_unit_direction(self):
        dspec = density_spec(lambda p: np.ones(p.shape[0]), 2)
        with pytest.raises(ValueError):
            radial_from_density(dspec, np.array([1.0, 1.0]))


class TestSphericalIntegrate:
    def test_martingale_weight_closed_form(self):
        # int (r^2 wedge r) r^(-2.5) dr = 4 on every ray, angular mass 2pi
        uniform = SphericalMeasure.from_angular(2, lambda a: np.ones(a.shape[0]))
        spec = stable_spec(1.5, uniform)

        def f(pts):
            n = np.linalg.norm(pts, axis=1)
            return np.minimum(n * n, n)

        val = spherical_integrate(f, spec)
        assert val == pytest.approx(8.0 * np.pi, rel=1e-12)

    def test_sign_changing_weight_closed_form(self):
        # 2pi int (1 - r) (r^2 wedge r) e^(-r) r^(-2.5) dr
        #   = 2pi [g(1/2, 1) - g(3/2, 1) + G(-1/2, 1) - G(1/2, 1)]
        # in lower (g) and upper (G) incomplete gamma functions
        uniform = SphericalMeasure.from_angular(2, lambda a: np.ones(a.shape[0]))
        spec = stable_spec(1.5, uniform)

        def f(pts):
            n = np.linalg.norm(pts, axis=1)
            return (1.0 - n) * np.minimum(n * n, n) * np.exp(-n)

        root_pi = np.sqrt(np.pi)
        expected = 2.0 * np.pi * (
            0.5 * root_pi * math.erf(1.0) + 3.0 * np.exp(-1.0) - 3.0 * root_pi * math.erfc(1.0)
        )
        assert spherical_integrate(f, spec) == pytest.approx(expected, rel=1e-12)

    def test_zero_integrand(self, example_spec):
        assert spherical_integrate(lambda pts: np.zeros(pts.shape[0]), example_spec) == 0.0

    def test_atomic_dirac_quadratic(self):
        sph = SphericalMeasure.from_atoms([[1.0, 0.0], [0.0, 1.0]], [2.0, 3.0])
        spec = LevySpec(
            2, np.zeros((2, 2)), sph, lambda xi: RadialMeasure(atoms=((1.0, 1.0),))
        )
        u = np.array([0.8, -0.6])

        def f(pts):
            return (pts @ u) ** 2

        # sum_i w_i <u, xi_i>^2 with unit radial atoms
        expected = 2.0 * 0.8**2 + 3.0 * 0.6**2
        assert spherical_integrate(f, spec) == pytest.approx(expected, rel=1e-12)


def _per_direction_integral(f, spec):
    """spherical_integrate direction by direction: one radial_integral
    per direction, summed as spherical_integrate sums them."""

    def batch(dirs):
        vals = []
        for xi in dirs:
            weight = lambda r, _xi=xi: f(r[:, None] * _xi[None, :])  # noqa: E731
            vals.append(radial_integral(spec.radial(xi), weight).value)
        return np.array(vals)

    return integrate_over_directions(spec.spherical, batch)


class TestDirectionsByMeasure:
    """spherical_integrate makes one radial_columns pass per radial
    measure; its value equals the direction-by-direction one to the bit."""

    @staticmethod
    def f(pts):
        n = np.linalg.norm(pts, axis=1)
        return (1.0 + pts[:, 0]) * np.minimum(n * n, n) * np.exp(-n)

    def test_seeded_atoms_share_a_measure(self):
        rng = np.random.default_rng(1)
        dirs = rng.standard_normal((16, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        spec = stable_spec(1.5, SphericalMeasure.from_atoms(dirs, rng.uniform(0.5, 1.5, 16)))
        assert spherical_integrate(self.f, spec) == _per_direction_integral(self.f, spec)

    def test_angular_uniform_stable_spec(self):
        uniform = SphericalMeasure.from_angular(2, lambda a: np.ones(a.shape[0]))
        spec = stable_spec(1.5, uniform)
        assert spherical_integrate(self.f, spec) == _per_direction_integral(self.f, spec)

    def test_one_measure_per_direction(self, cos_density_spec):
        spec = induced_spec(cos_density_spec)
        assert spherical_integrate(self.f, spec) == _per_direction_integral(self.f, spec)

    def test_a_divergent_direction_is_named(self):
        sph = SphericalMeasure.from_atoms([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        laws = {0: stable_spec(1.5, sph).radial([1.0, 0.0]), 1: RadialMeasure(density=lambda r: r**-3.5)}
        spec = LevySpec(2, np.zeros((2, 2)), sph, lambda xi: laws[int(xi[1])])
        with pytest.raises(DivergentIntegral, match=r"along \[0\. 1\.\]"):
            spherical_integrate(lambda pts: np.minimum(np.sum(pts * pts, axis=1), 1.0), spec)


def smooth_window(r, lo, hi):
    """C-infinity bump supported on (lo, hi), vectorized in r."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = (r > lo) & (r < hi)
    t = (r[inside] - lo) * (hi - r[inside])
    out[inside] = np.exp(-1.0 / t)
    return out


def cartesian_reference(g, f, dim, box, n_nodes):
    """Tensor Gauss-Legendre integral of f*g over [-box, box]^dim."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    x = box * x
    w = box * w
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    pts = np.stack([grid.ravel() for grid in grids], axis=-1)
    wmesh = np.meshgrid(*([w] * dim), indexing="ij")
    wall = np.prod(np.stack([m.ravel() for m in wmesh], axis=-1), axis=-1)
    return float(np.sum(f(pts) * g(pts) * wall))


@pytest.mark.parametrize("dim", [2, 3])
def test_matches_cartesian_integration(dim):
    # smoothly truncated density between radii 0.5 and 3
    power = 3.5 if dim == 2 else 4.5

    def g(pts):
        r = np.linalg.norm(pts, axis=1)
        r = np.maximum(r, 1e-300)
        return smooth_window(r, 0.5, 3.0) * r**-power

    def f(pts):
        return 1.0 / (1.0 + np.sum(pts * pts, axis=1))

    dspec = density_spec(g, dim)
    spec = induced_spec(dspec)
    spherical = spherical_integrate(f, spec)
    cartesian = cartesian_reference(g, f, dim, 3.0, 120 if dim == 2 else 80)
    assert abs(spherical - cartesian) < 1e-3 * abs(cartesian)
    if dim == 3:
        # f is radial, so the d = 3 value is exactly twice the d = 2 one:
        # surface measures 4pi vs 2pi against the same radial integral
        assert spherical == pytest.approx(
            2.0 * spherical_integrate(f, induced_spec(density_spec(
                lambda pts: smooth_window(
                    np.maximum(np.linalg.norm(pts, axis=1), 1e-300), 0.5, 3.0
                ) * np.maximum(np.linalg.norm(pts, axis=1), 1e-300) ** -3.5,
                2,
            ))),
            rel=1e-6,
        )


def test_uniform_angle_grid_covers_axes():
    dirs, angles, jac = uniform_angle_grid(2, 8)
    assert dirs.shape == (8, 2)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0)
    # periodic axis omits the duplicate endpoint and starts on e1
    assert np.allclose(angles.ravel(), np.arange(8) * np.pi / 4.0)
    assert np.allclose(dirs[0], [1.0, 0.0])
    assert np.allclose(jac, 1.0)
    # inclination axes keep both endpoints so poles are scanned
    _, angles3, _ = uniform_angle_grid(3, 5)
    assert angles3[:, 0].min() == 0.0
    assert angles3[:, 0].max() == pytest.approx(np.pi)
