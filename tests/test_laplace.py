"""Compensated-exponential kernel and Laplace exponents, against the
closed stable forms and the scaling bounds they must satisfy."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma as gamma_fn

from levyreduce import (
    AffinityViolation,
    DivergentIntegral,
    LevySpec,
    NegativeDirection,
    RadialMeasure,
    SphericalMeasure,
    VolatilityFunction,
    compensated_exp,
    improper_value,
    integrate_over_directions,
    laplace_jump,
    laplace_radial,
    laplace_total,
    power_radial,
    radial_integral,
    stable_coefficient,
    stable_exponent,
    stable_spec,
    tabulated_radial,
)

from levyreduce.quadrature import REL_TOL
from levyreduce.reduction import extract_affine_exponents

from conftest import C_12, C_15


class TestKernel:
    def test_values(self):
        assert compensated_exp(0.0) == 0.0
        assert compensated_exp(1.0) == pytest.approx(np.exp(-1.0), rel=1e-15)
        assert compensated_exp(2.0) == pytest.approx(np.exp(-2.0) + 1.0, rel=1e-15)

    def test_small_argument_series(self):
        z = 1e-8
        assert compensated_exp(z) == pytest.approx(0.5 * z * z, rel=1e-6)

    def test_vectorized(self):
        z = np.array([0.0, 1e-9, 1.0, 30.0])
        vals = compensated_exp(z)
        assert vals.shape == z.shape
        assert np.all(np.diff(vals) > 0)  # strictly increasing

    def test_two_dimensional_argument_equals_its_flattened_result(self):
        # the shared quadrature panels evaluate H on (columns, nodes)
        z = np.r_[np.geomspace(1e-9, 60.0, 37), 0.0, 1e-4, 9.99e-5].reshape(5, 8)
        np.testing.assert_array_equal(
            compensated_exp(z), compensated_exp(z.ravel()).reshape(z.shape)
        )

    @settings(max_examples=200, deadline=None)
    @given(
        z=st.floats(min_value=0.0, max_value=50.0),
        t=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scaling_bounds(self, z, t):
        # min(1, t^2) H(z) <= H(tz) <= max(1, t^2) H(z)
        h, ht = compensated_exp(z), compensated_exp(t * z)
        slack = 1e-12 * max(1.0, h, ht)
        assert min(1.0, t * t) * h <= ht + slack
        assert ht <= max(1.0, t * t) * h + slack


class TestStableCoefficient:
    def test_closed_forms(self):
        assert stable_coefficient(1.5) == pytest.approx(np.sqrt(np.pi) / 0.75, rel=1e-14)
        assert stable_coefficient(1.2) == pytest.approx(gamma_fn(0.8) / 0.24, rel=1e-14)
        assert stable_coefficient(1.5) == pytest.approx(C_15, rel=1e-14)
        assert stable_coefficient(1.2) == pytest.approx(C_12, rel=1e-14)

    def test_quadrature_identity(self):
        # int_0^inf H(v) v^(-1-alpha) dv reproduces the coefficient
        alpha = 1.5
        val = improper_value(lambda v: compensated_exp(v) * v ** (-1.0 - alpha))
        assert val == pytest.approx(stable_coefficient(alpha), rel=1e-8)

    def test_rejects_boundary(self):
        for alpha in (1.0, 2.0, 0.5, 2.5):
            with pytest.raises(ValueError):
                stable_coefficient(alpha)


class TestLaplaceRadial:
    def test_stable_closed_form(self):
        # J(b) = c_alpha b^alpha over six decades of b
        b = np.logspace(-3.0, 3.0, 61)
        for alpha in (1.1, 1.5, 1.9):
            exact = stable_coefficient(alpha) * b**alpha
            np.testing.assert_allclose(laplace_radial(power_radial(alpha), b), exact, rtol=1e-10)

    @pytest.mark.parametrize("alpha", [1.5, 1.9])
    def test_small_argument_holds_relative_accuracy(self, alpha):
        # J(1e-4) is below 1e-6: its tail closes to REL_TOL of its own
        # magnitude, not to an absolute floor
        j = laplace_radial(power_radial(alpha), 1e-4)
        assert j == pytest.approx(stable_coefficient(alpha) * 1e-4**alpha, rel=1e-10, abs=0.0)

    def test_zero_argument(self):
        assert laplace_radial(power_radial(1.5), 0.0) == 0.0
        assert laplace_radial(RadialMeasure(atoms=((1.0, 1.0),)), 0.0) == 0.0

    def test_atom_exact(self):
        val = laplace_radial(RadialMeasure(atoms=((1.0, 1.0),)), 2.0)
        assert val == pytest.approx(np.exp(-2.0) + 1.0, rel=1e-14)

    def test_monotone_and_convex(self):
        b = np.linspace(0.1, 8.0, 25)
        j = np.array([laplace_radial(power_radial(1.3), bb) for bb in b])
        assert np.all(np.diff(j) > 0)
        assert np.all(np.diff(j, 2) > -1e-12)

    @pytest.mark.parametrize(
        "rho",
        [
            power_radial(1.5),
            power_radial(1.2, scale=0.7),
            RadialMeasure(atoms=((0.5, 2.0), (3.0, 0.25))),
        ],
        ids=["stable15", "stable12", "atoms"],
    )
    def test_scaling_bounds_per_measure(self, rho):
        rng = np.random.default_rng(7)
        bs = rng.uniform(0.05, 20.0, size=12)
        ts = np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=12))
        for b, t in zip(bs, ts):
            j, jt = laplace_radial(rho, b), laplace_radial(rho, t * b)
            slack = 1e-9 * max(1.0, j, jt)
            assert min(1.0, t * t) * j <= jt + slack
            assert jt <= max(1.0, t * t) * j + slack


class TestLaplaceJump:
    def test_zero_argument(self, example_spec):
        assert laplace_jump(example_spec, np.zeros(2)) == 0.0

    def test_two_atoms_diagonal(self):
        sph = SphericalMeasure.from_atoms([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        spec = stable_spec(1.5, sph)
        val = laplace_jump(spec, np.array([1.0, 1.0]))
        assert val == pytest.approx(2.0 * C_15, rel=1e-8)

    def test_two_atoms_axis(self):
        sph = SphericalMeasure.from_atoms([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        spec = stable_spec(1.5, sph)
        val = laplace_jump(spec, np.array([2.0, 0.0]))
        assert val == pytest.approx(C_15 * 2.0**1.5, rel=1e-8)

    def test_matches_radial_slice_for_single_atom(self):
        sph = SphericalMeasure.from_atoms([[0.6, 0.8]], [1.0])
        spec = stable_spec(1.4, sph)
        xi = np.array([0.6, 0.8])
        for b in (0.3, 1.0, 5.0):
            whole = laplace_jump(spec, b * xi)
            slice_ = laplace_radial(spec.radial(xi), b)
            assert whole == pytest.approx(slice_, rel=1e-9)

    def test_negative_direction_rejected(self, example_spec):
        with pytest.raises(NegativeDirection):
            laplace_jump(example_spec, np.array([-1.0, 0.0]))


class TestLaplaceTotal:
    def test_pure_diffusion(self, two_atom_spherical):
        spec = LevySpec(2, np.eye(2), two_atom_spherical, lambda xi: RadialMeasure())
        assert laplace_total(spec, np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_no_diffusion_equals_jump(self, example_spec):
        z = np.array([0.7, 1.3])
        assert laplace_total(example_spec, z) == laplace_jump(example_spec, z)

    def test_sum_of_parts(self):
        sph = SphericalMeasure.from_atoms([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        jump_only = stable_spec(1.5, sph)
        spec = LevySpec(2, np.eye(2), sph, jump_only.radial_family)
        val = laplace_total(spec, np.array([1.0, 1.0]))
        assert val == pytest.approx(1.0 + 2.0 * C_15, rel=1e-8)


class TestStableExponent:
    def test_zero_argument(self, two_atom_spherical):
        assert stable_exponent(two_atom_spherical, 1.5, np.zeros(2)) == 0.0

    def test_two_atoms(self):
        sph = SphericalMeasure.from_atoms([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0])
        val = stable_exponent(sph, 1.5, np.array([1.0, 1.0]))
        assert val == pytest.approx(2.0 * C_15, rel=1e-12)

    def test_matches_laplace_jump_on_stable_spec(self, two_atom_spherical):
        spec = stable_spec(1.5, two_atom_spherical)
        rng = np.random.default_rng(3)
        for _ in range(5):
            z = rng.uniform(0.1, 4.0, size=2)  # admissible: nonnegative products
            closed = stable_exponent(two_atom_spherical, 1.5, z)
            quad = laplace_jump(spec, z)
            assert quad == pytest.approx(closed, rel=1e-6)

    def test_angular_density_form(self):
        uniform = SphericalMeasure.from_angular(2, lambda a: np.ones(a.shape[0]))
        # int_0^2pi max(cos t, 0)^alpha dt for z = e1, restricted measure
        half = SphericalMeasure.from_angular(
            2, lambda a: (np.cos(a[:, 0]) > 0).astype(float)
        )
        val = stable_exponent(half, 1.5, np.array([1.0, 0.0]))
        nodes = np.linspace(-np.pi / 2, np.pi / 2, 20001)
        ref = C_15 * np.trapezoid(np.cos(nodes) ** 1.5, nodes)
        assert val == pytest.approx(ref, rel=1e-4)
        assert stable_exponent(uniform, 1.5, np.zeros(2)) == 0.0


_R_TABLE = np.geomspace(1e-6, 1e6, 400)
ARRAY_MEASURES = [
    power_radial(1.5),
    RadialMeasure(atoms=((0.5, 2.0), (3.0, 0.25))),
    tabulated_radial(_R_TABLE, _R_TABLE**-2.5),
]
ARRAY_IDS = ["power", "atoms", "tabulated"]
_TEMPERED_R = np.geomspace(1e-4, 50.0, 400)
COLUMN_MEASURES = [
    power_radial(1.5),
    tabulated_radial(_TEMPERED_R, _TEMPERED_R**-2.5 * np.exp(-_TEMPERED_R)),
    RadialMeasure(density=power_radial(1.5).density, atoms=((0.5, 2.0), (3.0, 0.25))),
]
COLUMN_IDS = ["power", "tempered-no-hints", "atoms-and-density"]


def _quarter_disc_spec():
    """Smooth angular density on the first quadrant with the cosine
    fixture's radial scales, so every argument in the closed positive
    quadrant is admissible."""
    spherical = SphericalMeasure.from_angular(
        2,
        lambda a: (np.clip(np.cos(a[:, 0]), 0, None) * np.clip(np.sin(a[:, 0]), 0, None))
        ** 2,
    )
    return LevySpec(
        2,
        np.zeros((2, 2)),
        spherical,
        lambda xi: power_radial(1.5, scale=1.0 + 0.5 * float(xi[0])),
    )


class TestArrayArguments:
    @pytest.mark.parametrize("rho", ARRAY_MEASURES, ids=ARRAY_IDS)
    def test_radial_grid_equals_pointwise(self, rho):
        grids = [
            np.array(0.7),
            np.array([0.0, 0.3, 2.0, 0.3, 11.0]),
            np.array([[1.5, 0.0, 1.5], [40.0, 1e-3, 2.0]]),
        ]
        for b in grids:
            out = laplace_radial(rho, b)
            ref = np.array([laplace_radial(rho, float(v)) for v in b.ravel()])
            assert np.shape(out) == b.shape
            np.testing.assert_array_equal(np.ravel(out), ref)
        assert isinstance(laplace_radial(rho, 0.7), float)

    @pytest.mark.parametrize("rho", ARRAY_MEASURES, ids=ARRAY_IDS)
    def test_lower_cutoff_matches_radial_integral(self, rho):
        eps = 3e-3
        for b in (0.1, 2.0, 50.0):
            ref = radial_integral(rho, lambda r: compensated_exp(b * r), lo=eps).value
            assert laplace_radial(rho, np.array([b]), lo=eps)[0] == ref

    def test_moment_failure_raises_on_a_grid(self):
        with pytest.raises(DivergentIntegral):
            laplace_radial(power_radial(2.5), np.array([0.0, 1.0, 2.0]))

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            laplace_radial(power_radial(1.5), np.array([1.0, -1.0]))

    def test_non_finite_argument_rejected(self, example_spec, two_atom_spherical):
        # bad input, not a failed moment of a valid measure
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                laplace_radial(power_radial(1.5), bad)
            with pytest.raises(ValueError, match="finite"):
                laplace_radial(power_radial(1.5), np.array([1.0, bad]))
            with pytest.raises(ValueError, match="finite"):
                laplace_jump(example_spec, [bad, 1.0])
            with pytest.raises(ValueError, match="finite"):
                stable_exponent(two_atom_spherical, 1.5, np.array([[1.0, 1.0], [1.0, bad]]))

    @pytest.mark.parametrize("rho", COLUMN_MEASURES, ids=COLUMN_IDS)
    @pytest.mark.parametrize("lo", [0.0, 3e-3])
    def test_columns_equal_column_by_column(self, rho, lo):
        b = np.r_[0.0, np.geomspace(1e-3, 1e3, 30), 1.0, 1.0, 0.0]
        out = laplace_radial(rho, b, lo=lo)
        ref = np.array([laplace_radial(rho, float(v), lo=lo) for v in b])
        np.testing.assert_array_equal(out, ref)

    def test_one_column_pass_per_call(self, monkeypatch):
        # the panel passes, on shared and on per-column panels, do not
        # grow with the number of distinct b
        from levyreduce import quadrature

        calls = []
        for name in ("_panel_block", "_shared_block"):
            block = getattr(quadrature, name)
            monkeypatch.setattr(
                quadrature, name, lambda *a, _b=block: calls.append(1) or _b(*a)
            )

        def passes(n):
            calls.clear()
            laplace_radial(power_radial(1.5), np.geomspace(1e-3, 1e3, n))
            return len(calls)

        assert passes(400) <= 2 * passes(4)

    def test_density_sees_each_shared_node_once(self):
        # the density runs on the nodes the columns share, not per column
        base = power_radial(1.5)
        radii = []
        rho = RadialMeasure(density=lambda r: radii.append(np.size(r)) or base.density(r))

        def evaluated(n):
            radii.clear()
            laplace_radial(rho, np.geomspace(1e-3, 1e3, n))
            return sum(radii)

        assert evaluated(400) <= 2 * evaluated(4)

    def test_columns_one_past_the_slice_bound(self):
        # an extension decade has 32 nodes, so its shared panels take a
        # second column slice here, and the base window 65 slices
        from levyreduce import quadrature

        m = quadrature._SLICE // (quadrature._GL_X.size * quadrature._PANELS_PER_DECADE) + 1
        rho = power_radial(1.5)
        b = np.geomspace(1e-3, 1e3, m)
        ref = np.array([laplace_radial(rho, float(v)) for v in b])
        np.testing.assert_array_equal(laplace_radial(rho, b), ref)

    def test_peak_memory_does_not_grow_with_the_grid(self):
        # 25,600 columns in one unsliced pass held about 600 MB of
        # temporaries; passes and slices bound them
        rho = power_radial(1.5)
        b = np.geomspace(1e-3, 1e3, 25_600)
        laplace_radial(rho, b[:8])
        tracemalloc.start()
        try:
            laplace_radial(rho, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6

    def test_per_column_refinement_slices_round_as_one_pass(self, monkeypatch):
        # the table's kinks refine column by column: 40 values of b make a
        # flat pass of 27 920 panels, which goes to f in slices of whole
        # columns; each column rounds as in the unsliced pass
        from levyreduce import quadrature

        rho = COLUMN_MEASURES[1]
        b = np.geomspace(1e-2, 1e2, 40)
        sliced = laplace_radial(rho, b)
        widest = []
        block = quadrature._panel_slice
        monkeypatch.setattr(
            quadrature, "_panel_slice",
            lambda f, col, *a: widest.append(col.size) or block(f, col, *a),
        )
        monkeypatch.setattr(quadrature, "_SLICE", 1 << 40)
        np.testing.assert_array_equal(laplace_radial(rho, b), sliced)
        assert max(widest) * 16 > 1 << 15

    def test_peak_memory_of_the_tempered_reduction(self):
        # the reduction of the tempered table on the axis atoms refuses; its
        # largest flat pass of 139 544 panels peaked at 105 MB unsliced
        spec = LevySpec(
            2, np.zeros((2, 2)), SphericalMeasure.from_atoms(np.eye(2), [0.5, 0.5]),
            lambda xi: COLUMN_MEASURES[1],
        )
        G = VolatilityFunction.power(2.0 / 3.0, [1.0, 1.0])
        tracemalloc.start()
        try:
            with pytest.raises(AffinityViolation):
                extract_affine_exponents(spec, G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_moment_failure_names_a_b_of_the_grid(self):
        grid = np.array([0.0, 0.7, 2.0])
        with pytest.raises(DivergentIntegral, match="divergent") as err:
            laplace_radial(power_radial(2.5), grid)
        named = re.search(r"at b=(\S+) did not converge", str(err.value))
        assert named is not None and float(named.group(1)) in grid[1:]

    def test_stack_on_atoms_is_exact(self):
        sph = SphericalMeasure.from_atoms(
            [[1.0, 0.0], [0.6, 0.8], [0.0, 1.0]], [0.5, 1.0, 0.25]
        )
        spec = stable_spec(1.5, sph)
        z = np.array([[[0.3, 1.7], [0.0, 0.0], [2.0, 0.5]], [[1.0, 1.0], [4.0, 0.1], [0.2, 0.2]]])
        jump = laplace_jump(spec, z)
        closed = stable_exponent(sph, 1.5, z)
        assert jump.shape == closed.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            assert jump[idx] == laplace_jump(spec, z[idx])
            assert closed[idx] == stable_exponent(sph, 1.5, z[idx])
        np.testing.assert_allclose(jump, closed, rtol=1e-6)

    def test_stack_on_angular_density_within_tolerance(self):
        spec = _quarter_disc_spec()
        z = np.array([[1.0, 0.0], [0.5, 2.0], [3.0, 1.0], [0.0, 0.0]])
        rel = 10 * REL_TOL
        jump = laplace_jump(spec, z)
        closed = stable_exponent(spec.spherical, 1.5, z)
        for k, row in enumerate(z):
            assert jump[k] == pytest.approx(laplace_jump(spec, row), rel=rel)
            assert closed[k] == pytest.approx(stable_exponent(spec.spherical, 1.5, row), rel=rel)
        assert laplace_total(spec, z) == pytest.approx(jump, rel=1e-15)

    def test_stack_with_a_row_outside_the_support_raises(self, example_spec, two_atom_spherical):
        z = np.array([[1.0, 1.0], [-1.0, 0.5], [2.0, 0.0]])
        with pytest.raises(NegativeDirection):
            laplace_jump(example_spec, z)
        with pytest.raises(NegativeDirection):
            stable_exponent(two_atom_spherical, 1.5, z)


def _per_direction_jump(spec, z):
    """laplace_jump column by column: one scalar laplace_radial per
    direction and argument, summed over the directions as laplace_jump
    sums them."""

    def per_direction(dirs):
        inner = np.clip(z @ dirs.T, 0.0, None)
        out = np.empty(inner.shape)
        for idx in np.ndindex(inner.shape):
            out[idx] = laplace_radial(spec.radial(dirs[idx[-1]]), float(inner[idx]))
        return out

    return integrate_over_directions(spec.spherical, per_direction)


def _seeded_atoms_spec(n_atoms=16, d=3, seed=1):
    """Stable jumps on seeded atoms in the positive orthant, every atom
    under the same radial measure."""
    rng = np.random.default_rng(seed)
    dirs = np.abs(rng.standard_normal((n_atoms, d)))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return stable_spec(1.5, SphericalMeasure.from_atoms(dirs, rng.uniform(0.5, 1.5, n_atoms)))


class TestJumpByMeasure:
    """laplace_jump makes one laplace_radial pass per radial measure;
    every value equals the direction-by-direction, column-by-column sum."""

    def test_seeded_atoms_in_three_dimensions(self):
        spec = _seeded_atoms_spec()
        z = np.geomspace(1e-2, 1e2, 6)[None, :, None] * np.array([[1.0, 1.0, 1.0], [0.3, 2.0, 0.7]])[:, None, :]
        np.testing.assert_array_equal(laplace_jump(spec, z), _per_direction_jump(spec, z))

    def test_axis_atoms_share_their_arguments(self, example_spec):
        z = np.geomspace(1e-2, 1e2, 9)[:, None] * np.array([1.0, 1.0])
        np.testing.assert_array_equal(laplace_jump(example_spec, z), _per_direction_jump(example_spec, z))

    def test_a_family_of_distinct_measures(self):
        # the cosine scales 1 + xi_1 / 2: one measure per direction
        spec = _quarter_disc_spec()
        z = np.array([[1.0, 0.0], [0.5, 0.5], [2.0, 3.0]])
        np.testing.assert_array_equal(laplace_jump(spec, z), _per_direction_jump(spec, z))

    def test_angular_uniform_stable_spec(self):
        # uniform on the first quadrant, so the arguments there are admissible
        quadrant = SphericalMeasure.from_angular(2, lambda a: (a[:, 0] <= 0.5 * np.pi) * 1.0)
        spec = stable_spec(1.5, quadrant)
        z = np.array([[0.0, 0.0], [0.7, 0.0], [3.0, 1.0]])
        np.testing.assert_array_equal(laplace_jump(spec, z), _per_direction_jump(spec, z))
