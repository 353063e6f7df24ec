"""Polar geometry: the sphere parametrisation, induced radial measures,
and integration of functions against a decomposed jump measure.

The polar map on P = [0, pi]^(d-2) x [0, 2pi] is

    xi_1 = cos a_1
    xi_2 = sin a_1 cos a_2
    ...
    xi_d = sin a_1 ... sin a_{d-2} sin a_{d-1}

with volume Jacobian sin^{d-2}(a_1) sin^{d-3}(a_2) ... sin(a_{d-2}).
A jump measure given by a Cartesian density g is the decomposition
whose spherical part is the surface measure (the Jacobian as angular
density on P) and whose radial measures are

    gamma_xi(dr) = g(r xi) r^{d-1} dr.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DivergentIntegral
from .measures import (
    DensityLevySpec,
    LevySpec,
    RadialMeasure,
    SphericalMeasure,
    as_unit_direction,
    radial_columns,
)
from .quadrature import CONVERGED

_GL_X32, _GL_W32 = np.polynomial.legendre.leggauss(32)
# agreement of two successive angular levels that ends the refinement
_ANGULAR_REL_TOL = 1e-8


def polar_map(angles):
    """Map polar parameters to (directions, jacobians).

    angles is (d-1,) or (m, d-1); returns ((m, d) or (d,), (m,) or float).
    The Jacobian is the product of sine powers; it is 1 in the plane.
    """
    angles = np.asarray(angles, dtype=float)
    single = angles.ndim == 1
    a = np.atleast_2d(angles)
    m, dm1 = a.shape
    d = dm1 + 1
    xi = np.empty((m, d))
    cumsin = np.ones(m)
    for j in range(dm1):
        xi[:, j] = cumsin * np.cos(a[:, j])
        cumsin = cumsin * np.sin(a[:, j])
    xi[:, d - 1] = cumsin
    jac = np.ones(m)
    for k in range(d - 2):
        jac = jac * np.sin(a[:, k]) ** (d - 2 - k)
    if single:
        return xi[0], float(jac[0])
    return xi, jac


def radial_from_density(dspec: DensityLevySpec, xi) -> RadialMeasure:
    """The radial measure induced on the ray through xi by a density g."""
    xi = as_unit_direction(xi)
    d = dspec.dimension
    if xi.shape != (d,):
        raise ValueError("direction dimension mismatch")
    power = d - 1

    def dens(r, _xi=xi, _p=power, _g=dspec):
        r = np.asarray(r, dtype=float)
        pts = r[:, None] * _xi[None, :]
        return _g(pts) * r**_p

    return RadialMeasure(density=dens)


def induced_spec(dspec: DensityLevySpec) -> LevySpec:
    """The decomposed form of a density spec: the surface measure, given
    by the polar Jacobian on the box, with radial_from_density on each ray."""
    d = dspec.dimension
    sph = SphericalMeasure.from_angular(d, lambda a: polar_map(np.atleast_2d(a))[1])
    return LevySpec(
        d,
        np.zeros((d, d)),
        sph,
        lambda xi, _s=dspec: radial_from_density(_s, xi),
    )


def angular_grid(measure: SphericalMeasure, n_per_dim: int = 32):
    """Gauss-Legendre tensor grid on the polar box of an angular measure.

    Returns (directions, weights, angles) where weights already include
    the angular density, so sums approximate integrals d(lambda).
    """
    if measure.is_atomic:
        raise ValueError("angular_grid applies to angular-density measures")
    x, w = np.polynomial.legendre.leggauss(n_per_dim)
    grids, wgts = [], []
    for lo, hi in measure.angular_box():
        grids.append(0.5 * (hi + lo) + 0.5 * (hi - lo) * x)
        wgts.append(0.5 * (hi - lo) * w)
    mesh = np.meshgrid(*grids, indexing="ij")
    angles = np.stack([m.ravel() for m in mesh], axis=-1)
    wmesh = np.meshgrid(*wgts, indexing="ij")
    wall = np.prod(np.stack([m.ravel() for m in wmesh], axis=-1), axis=-1)
    dens = np.asarray(measure.angular_density(angles), dtype=float)
    dirs, _ = polar_map(angles)
    return dirs, wall * dens, angles


def _sample_directions(spherical: SphericalMeasure, n_angular: int = 16):
    """Representative (directions, weights) rows for structural sweeps:
    the atoms themselves, or the angular Gauss grid whose weights sum to
    the angular mass."""
    if spherical.is_atomic:
        return spherical.directions, np.asarray(spherical.weights, float)
    dirs, wgts, _ = angular_grid(spherical, n_angular)
    return dirs, wgts


def _support_directions(spherical: SphericalMeasure) -> np.ndarray:
    """The sampled directions that carry mass, for sign checks: those of
    positive weight.  A sector where the angular density vanishes
    carries no jumps."""
    dirs, wgts = _sample_directions(spherical, 64)
    return dirs[wgts > 0]


def _measure_groups(spec: LevySpec, dirs) -> dict[RadialMeasure, list[int]]:
    """The rows of dirs grouped by their radial measure, in order of
    first appearance.  The groups are keyed on the measure itself and
    hold it alive, so a freed measure can never stand in for a live one."""
    groups: dict[RadialMeasure, list[int]] = {}
    for k, xi in enumerate(dirs):
        groups.setdefault(spec.radial(xi), []).append(k)
    return groups


def _per_measure(spec: LevySpec, dirs, fn) -> list:
    """[fn(spec.radial(xi)) for xi in dirs], with fn run once per distinct
    radial measure."""
    out = [None] * len(dirs)
    for gamma, ks in _measure_groups(spec, dirs).items():
        value = fn(gamma)
        for k in ks:
            out[k] = value
    return out


def uniform_angle_grid(dimension: int, n_per_dim: int):
    """Uniform grids over the polar box for sup/inf scans.

    Inclination axes [0, pi] include both endpoints; the periodic axis
    [0, 2pi) omits the duplicate endpoint, so even n hits 0 and pi
    exactly, which matters when scanning extremes of cosine profiles.
    """
    box = ((0.0, np.pi),) * (dimension - 2) + ((0.0, 2.0 * np.pi),)
    axes = [
        np.linspace(lo, hi, n_per_dim, endpoint=hi < 2.0 * np.pi)
        for lo, hi in box
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    angles = np.stack([m.ravel() for m in mesh], axis=-1)
    dirs, jac = polar_map(angles)
    return dirs, angles, jac


def _as_result(val: np.ndarray):
    """A float for 0-d values, the array otherwise."""
    return float(val) if val.ndim == 0 else val


def integrate_over_directions(measure: SphericalMeasure, fn):
    """Integrate fn(xi) lambda(dxi) with one-shot angular refinement.

    fn receives an (m, d) array of directions and returns values of
    shape (..., m), the direction axis last; the result has shape (...)
    and is a float when fn returns (m,).  For atomic measures the sum is
    exact; for angular densities the Gauss-Legendre grid is doubled
    from 16 nodes per axis until two successive levels agree to 1e-8
    in every entry (or 128 nodes are reached, keeping the finest values).
    """
    if measure.is_atomic:
        vals = np.asarray(fn(measure.directions), dtype=float)
        return _as_result(np.sum(vals * measure.weights, axis=-1))

    prev = None
    for n in (16, 32, 64, 128):
        dirs, wgts, _ = angular_grid(measure, n)
        val = np.sum(np.asarray(fn(dirs), dtype=float) * wgts, axis=-1)
        if prev is not None and np.all(
            np.abs(val - prev) <= _ANGULAR_REL_TOL * np.maximum(np.abs(val), 1e-300)
        ):
            break
        prev = val
    return _as_result(val)


def spherical_integrate(f, spec: LevySpec) -> float:
    """int f(y) nu(dy) for the jump measure of a decomposed spec.

    f maps an (n, d) array of points to values and may change sign; it
    must decay fast enough for the radial integrals to converge, else
    DivergentIntegral propagates.  The directions that share a radial
    measure are the columns of one radial_columns pass.
    """

    def batch(dirs):
        out = np.empty(len(dirs))
        converged = np.empty(len(dirs), dtype=bool)
        for gamma, ks in _measure_groups(spec, dirs).items():
            rows = dirs[ks]

            def weight(r, col, _rows=rows):
                pts = r[..., None] * _rows[col]
                vals = np.asarray(f(pts.reshape(-1, pts.shape[-1])), dtype=float)
                return vals.reshape(pts.shape[:-1])

            for k, res in zip(ks, radial_columns(gamma, weight, len(ks))):
                out[k], converged[k] = res.value, res.status == CONVERGED
        if not converged.all():
            xi = dirs[np.argmin(converged)]
            raise DivergentIntegral(f"radial integral along {np.round(xi, 6)} did not converge")
        return out

    return integrate_over_directions(spec.spherical, batch)
