"""Laplace exponents of compensated jump measures.

Everything is built from the compensated-exponential kernel

    H(z) = exp(-z) - 1 + z,   z >= 0,

which is nonnegative, increasing and convex, behaves like z^2/2 at the
origin and like z at infinity.  For a radial measure rho the exponent is

    J_rho(b) = int_0^inf H(b r) rho(dr),

finite exactly when rho integrates (r^2 wedge r).  For the stable law
rho(dr) = r^(-1-alpha) dr it has the closed form

    J_rho(b) = stable_coefficient(alpha) * b^alpha,
    stable_coefficient(alpha) = Gamma(2 - alpha) / (alpha (alpha - 1)),

which the quadrature route must reproduce; the pair of routes is the
main internal cross-check of the library.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DivergentIntegral, NegativeDirection
from .measures import LevySpec, RadialMeasure, radial_columns
from .quadrature import CONVERGED
from .spherical import (
    _as_result,
    _measure_groups,
    _support_directions,
    integrate_over_directions,
)

# default evaluation grids for exponent sampling and affinity scans
B_GRID_DEFAULT = np.logspace(-2.0, 2.0, 40)
X_GRID_DEFAULT = np.array([0.25, 0.5, 1.0, 2.0, 4.0])

_SERIES_CUT = 1e-4
_DIRECTION_TOL = 1e-12
# distinct b per quadrature pass: the engine keeps O(columns x panels)
# state and one IntegralResult per column, so larger grids take passes
_PASS_COLUMNS = 4096


def compensated_exp(z):
    """H(z) = exp(-z) - 1 + z, evaluated stably.

    Below 1e-4 the direct form loses to cancellation, so the Taylor
    series z^2/2 - z^3/6 + z^4/24 is used there; its truncation error is
    below 1e-13 relative at the cut.
    """
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    out = np.expm1(-z)
    out += z
    small = np.abs(z) < _SERIES_CUT
    zs = z[small]
    out[small] = zs * zs * (0.5 + zs * (-1.0 / 6.0 + zs * (1.0 / 24.0)))
    return float(out[0]) if scalar else out


def stable_coefficient(alpha: float) -> float:
    """Gamma(2 - alpha) / (alpha (alpha - 1)) for alpha in (1, 2)."""
    if not (1.0 < alpha < 2.0):
        raise ValueError("stable index must lie in (1, 2)")
    return float(math.gamma(2.0 - alpha) / (alpha * (alpha - 1.0)))


def laplace_radial(
    measure: RadialMeasure,
    b,
    *,
    lo: float = 0.0,
):
    """J(b) = int_(lo, inf) H(b r) measure(dr) for b >= 0.

    b is a number or an array; the result has the same shape (a float
    for a number).  The distinct positive b are the columns of one
    quadrature pass (measures.radial_columns), or of several passes of
    at most _PASS_COLUMNS each: H(b r) is evaluated for all of them on
    shared log panels, the measure's density once per shared node, and
    each column keeps its own refinement, extension and divergence
    state, so it gets the value it would get alone.  A measure that
    fails the (r^2 wedge r) moment raises DivergentIntegral naming the
    first b that did not converge.  b must be finite.
    """
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError("the radial Laplace exponent needs finite b")
    if np.any(b < 0):
        raise ValueError("the radial Laplace exponent is defined for b >= 0")
    values, index = np.unique(b, return_inverse=True)
    j = np.zeros(values.shape)
    positive = np.flatnonzero(values > 0.0)
    for start in range(0, positive.size, _PASS_COLUMNS):
        cols = positive[start : start + _PASS_COLUMNS]
        bk = values[cols]
        results = radial_columns(
            measure, lambda r, col: compensated_exp(bk[col] * r), cols.size, lo=lo
        )
        for k, res in zip(cols, results):
            if res.status != CONVERGED:
                raise DivergentIntegral(
                    f"Laplace exponent at b={values[k]} did not converge ({res.status}); "
                    "the measure fails the (r^2 wedge r) moment"
                )
            j[k] = res.value
    return _as_result(j[index].reshape(b.shape))


def _check_support_sign(spherical, z: np.ndarray) -> None:
    """Reject arguments (rows of z) with a negative inner product with a
    direction that carries mass."""
    dirs = _support_directions(spherical)
    inner = z @ dirs.T
    tol = _DIRECTION_TOL * np.maximum(1.0, np.linalg.norm(z, axis=-1))
    bad = inner < -np.expand_dims(tol, -1)
    if np.any(bad):
        worst = dirs[int(np.argmin(np.where(bad, inner, np.inf))) % len(dirs)]
        raise NegativeDirection(
            f"argument has negative inner product with support direction {np.round(worst, 6)}"
        )


def _argument_stack(z, dimension: int) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.ndim == 0 or z.shape[-1] != dimension:
        raise ValueError("argument dimension mismatch")
    if not np.all(np.isfinite(z)):
        raise ValueError("arguments must be finite")
    return z


def laplace_jump(spec: LevySpec, z):
    """Jump part of the Laplace exponent of the driving noise,

        J_X(z) = int_S int_0^inf H(r <z, xi>) gamma_xi(dr) lambda(dxi),

    defined for z with nonnegative inner products on the support of the
    spherical part (NegativeDirection otherwise).  z is one argument of
    shape (d,), giving a float, or a stack (..., d), giving (...).

    The directions are grouped by their radial measure, keyed on the
    measure itself, and each group is one laplace_radial call on the
    inner products of all its directions, so equal arguments of
    different directions share a column.
    """
    z = _argument_stack(z, spec.dimension)
    if not np.any(z):
        return _as_result(np.zeros(z.shape[:-1]))
    _check_support_sign(spec.spherical, z)

    def per_direction(dirs):
        inner = np.clip(z @ dirs.T, 0.0, None)
        out = np.empty(inner.shape)
        for gamma, ks in _measure_groups(spec, dirs).items():
            out[..., ks] = laplace_radial(gamma, inner[..., ks])
        return out

    return integrate_over_directions(spec.spherical, per_direction)


def laplace_total(spec: LevySpec, z):
    """Full driving-noise exponent 0.5 <Qz, z> + J_X(z), on one argument
    or a stack of them like laplace_jump."""
    z = _argument_stack(z, spec.dimension)
    q = np.asarray(spec.wiener_cov, dtype=float)
    return 0.5 * _as_result(np.sum((z @ q) * z, axis=-1)) + laplace_jump(spec, z)


def stable_exponent(spherical, alpha: float, z):
    """Closed-form stable exponent c(alpha) * int <z, xi>^alpha lambda(dxi),
    on one argument (d,) or a stack (..., d) like laplace_jump.

    Independent of the quadrature route through laplace_jump; the two
    must agree on stable specs.
    """
    z = _argument_stack(z, spherical.dimension)
    coef = stable_coefficient(alpha)
    if not np.any(z):
        return _as_result(np.zeros(z.shape[:-1]))
    _check_support_sign(spherical, z)

    def per_direction(dirs):
        return np.clip(z @ dirs.T, 0.0, None) ** alpha

    return coef * integrate_over_directions(spherical, per_direction)
