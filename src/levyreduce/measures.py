"""Data model for spherically decomposed Levy measures.

A jump measure nu on R^d minus the origin is stored as a spherical part
lambda on the unit sphere together with one radial measure gamma_xi on
(0, inf) per direction xi:

    nu(A) = int_S int_0^inf 1_A(r xi) gamma_xi(dr) lambda(dxi).

The spherical part is either a finite list of weighted directions or a
density over the polar parameter box [0, pi]^(d-2) x [0, 2pi]; in the
density case lambda is the pushforward of (density . Lebesgue) under the
polar map.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .quadrature import CONVERGED, IntegralResult, improper_columns

_UNIT_NORM_TOL = 1e-12


def as_unit_direction(xi) -> np.ndarray:
    """Validate and return xi as a read-only unit vector."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 1:
        raise ValueError("a direction must be a 1-d vector")
    norm = float(np.linalg.norm(xi))
    if abs(norm - 1.0) > _UNIT_NORM_TOL:
        raise ValueError(f"direction norm {norm} deviates from 1 beyond {_UNIT_NORM_TOL}")
    out = xi.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class RadialMeasure:
    """A sigma-finite measure on (0, inf): density part plus atoms.

    density maps an array of radii to density values; atoms is a tuple
    of (location, weight) pairs.  power_index is set by power_radial
    alone: it states that the density is exactly
    scale * r^-(1+power_index), which lets the jump sampler draw radii
    in closed form.
    """

    density: Callable | None = None
    atoms: tuple[tuple[float, float], ...] = ()
    power_index: float | None = None

    def __post_init__(self):
        # plain float tuples keep the measure hashable, so sweeps can
        # memoise per-measure work on the measure itself
        object.__setattr__(self, "atoms", tuple((float(r), float(w)) for r, w in self.atoms))
        if self.power_index is not None:
            object.__setattr__(self, "power_index", float(self.power_index))
        for r, w in self.atoms:
            if not (r > 0 and np.isfinite(r)):
                raise ValueError("atom locations must be positive and finite")
            if not (np.isfinite(w) and w >= 0):
                raise ValueError("atom weights must be finite and nonnegative")

    @property
    def is_zero(self) -> bool:
        return self.density is None and not self.atoms


def power_radial(alpha: float, scale: float = 1.0) -> RadialMeasure:
    """The stable radial law scale * r^-(1+alpha) dr."""
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    if scale < 0:
        raise ValueError("scale must be nonnegative")

    def dens(r, _p=1.0 + alpha, _s=scale):
        r = np.asarray(r, dtype=float)
        return _s * r ** (-_p)

    return RadialMeasure(density=dens, power_index=alpha)


def tabulated_radial(r_grid, values) -> RadialMeasure:
    """Radial density from (r, value) pairs with linear interpolation.

    Outside the table the density is zero.
    """
    r_grid = np.asarray(r_grid, dtype=float)
    values = np.asarray(values, dtype=float)
    if r_grid.ndim != 1 or r_grid.shape != values.shape:
        raise ValueError("r_grid and values must be matching 1-d arrays")
    if r_grid.size < 2:
        raise ValueError("a tabulated function needs at least two points")
    if not np.all(np.diff(r_grid) > 0):
        raise ValueError("r_grid must be strictly increasing")
    if np.any(values < 0):
        raise ValueError("a density table cannot be negative")

    def dens(r, _g=r_grid, _v=values):
        return np.interp(np.asarray(r, dtype=float), _g, _v, left=0.0, right=0.0)

    return RadialMeasure(density=dens)


def radial_columns(
    measure: RadialMeasure,
    weight: Callable | None,
    m: int,
    *,
    lo: float = 0.0,
    hi: float = np.inf,
) -> list[IntegralResult]:
    """int weight(r, k) measure(dr) over (lo, hi) for the m columns k, as
    one IntegralResult each, integrated in one column pass.

    weight(r, col) is the integrand contract of improper_columns: r is
    a 1-d array of radii that weight broadcasts against col, which is
    (m', 1) on the panels all columns share and r's shape elsewhere.
    The density is evaluated once per node of the shared panels.
    Raises ValueError unless 0 <= lo < hi.
    """
    if not 0.0 <= lo < hi:
        raise ValueError("require 0 <= lo < hi")
    total = np.zeros(m)
    columns = np.arange(m)
    for r, w in measure.atoms:
        if lo < r <= hi or (np.isinf(hi) and r > lo):
            total += w * (1.0 if weight is None else weight(np.full(m, r), columns))

    if measure.density is None:
        return [IntegralResult(float(t), CONVERGED, 0) for t in total]

    dens = measure.density
    if weight is None:
        results = improper_columns(lambda r, _col: dens(r), m, lo=lo, hi=hi)
    else:
        results = improper_columns(weight, m, lo=lo, hi=hi, factor=dens)
    if not measure.atoms:
        return results
    return [replace(res, value=res.value + t) for res, t in zip(results, total)]


def radial_integral(
    measure: RadialMeasure,
    weight: Callable | None = None,
    *,
    lo: float = 0.0,
    hi: float = np.inf,
):
    """int weight(r) measure(dr) over (lo, hi) as an IntegralResult: the
    one-column case of :func:`radial_columns`, for a weight that maps a
    1-d array of radii to values."""
    column_weight = None if weight is None else (lambda r, _col: weight(r))
    return radial_columns(measure, column_weight, 1, lo=lo, hi=hi)[0]


@dataclass(frozen=True)
class SphericalMeasure:
    """Finite measure on the unit sphere: atoms or an angular density.

    Atom form stores unit directions with positive weights.  Angular
    form stores a density over the polar box; its pushforward under the
    polar map is the spherical measure.  Construct through from_atoms /
    from_angular.
    """

    dimension: int
    directions: np.ndarray | None = None
    weights: np.ndarray | None = None
    angular_density: Callable | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if (self.directions is None) != (self.weights is None):
            raise ValueError("atom directions and weights come together")
        if self.directions is None and self.angular_density is None:
            raise ValueError("a spherical measure cannot be empty")

    @classmethod
    def from_atoms(cls, directions, weights) -> "SphericalMeasure":
        directions = np.asarray(directions, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if directions.ndim != 2 or directions.shape[0] == 0:
            raise ValueError("need a nonempty (n, d) array of directions")
        if weights.shape != (directions.shape[0],):
            raise ValueError("weights must match directions")
        directions = directions.copy()
        weights = weights.copy()
        directions.flags.writeable = False
        weights.flags.writeable = False
        return cls(int(directions.shape[1]), directions, weights, None)

    @classmethod
    def from_angular(cls, dimension: int, density: Callable) -> "SphericalMeasure":
        if dimension < 2:
            raise ValueError("angular densities need dimension >= 2")
        return cls(int(dimension), None, None, density)

    @property
    def is_atomic(self) -> bool:
        return self.directions is not None

    @property
    def n_atoms(self) -> int:
        return 0 if self.directions is None else int(self.directions.shape[0])

    def angular_box(self) -> tuple[tuple[float, float], ...]:
        """The polar parameter box [0, pi]^(d-2) x [0, 2pi]."""
        return ((0.0, np.pi),) * (self.dimension - 2) + ((0.0, 2.0 * np.pi),)


@dataclass(frozen=True)
class LevySpec:
    """Levy triplet data for the driving noise: Wiener covariance plus
    the spherically decomposed jump measure.

    radial_family maps a unit direction to the RadialMeasure carried by
    that direction.  For atom-form spherical parts it is consulted only
    on the atoms; for angular form, on quadrature directions.
    """

    dimension: int
    wiener_cov: np.ndarray
    spherical: SphericalMeasure
    radial_family: Callable[[np.ndarray], RadialMeasure]

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        q = np.asarray(self.wiener_cov, dtype=float)
        if q.shape != (self.dimension, self.dimension):
            raise ValueError("wiener_cov must be (d, d)")
        if self.spherical.dimension != self.dimension:
            raise ValueError("spherical measure dimension mismatch")

    def radial(self, xi) -> RadialMeasure:
        xi = np.asarray(xi, dtype=float)
        return self.radial_family(xi)

    def jump_only(self) -> "LevySpec":
        return replace(self, wiener_cov=np.zeros((self.dimension, self.dimension)))


@dataclass(frozen=True)
class DensityLevySpec:
    """Jump measure given by a plain density g on R^d, d >= 2.

    density maps an (n, d) array of points to values; it must be
    nonnegative wherever evaluated (checked on every call).
    """

    dimension: int
    density: Callable

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError("density form needs dimension >= 2")

    def __call__(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        vals = np.asarray(self.density(points), dtype=float)
        if np.any(vals < 0):
            bad = points[np.argmin(vals)]
            raise ValueError(f"jump density negative at {bad}")
        return vals


def density_spec(density, dimension, hints=None) -> DensityLevySpec:
    """Wrap a plain Cartesian jump density with its dimension.

    hints is accepted and ignored: the quadrature measures tail orders
    itself.  The keyword stays only for callers that still pass it.
    """
    return DensityLevySpec(int(dimension), density)


# eq=False: compared and hashed by identity, as basis is an array
@dataclass(frozen=True, eq=False)
class VolatilityFunction:
    """State-to-volatility map G: [0, inf) -> R^d, written in a basis U
    (d x K) of its range as G(x) = coeff(x) @ U^T.

    func maps states (n,) to the coefficients coeff (n, K).  basis is U;
    constructed without one, it is the identity of R^d, where K = d and
    func is G itself.  The equation sees the noise only through <G(x),
    dZ> = <coeff(x), U^T dZ>, so the Euler scheme steps the K
    coordinates U^T dZ in place of dZ: one for a power form, whose range
    is its direction.  Calling with an array of states returns the
    (n, d) array G(x).
    """

    func: Callable
    dimension: int
    basis: np.ndarray | None = None

    def __post_init__(self):
        if self.basis is not None:
            return
        object.__setattr__(self, "basis", np.eye(self.dimension))

    def coefficients(self, x) -> np.ndarray:
        """coeff(x), (n, K), of states x (n,)."""
        out = np.asarray(self.func(np.atleast_1d(np.asarray(x, dtype=float))), dtype=float)
        if out.ndim != 2 or out.shape[1] != self.basis.shape[1]:
            raise ValueError("volatility evaluator must return (n, K)")
        return out

    def inner(self, x, dz) -> np.ndarray:
        """Row-wise <coeff(x_i), dz_i> of states x (n,) and increments dz
        (n, K) in the coordinates of the basis: <G(x_i), U dz_i>."""
        c = self.coefficients(x)
        if c.shape[1] == 1:
            return c[:, 0] * dz[:, 0]
        return np.einsum("ij,ij->i", c, dz)

    def __call__(self, x) -> np.ndarray:
        scalar = np.ndim(x) == 0
        # one product per entry for K = 1, the outer product coeff u^T;
        # the identity basis gives a finite coeff back to the bit
        u = self.basis.T
        out = self.coefficients(x)
        out = out * u if u.shape[0] == 1 else out @ u
        return out[0] if scalar else out

    @classmethod
    def power(cls, exponent: float, direction) -> "VolatilityFunction":
        """G(x) = x^exponent direction: K = 1, U = direction."""
        direction = np.asarray(direction, dtype=float)
        if exponent <= 0:
            raise ValueError("power exponent must be positive")

        def coeff(x, _p=exponent):
            return (x ** _p)[:, None]

        return cls(coeff, int(direction.shape[0]), direction[:, None])

    @classmethod
    def tabulated(cls, x_grid, values) -> "VolatilityFunction":
        x_grid = np.asarray(x_grid, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.shape[0] != x_grid.shape[0]:
            raise ValueError("table rows must match x grid")
        if x_grid.ndim != 1 or np.any(np.diff(x_grid) <= 0):
            raise ValueError("x grid must be strictly increasing")

        def g(x, _g=x_grid, _v=values):
            x = np.asarray(x, dtype=float)
            return np.stack(
                [np.interp(x, _g, _v[:, k]) for k in range(_v.shape[1])], axis=-1
            )

        return cls(g, int(values.shape[1]))


def stable_spec(alpha: float, spherical: SphericalMeasure) -> LevySpec:
    """Pure-jump alpha-stable spec: the same radial law r^-(1+alpha) at
    every direction, no Wiener part.  Requires alpha in (1, 2)."""
    if not (1.0 < alpha < 2.0):
        raise ValueError("stable index must lie in (1, 2)")
    base = power_radial(alpha)
    d = spherical.dimension
    return LevySpec(d, np.zeros((d, d)), spherical, lambda xi, _b=base: _b)
