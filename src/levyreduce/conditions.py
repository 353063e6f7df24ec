"""Hypothesis checks behind affine generation and reducibility.

Each check sweeps one assumption needed by the reduction machinery:
the structure of the triplet (positive weights on unit directions, a
covariance for the Wiener part) together with martingale integrability
of the jump measure, infinite variation and
span of the carrying directions, sign of the jumps seen through the
volatility function, CIR affinity of the Wiener part, uniform balance
of the radial Laplace exponents, truncated-moment domination ratios,
and the density-form criteria.  Failures are reported in CheckReports,
not raised; exceptions are reserved for quantities that are genuinely
undefined (InfimumZero, DenominatorZero).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import report as rpt
from .exceptions import DenominatorZero, DivergentIntegral, InfimumZero
from .laplace import X_GRID_DEFAULT, laplace_radial
from .measures import (
    _UNIT_NORM_TOL,
    DensityLevySpec,
    LevySpec,
    RadialMeasure,
    radial_integral,
)
from .quadrature import CONVERGED, DIVERGENT, _distinct, improper_integral
from .spherical import (
    _per_measure,
    _sample_directions,
    _support_directions,
    induced_spec,
    uniform_angle_grid,
)

BALANCE_B_GRID = np.logspace(-3.0, 3.0, 25)
# the balance grid extended by a decade at each end
_BALANCE_WIDE_B_GRID = _distinct(
    np.concatenate([BALANCE_B_GRID, np.logspace(-4.0, -3.0, 5), np.logspace(3.0, 4.0, 5)])
)
EPS_GRID_DEFAULT = np.logspace(-2.0, -8.0, 13)

AFFINITY_TOL = 1e-6
_STABILIZE_TOL = 1e-3
_BALANCE_STABLE_TOL = 1e-4
_SIGN_SLACK = 1e-12


def _min_kernel(r):
    r = np.asarray(r, dtype=float)
    return np.minimum(r * r, r)


def check_structure(spec: LevySpec) -> rpt.CheckReport:
    """Structural hypotheses on the triplet, checked without quadrature.

    The spherical part must sit on unit directions with strictly
    positive weights (or, in angular form, carry positive mass), and the
    Wiener covariance must be symmetric positive semidefinite.
    """
    sph = spec.spherical
    items = []
    if sph.is_atomic:
        items.append(
            rpt.item(
                "atom_weights_positive",
                bool(np.all(sph.weights > 0)),
                value=float(np.min(sph.weights)),
                detail="all spherical atom weights must be strictly positive",
            )
        )
        norm_dev = float(np.max(np.abs(np.linalg.norm(sph.directions, axis=1) - 1.0)))
        items.append(
            rpt.item(
                "unit_directions",
                norm_dev <= _UNIT_NORM_TOL,
                value=norm_dev,
                tolerance=_UNIT_NORM_TOL,
            )
        )
    else:
        mass = float(np.sum(_sample_directions(spec.spherical)[1]))
        items.append(
            rpt.item(
                "angular_mass_positive",
                mass > 0,
                value=mass,
                detail="angular density must carry positive mass",
            )
        )

    q = np.asarray(spec.wiener_cov, dtype=float)
    scale = max(float(np.max(np.abs(q))), 1.0)
    sym_dev = float(np.max(np.abs(q - q.T)))
    eig_min = float(np.min(np.linalg.eigvalsh(0.5 * (q + q.T))))
    items.append(rpt.item("wiener_cov_symmetric", sym_dev <= 1e-10 * scale, value=sym_dev))
    items.append(
        rpt.item(
            "wiener_cov_psd",
            eig_min >= -1e-10 * scale,
            value=eig_min,
            detail="smallest eigenvalue of the symmetrised covariance",
        )
    )
    return rpt.CheckReport(tuple(items))


def check_martingale(spec: LevySpec) -> rpt.CheckReport:
    """The structural items of check_structure, then
    int (r^2 wedge r) gamma_xi(dr) < inf on sampled directions.

    The moment bound makes the compensated jump part a martingale with
    finite first moment.  Zero jump measures pass with a warning so
    degenerate inputs remain visible.
    """
    dirs, _ = _sample_directions(spec.spherical)

    def moment(gamma):
        if gamma.is_zero:
            return None
        return radial_integral(gamma, _min_kernel)

    worst = 0.0
    bad_detail = ""
    all_zero = True
    for xi, res in zip(dirs, _per_measure(spec, dirs, moment)):
        if res is None:
            continue
        all_zero = False
        ok = res.status == CONVERGED and np.isfinite(res.value)
        if not ok and not bad_detail:
            bad_detail = f"moment integral {res.status} along direction {np.round(xi, 6)}"
        worst = max(worst, res.value if ok else np.inf)

    if all_zero:
        it = rpt.CheckItem(
            "martingale_moment",
            rpt.WARN,
            value=0.0,
            detail="jump measure is zero on all sampled directions",
        )
    else:
        it = rpt.item(
            "martingale_moment",
            not bad_detail,
            value=worst,
            detail=bad_detail or "max over sampled directions",
        )
    return check_structure(spec).merged(rpt.CheckReport((it,)))


def check_variation(spec: LevySpec) -> rpt.CheckReport:
    """Locate directions with non-integrable small jumps and test their
    mass and span.

    The divergent set carries int_0^1 r gamma_xi(dr) = +inf.  The first
    item requires it to have positive spherical mass; the second requires
    the located directions to span the whole space.
    """
    dirs, wgts = _sample_directions(spec.spherical, 32)

    def small_jumps_diverge(gamma):
        if gamma.density is None:
            return False  # atom masses on (0,1] are finite sums
        dens = gamma.density
        small = improper_integral(lambda r: r * dens(r), lo=0.0, hi=1.0)
        return small.status == DIVERGENT

    divergent = np.array(_per_measure(spec, dirs, small_jumps_diverge), dtype=bool)
    mass = float(np.sum(np.asarray(wgts, dtype=float)[divergent]))
    items = [
        rpt.item(
            "infinite_variation_mass",
            mass > 0.0,
            value=mass,
            detail="spherical mass of directions with divergent small-jump moment",
        )
    ]
    rank = (
        int(np.linalg.matrix_rank(np.atleast_2d(dirs[divergent])))
        if np.any(divergent)
        else 0
    )
    items.append(
        rpt.item(
            "variation_span",
            rank == spec.dimension,
            value=float(rank),
            tolerance=float(spec.dimension),
            detail="rank of the divergent directions",
        )
    )
    return rpt.CheckReport(tuple(items))


def check_positive_jumps(G, spec: LevySpec) -> rpt.CheckReport:
    """Require <G(x), xi> >= 0 (within slack) on the support of the
    spherical part, so the state only ever jumps upward.  Only directions
    of positive weight are scanned: a sector where the angular density
    vanishes carries no jumps."""
    dirs = _support_directions(spec.spherical)
    if not len(dirs):
        it = rpt.CheckItem(
            "jump_direction_sign", rpt.WARN, value=0.0, detail="no direction carries mass"
        )
        return rpt.CheckReport((it,))

    gx = G(X_GRID_DEFAULT)
    if not np.any(gx):
        it = rpt.CheckItem(
            "jump_direction_sign",
            rpt.WARN,
            value=0.0,
            detail="G vanishes on the whole grid",
        )
        return rpt.CheckReport((it,))
    inner = gx @ dirs.T
    margin = inner + _SIGN_SLACK * np.linalg.norm(gx, axis=1)[:, None]
    i, j = np.unravel_index(int(np.argmin(margin)), margin.shape)
    it = rpt.item(
        "jump_direction_sign",
        margin[i, j] >= 0.0,
        value=float(margin[i, j]),
        tolerance=0.0,
        detail=f"min <G(x), xi> = {inner[i, j]:.3e} at x={X_GRID_DEFAULT[i]:g}, "
        f"xi={np.round(dirs[j], 6)}",
    )
    return rpt.CheckReport((it,))


def wiener_cir_check(Q, G):
    """Fit 0.5 <Q G(x), G(x)> = c x and measure the relative residual.

    Returns (c, residual, CheckReport).  The fit is through the origin;
    c is clipped at zero since a diffusion coefficient cannot be
    negative.  Affinity holds when the residual stays below 1e-6.
    """
    x = X_GRID_DEFAULT
    g = G(x)
    y = 0.5 * np.sum((g @ np.asarray(Q, dtype=float)) * g, axis=1)

    c = float(np.dot(x, y) / np.dot(x, x))
    c = max(c, 0.0)
    floor = 1e-30 * max(1.0, float(np.max(np.abs(y), initial=0.0)))
    scale = np.maximum(np.maximum(np.abs(y), c * x), floor)
    residual = float(np.max(np.abs(y - c * x) / scale))
    report = rpt.CheckReport(
        (
            rpt.item(
                "wiener_cir_affinity",
                residual < AFFINITY_TOL,
                value=residual,
                tolerance=AFFINITY_TOL,
                detail=f"fitted diffusion coefficient c={c:.6g}",
            ),
        )
    )
    return c, residual, report


def _balance_ratio(spec, dirs, b_grid):
    """max over b of sup/inf of the per-direction radial exponents."""

    def exponents(gamma):
        try:
            return laplace_radial(gamma, b_grid)
        except DivergentIntegral:
            return np.full(len(b_grid), np.inf)

    table = np.array(_per_measure(spec, dirs, exponents), dtype=float)
    lo, hi = np.min(table, axis=0), np.max(table, axis=0)
    if np.any(lo == 0.0):
        b = b_grid[int(np.argmax(lo == 0.0))]
        raise InfimumZero(f"radial Laplace exponent vanishes at b={b:g}")
    if not np.all(np.isfinite(table)):
        return np.inf  # a divergent exponent admits no balance constant
    return float(np.max(hi / lo))


def radial_balance(spec: LevySpec):
    """Estimate the uniform balance constant of the radial family.

    K_hat bounds sup_xi J_xi(b) <= K_hat inf_xi J_xi(b) over the grid.
    Returns (K_hat, CheckReport); the report requires K_hat finite and
    stable under refining the direction sample and extending the b
    range, which exposes families whose ratio grows without bound.
    """
    if spec.spherical.is_atomic:
        dirs0 = dirs1 = spec.spherical.directions
    else:
        n0 = 64 if spec.dimension == 2 else 16
        dirs0 = uniform_angle_grid(spec.dimension, n0)[0]
        dirs1 = uniform_angle_grid(spec.dimension, 2 * n0)[0]

    k_base = _balance_ratio(spec, dirs0, BALANCE_B_GRID)
    k_ref = _balance_ratio(spec, dirs1, _BALANCE_WIDE_B_GRID)

    finite = bool(np.isfinite(k_ref))
    drift = abs(k_ref - k_base) / max(k_base, 1.0) if finite else np.inf
    items = (
        rpt.item(
            "balance_finite",
            finite,
            value=k_ref if finite else np.inf,
            detail="max_b sup/inf of radial Laplace exponents",
        ),
        rpt.item(
            "balance_stable",
            finite and drift <= _BALANCE_STABLE_TOL,
            value=drift,
            tolerance=_BALANCE_STABLE_TOL,
            detail="relative change under grid refinement and range extension",
        ),
    )
    return k_ref, rpt.CheckReport(items)


def _window_moment(measure, lo, hi, power):
    weight = (lambda r: np.asarray(r, dtype=float)) if power == 1 else (
        lambda r: np.asarray(r, dtype=float) ** power
    )
    return radial_integral(measure, weight, lo=lo, hi=hi).value


def _limsup_estimate(values):
    """(estimate, stabilized) from ratio samples ordered by shrinking eps."""
    vals = np.asarray(values, dtype=float)
    if vals.size < 3:
        return float(np.max(vals)), False
    tail = vals[-3:]
    changes = np.abs(np.diff(tail)) / np.maximum(np.abs(tail[:-1]), 1e-300)
    return float(np.max(tail)), bool(np.all(changes < _STABILIZE_TOL))


def q_ratios(gamma_lower: RadialMeasure, gamma_upper: RadialMeasure, eps_grid=None):
    """Truncated-moment domination ratios of an upper over a lower
    radial measure.

    q0 tracks int_eps^1 r Gamma(dr) / int_eps^1 r gamma(dr) as eps
    shrinks; q_inf does the same with weight r^2 on [1, 1/eps].  Both
    are estimated as the max of the three smallest-eps samples once
    successive changes stabilize below 1e-3 relative; without
    stabilization the corresponding item is inconclusive rather than
    passed.  Returns (q0, q_inf, CheckReport).
    """
    eps = np.asarray(EPS_GRID_DEFAULT if eps_grid is None else eps_grid, dtype=float)
    eps = _distinct(eps)[::-1]
    if eps.size == 0 or np.any(eps <= 0) or np.any(eps >= 1):
        raise ValueError("eps_grid must lie strictly inside (0, 1)")

    # domination precheck on a log grid spanning both windows
    rr = np.logspace(np.log10(eps[-1]), -np.log10(eps[-1]), 201)
    lo_d = gamma_lower.density(rr) if gamma_lower.density is not None else np.zeros_like(rr)
    up_d = gamma_upper.density(rr) if gamma_upper.density is not None else np.zeros_like(rr)
    dens_ok = bool(np.all(lo_d <= up_d * (1.0 + 1e-9) + 1e-300))
    upper_atoms = {float(r): float(w) for r, w in gamma_upper.atoms}
    atom_ok = all(
        upper_atoms.get(float(r), 0.0) >= w * (1.0 - 1e-9) for r, w in gamma_lower.atoms
    )
    items = [
        rpt.item(
            "domination_order",
            dens_ok and atom_ok,
            detail="lower measure must not exceed the upper anywhere sampled",
        )
    ]

    ratios0, ratios_inf = [], []
    for e in eps:
        den0 = _window_moment(gamma_lower, e, 1.0, 1)
        den_inf = _window_moment(gamma_lower, 1.0, 1.0 / e, 2)
        if den0 <= 0.0 or den_inf <= 0.0:
            raise DenominatorZero(
                f"lower-measure window moment vanishes at eps={e:g}"
            )
        ratios0.append(_window_moment(gamma_upper, e, 1.0, 1) / den0)
        ratios_inf.append(_window_moment(gamma_upper, 1.0, 1.0 / e, 2) / den_inf)

    q0, ok0 = _limsup_estimate(ratios0)
    q_inf, ok_inf = _limsup_estimate(ratios_inf)
    for name, val, ok in (("q0_finite", q0, ok0), ("q_inf_finite", q_inf, ok_inf)):
        if not ok:
            items.append(
                rpt.CheckItem(
                    name,
                    rpt.INCONCLUSIVE,
                    value=val,
                    detail="ratio samples did not stabilize on the eps grid",
                )
            )
        else:
            items.append(
                rpt.item(
                    name,
                    np.isfinite(val),
                    value=val,
                    detail="limsup estimate from the three smallest eps",
                )
            )
    return q0, q_inf, rpt.CheckReport(tuple(items))


def _envelope_functions(dspec: DensityLevySpec, n_per_dim: int):
    """Radius-wise inf and sup of the density over each sphere.

    Returns extremes(r) -> (inf, sup), one density evaluation on the
    radius x direction grid per call.
    """
    dirs = uniform_angle_grid(dspec.dimension, n_per_dim)[0]

    def extremes(r):
        r = np.asarray(r, dtype=float)
        pts = (r[:, None, None] * dirs[None, :, :]).reshape(-1, dspec.dimension)
        vals = np.asarray(dspec(pts), dtype=float).reshape(r.size, -1)
        return np.min(vals, axis=1), np.max(vals, axis=1)

    return extremes


def density_reducibility_check(dspec: DensityLevySpec) -> rpt.CheckReport:
    """Reducibility criteria for a jump measure given by a density g.

    The density is the special case of the decomposition built by
    induced_spec.  Items, in order: integrability of (|x|^2 wedge |x|) g
    (the martingale moment of the decomposed form); span of the
    directions carrying g; positive mass of directions with divergent
    small-jump moment (the infinite-variation mass of the decomposed
    form); and the two envelope-ratio limits with r^d and r^(d+1)
    weights.  All failures are reported, none raised.
    """
    d = dspec.dimension
    spec = induced_spec(dspec)
    moment = check_martingale(spec).item("martingale_moment")
    items = [
        replace(
            moment,
            name="integrability",
            detail=f"int (r^2 wedge r) gamma_xi(dr), {moment.detail}",
        )
    ]

    # directions carrying g, on a subsampled scan grid
    probe_dirs = uniform_angle_grid(d, 128 if d == 2 else 16)[0]
    radii = np.logspace(-3.0, 3.0, 25)
    pts = (radii[:, None, None] * probe_dirs[None, :, :]).reshape(-1, d)
    gvals = np.asarray(dspec(pts), dtype=float).reshape(radii.size, -1)
    carrying = np.any(gvals > 0.0, axis=0)
    rank = (
        int(np.linalg.matrix_rank(np.atleast_2d(probe_dirs[carrying])))
        if np.any(carrying)
        else 0
    )
    items.append(
        rpt.item(
            "span",
            rank == d,
            value=float(rank),
            tolerance=float(d),
            detail="rank of directions where g is not identically zero",
        )
    )
    items.append(
        replace(
            check_variation(spec).item("infinite_variation_mass"),
            name="small_jump_divergence",
        )
    )

    # envelopes, refined once if the two resolutions disagree
    n_env = 512 if d == 2 else 64
    env = _envelope_functions(dspec, n_env)
    env2 = _envelope_functions(dspec, 2 * n_env)
    probe_r = np.logspace(-3.0, 3.0, 13)
    disagree = max(
        float(np.max(np.abs(v1 - v2) / np.maximum(np.abs(v2), 1e-300)))
        for v1, v2 in zip(env(probe_r), env2(probe_r))
    )
    if disagree > 1e-3:
        env = env2
    surface = float(d - 1)

    def _env_measure(k):
        def dens(r, _env=env, _k=k):
            r = np.asarray(r, dtype=float)
            return _env(r)[_k] * r**surface

        return RadialMeasure(density=dens)

    try:
        qrep = q_ratios(_env_measure(0), _env_measure(1))[2]
        items.append(replace(qrep.item("q0_finite"), name="ratio_small"))
        items.append(replace(qrep.item("q_inf_finite"), name="ratio_large"))
    except DenominatorZero as exc:
        for name in ("ratio_small", "ratio_large"):
            items.append(
                rpt.item(
                    name,
                    False,
                    value=np.inf,
                    detail=f"lower envelope carries no usable mass: {exc}",
                )
            )

    return rpt.CheckReport(tuple(items))
