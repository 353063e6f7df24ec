"""Extraction of the one-dimensional affine model from a multivariate spec.

The pipeline regresses the joint Laplace exponent against the state
level to isolate the state-proportional jump measure, fits its exponent
as a power law, and packages the result as the one-factor stable-CIR
model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import report as rpt
from .conditions import (
    check_martingale,
    check_positive_jumps,
    check_variation,
    radial_balance,
    wiener_cir_check,
)
from .exceptions import (
    AffinityViolation,
    NotPowerLaw,
    PreconditionFailed,
    ResidualNuG0,
    ZeroVolatility,
)
from .laplace import (
    B_GRID_DEFAULT,
    X_GRID_DEFAULT,
    laplace_total,
    stable_coefficient,
)
from .measures import LevySpec

PROBE_X_DEFAULT = np.logspace(-2.0, -8.0, 13)

AFFINITY_TOL = 1e-4
FIT_TOL = 1e-4
DIRECTION_TOL = 1e-4
GAUSSIAN_BAND = (1.995, 2.005)
_SCALING_FACTORS = (2.0, 3.0)


@dataclass(frozen=True)
class ReducedModel:
    """One-factor stable-CIR short rate: dR = (aR+b)dt + C R^(1/alpha) dZ.

    The driving noise is the spectrally positive alpha-stable martingale
    normalized so its Laplace exponent per unit time is c_alpha u^alpha.
    """

    a: float
    b: float
    C: float
    alpha: float

    def __post_init__(self):
        if not (1.0 < self.alpha < 2.0):
            raise ValueError("stable index must lie strictly inside (1, 2)")
        if self.C <= 0:
            raise ValueError("volatility coefficient C must be positive")
        if self.b < 0:
            raise ValueError("constant drift term b must be nonnegative")

    def exponents(self):
        """The Riccati right-hand side (a, b, c, J_mu, J_nu0) in closed
        form: no diffusion, J_mu(u) = C^alpha c_alpha u^alpha, and no
        state-independent jumps."""
        scale = self.C ** self.alpha * stable_coefficient(self.alpha)
        alpha = self.alpha
        return self.a, self.b, 0.0, lambda u: scale * u ** alpha, lambda u: 0.0


def direction_limit_at_zero(G):
    """Limit direction of the volatility function at the origin.

    Returns (unit direction at the smallest probe, residual), where the
    residual is the largest deviation between normalized directions at
    the three smallest probes.  A residual above 1e-4 signals that the
    direction does not settle.
    """
    tail = PROBE_X_DEFAULT[-3:]
    g = G(tail)
    norms = np.linalg.norm(g, axis=1)
    if np.any(norms == 0.0):
        raise ZeroVolatility(f"|G({tail[np.argmax(norms == 0.0)]:g})| = 0 at a probe level")
    units = g / norms[:, None]
    residual = float(np.max(np.linalg.norm(units[:, None] - units[None], axis=-1)))
    return units[-1], residual


def extract_affine_exponents(spec: LevySpec, G, b_grid=None):
    """Split the Laplace exponent of <G(x), Z> into level-free and
    level-proportional parts.

    For each b the exponent evaluated at b*G(x) is regressed linearly
    against x; the slope (net of the fitted diffusion term c b^2) samples
    the state-proportional exponent and the intercept the state-free
    one.  Returns (slopes, intercepts, residual); a residual above 1e-4,
    a negative slope, or a decreasing slope profile raises
    AffinityViolation since the pair then fails the affine form.
    """
    b_grid = np.asarray(B_GRID_DEFAULT if b_grid is None else b_grid, dtype=float)
    if np.any(b_grid < 0):
        raise ValueError("b_grid must be nonnegative")
    x_grid = X_GRID_DEFAULT

    c, _, _ = wiener_cir_check(spec.wiener_cov, G)
    # y[k, i] is the exponent at b_i G(x_k): one column per b
    y = laplace_total(spec, b_grid[None, :, None] * G(x_grid)[:, None, :])
    design = np.stack([x_grid, np.ones_like(x_grid)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fit = design @ coef
    floor = 1e-30 * np.maximum(1.0, np.max(np.abs(y), axis=0))
    residual = float(np.max(np.abs(y - fit) / np.maximum(np.abs(y), floor), initial=0.0))
    slopes = coef[0] - c * b_grid * b_grid
    intercepts = coef[1]

    if residual > AFFINITY_TOL:
        raise AffinityViolation(
            f"Laplace exponent is not affine in the level: residual {residual:.3e}"
        )
    slope_floor = -1e-9 * max(1.0, float(np.max(np.abs(slopes))))
    order = np.argsort(b_grid)
    monotone_slack = slope_floor * np.ones(len(order) - 1)
    if np.any(slopes < slope_floor) or np.any(
        np.diff(slopes[order]) < monotone_slack
    ):
        raise AffinityViolation(
            "extracted level-proportional exponent must be nonnegative and "
            "nondecreasing"
        )
    return slopes, intercepts, residual


def fit_power_law(b_grid, j_samples):
    """Fit j = C_tilde * b^alpha and test scale invariance of the samples.

    Returns (C_tilde, alpha, fit_residual, CheckReport).  The report
    checks that the ratios j(2b)/j(b) and j(3b)/j(b) are constant across
    the grid (two incommensurate factors pin a power law), that the
    log-log fit residual is small, and whether alpha lies in (1, 2) -
    with a warning instead of a failure inside the Gaussian boundary
    band around 2.  Ratio spread beyond tolerance raises NotPowerLaw.
    """
    b = np.asarray(b_grid, dtype=float)
    j = np.asarray(j_samples, dtype=float)
    mask = b > 0.0
    b, j = b[mask], j[mask]
    if b.size < 4:
        raise ValueError("need at least four positive sample points")
    if np.any(j <= 0.0):
        raise ValueError("power-law fit requires positive samples")

    lb, lj = np.log(b), np.log(j)
    order = np.argsort(lb)
    lb, lj = lb[order], lj[order]

    slope, logc = np.polyfit(lb, lj, 1)
    alpha, c_tilde = float(slope), float(np.exp(logc))
    fit_residual = float(np.max(np.abs(np.expm1(lj - (slope * lb + logc)))))

    items = []
    for factor in _SCALING_FACTORS:
        shift = np.log(factor)
        inside = lb[lb + shift <= lb[-1]]
        if inside.size < 2:
            raise ValueError("grid too narrow for the scaling test")
        ratios = np.exp(np.interp(inside + shift, lb, lj) - np.interp(inside, lb, lj))
        spread = float(np.max(ratios) / np.min(ratios) - 1.0)
        items.append(
            rpt.item(
                f"scaling_factor_{int(factor)}",
                spread < FIT_TOL,
                value=spread,
                tolerance=FIT_TOL,
                detail=f"spread of j({int(factor)}b)/j(b) across the grid",
            )
        )
        if spread >= FIT_TOL:
            raise NotPowerLaw(
                f"ratio at factor {factor:g} varies by {spread:.3e} across the grid"
            )
    items.append(
        rpt.item(
            "fit_residual",
            fit_residual < FIT_TOL,
            value=fit_residual,
            tolerance=FIT_TOL,
            detail="max relative deviation from the fitted power law",
        )
    )
    lo, hi = GAUSSIAN_BAND
    if lo <= alpha <= hi:
        items.append(
            rpt.CheckItem(
                "alpha_range",
                rpt.WARN,
                value=alpha,
                detail="GAUSSIAN_BOUNDARY: exponent at the diffusive edge",
            )
        )
    else:
        items.append(
            rpt.item(
                "alpha_range",
                1.0 < alpha < 2.0,
                value=alpha,
                detail="fitted exponent must lie in (1, 2)",
            )
        )
    return c_tilde, alpha, fit_residual, rpt.CheckReport(tuple(items))


def check_hypotheses(spec: LevySpec, G=None) -> rpt.CheckReport:
    """The hypotheses of the reduction theorem, as one report.

    Items, in order: triplet structure and martingale moment; with G,
    the sign of the jumps; infinite variation with full span, unless
    G(0) = 0 waives it; radial balance; with G, the settling of the
    direction of G at zero.  check certifies exactly this report and
    reduce_model refuses when any item fails.
    """
    reports = [check_martingale(spec)]
    if G is not None:
        reports.append(check_positive_jumps(G, spec))
    if G is None or np.linalg.norm(np.asarray(G(0.0), dtype=float)) > 0.0:
        reports.append(check_variation(spec))
    reports.append(radial_balance(spec)[1])
    if G is not None:
        try:
            g0, residual = direction_limit_at_zero(G)
            settled = residual <= DIRECTION_TOL
            detail = f"limit direction {np.round(g0, 6)}" if settled else (
                f"direction of G does not settle at zero (residual {residual:.3e})"
            )
        except ZeroVolatility as exc:
            settled, residual, detail = False, None, f"direction of G is undefined: {exc}"
        direction = rpt.item(
            "direction_limit", settled, value=residual, tolerance=DIRECTION_TOL, detail=detail
        )
        reports.append(rpt.CheckReport((direction,)))
    return reports[0].merged(*reports[1:])


def reduce_model(
    spec: LevySpec,
    G,
    a: float = 0.0,
    b: float = 0.0,
):
    """Run the full reduction: hypothesis suite, exponent extraction,
    power-law fit, and assembly of the one-factor model.

    Any failing item of check_hypotheses raises PreconditionFailed
    carrying that report.  A nonzero Wiener part is reported as a
    violation in the returned CheckReport but does not stop the jump
    extraction, which runs on the diffusion-free part of the spec.
    Returns (ReducedModel, CheckReport).
    """
    hypotheses = check_hypotheses(spec, G)
    if not hypotheses.overall_pass:
        failing = "; ".join(
            f"{it.name} ({it.detail})" if it.detail else it.name for it in hypotheses.failing()
        )
        raise PreconditionFailed(f"hypotheses unmet: {failing}", report=hypotheses)

    c, _, wiener = wiener_cir_check(spec.wiener_cov, G)
    wiener_flag = rpt.item(
        "wiener_part_vanishes",
        c == 0.0,
        value=c,
        detail="a positive diffusion coefficient cannot reduce to a stable "
        "model with alpha < 2",
    )

    slopes, intercepts, affinity_residual = extract_affine_exponents(spec.jump_only(), G)

    slope_scale = float(np.max(np.abs(slopes), initial=0.0))
    intercept_worst = float(np.max(np.abs(intercepts), initial=0.0))
    intercept_tol = 1e-6 * max(1.0, slope_scale)
    if intercept_worst > intercept_tol:
        raise ResidualNuG0(
            f"state-independent exponent does not vanish: {intercept_worst:.3e}"
        )

    c_tilde, alpha, fit_residual, fit_report = fit_power_law(B_GRID_DEFAULT, slopes)
    if not (1.0 < alpha < 2.0):
        raise NotPowerLaw(f"fitted exponent {alpha:.6g} lies outside (1, 2)")

    big_c = float((c_tilde / stable_coefficient(alpha)) ** (1.0 / alpha))
    model = ReducedModel(a=a, b=b, C=big_c, alpha=alpha)

    extras = rpt.CheckReport(
        (
            wiener_flag,
            rpt.item(
                "affinity_residual",
                True,
                value=affinity_residual,
                tolerance=AFFINITY_TOL,
            ),
            rpt.item(
                "intercept_zero",
                True,
                value=intercept_worst,
                tolerance=intercept_tol,
                detail="state-independent jump exponent",
            ),
        )
    )
    report = hypotheses.merged(wiener, extras, fit_report)
    return model, report
