"""Quadrature on (0, infinity) for integrands with power-law endpoints.

The radial integrals in this library all look like

    I = int_0^inf  f(r) dr

where f behaves like r^(-p0) near zero and r^(-pinf) near infinity for
some real exponents.  After the substitution u = log r the integrand
becomes a smooth, exponentially decaying (or growing) function of u, so
fixed-order Gauss-Legendre panels on a log grid resolve it to near
machine precision.  Improper endpoints are handled by extending the
panel range one decade at a time and watching the per-decade
contributions:

* contributions that keep growing mean the integral diverges,
* geometrically decaying contributions admit an exact geometric tail
  sum, which is applied once two successive closures agree.

The second point matters: tails like r^(-0.1) decay so slowly that a
naive truncate-at-large-R rule would need cutoffs beyond 1e80 to reach
1e-9 accuracy.  The geometric closure reaches it in a handful of
decades and is exact for pure power laws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import DivergentIntegral

# 16-point Gauss-Legendre rule, two panels per decade of r.  For the
# exponential-type integrands produced by the log substitution the panel
# error is far below 1e-14, so accuracy is set by tail handling alone.
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)
_PANELS_PER_DECADE = 2
_DECADE = np.log(10.0)

# Per-decade contributions with ratio above this are treated as
# non-decaying; two in a row classify the integral as divergent.  The
# threshold puts the classification boundary for a density r^(-p)
# probed with weight r at p ~= 2 +- 0.005.
_DIVERGENCE_RATIO = 0.995

# Hard range of representable radii.  Panels never extend beyond this.
_U_MIN = np.log(1e-280)
_U_MAX = np.log(1e280)


# Accuracy of every radial integral: relative and absolute tolerance,
# the budget of extension decades per endpoint before a slow integral
# is declared inconclusive, and the base window extension starts from.
REL_TOL = 1e-9
ABS_TOL = 1e-12
MAX_DECADES = 400
EPS_LOW = 1e-8
R_HIGH = 1e8

CONVERGED = "converged"
DIVERGENT = "divergent"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class IntegralResult:
    """Value plus convergence evidence for one improper integral."""

    value: float
    status: str
    lower_edge: float
    upper_edge: float
    n_eval: int

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED


def panel_integral(f, lo: float, hi: float) -> float:
    """Integrate f over the finite range [lo, hi] on log-spaced panels.

    f must accept a 1-d numpy array of radii and return the integrand
    values.  lo must be positive.
    """
    if not (0.0 < lo < hi):
        raise ValueError("require 0 < lo < hi")
    u_lo, u_hi = np.log(lo), np.log(hi)
    n_panels = max(1, int(np.ceil((u_hi - u_lo) * _PANELS_PER_DECADE / _DECADE)))
    edges = np.linspace(u_lo, u_hi, n_panels + 1)
    return _panel_sum(f, edges)


# Panel-splitting thresholds for _panel_sum: a panel whose bisected
# estimate moves by more than the tolerance (relative to the whole sum)
# is split again, so integrands localized inside one log panel still
# resolve.  Smooth power-law panels settle on the first split.
_REFINE_TOL = 1e-12
_MAX_REFINE_DEPTH = 12


def _panel_block(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """GL-16 estimates for a batch of panels given u-space edge arrays."""
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    u = mid[:, None] + half[:, None] * _GL_X[None, :]
    r = np.exp(u)
    vals = f(r.ravel()).reshape(r.shape)
    # du-measure picks up a factor r from dr = r du
    return ((vals * r) @ _GL_W) * half


def _panel_sum(f, edges: np.ndarray) -> float:
    """Adaptive Gauss-Legendre sum over log panels in u-space."""
    lo, hi = edges[:-1].copy(), edges[1:].copy()
    est = _panel_block(f, lo, hi)
    scale = max(float(np.sum(np.abs(est))), 1e-300)
    total = 0.0
    for _ in range(_MAX_REFINE_DEPTH):
        mid = 0.5 * (lo + hi)
        left = _panel_block(f, lo, mid)
        right = _panel_block(f, mid, hi)
        refined = left + right
        done = np.abs(refined - est) <= _REFINE_TOL * scale
        total += float(np.sum(refined[done]))
        if np.all(done):
            return total
        keep = ~done
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        est = np.concatenate([left[keep], right[keep]])
    return total + float(np.sum(est))


def _decade_block(f, u_start: float, direction: int) -> tuple[float, float]:
    """Integral of f over one decade extending from u_start.

    direction +1 extends upward, -1 downward.  Returns (value, new_edge).
    """
    if direction > 0:
        edges = np.linspace(u_start, u_start + _DECADE, _PANELS_PER_DECADE + 1)
        new_edge = u_start + _DECADE
    else:
        edges = np.linspace(u_start - _DECADE, u_start, _PANELS_PER_DECADE + 1)
        new_edge = u_start - _DECADE
    return _panel_sum(f, edges), new_edge


def _extend(f, u_start, direction, scale_hint, closure, expected_ratio=None):
    """Extend an improper endpoint decade by decade.

    Returns (added_value, status, final_edge, n_blocks).  scale_hint is
    the magnitude of the integral gathered so far; tolerances are taken
    relative to it (it is updated as blocks accumulate).

    closure=True enables the geometric tail sum.  It must only be used
    for integrands of one sign: the consistency test compares successive
    tail estimates, which is meaningless under cancellation.
    """
    added = 0.0
    scale = abs(scale_hint)
    edge = u_start
    prev_block = None
    prev_est = None
    ratio_prev = expected_ratio
    growth_streak = 0
    u_limit = _U_MAX if direction > 0 else _U_MIN

    def _forced_close(blocks_used):
        # range or budget ran out: close the tail from the last ratio if
        # the trend was decaying and the leftover is provably small
        if prev_block is not None and ratio_prev is not None and 0 < ratio_prev < 0.99:
            est = abs(prev_block) * ratio_prev / (1.0 - ratio_prev)
            if est <= max(ABS_TOL, REL_TOL * scale) * 10:
                return added, CONVERGED, edge, blocks_used
        return added, INCONCLUSIVE, edge, blocks_used

    for k in range(MAX_DECADES):
        if (direction > 0 and edge >= u_limit) or (direction < 0 and edge <= u_limit):
            return _forced_close(k)
        block, new_edge = _decade_block(f, edge, direction)
        if not np.isfinite(block):
            if ratio_prev is not None and ratio_prev < 0.99:
                # decaying trend hit the representable range; close it
                return _forced_close(k + 1)
            # growing contributions beyond float range
            return added, DIVERGENT, new_edge, k + 1
        edge = new_edge
        added += block
        scale = max(scale, abs(added))
        tol = max(ABS_TOL, REL_TOL * scale)
        mag = abs(block)

        if mag <= 0.1 * tol:
            return added, CONVERGED, edge, k + 1

        if prev_block is not None and abs(prev_block) > 0:
            q = mag / abs(prev_block)
            if q >= _DIVERGENCE_RATIO:
                growth_streak += 1
                if growth_streak >= 2:
                    return added, DIVERGENT, edge, k + 1
            else:
                growth_streak = 0
            if closure and q < 0.98:
                est = mag * q / (1.0 - q)
                if prev_est is not None:
                    # exact for a geometric tail: previous estimate must
                    # equal this block plus the new estimate
                    mismatch = abs(prev_est - (mag + est))
                    if mismatch <= 0.3 * tol and est <= 1e6 * scale:
                        sign = 1.0 if block >= 0 else -1.0
                        return added + sign * est, CONVERGED, edge, k + 1
                prev_est = est
            else:
                prev_est = None
            ratio_prev = q
        elif closure and ratio_prev is not None and 0 < ratio_prev < 0.98:
            # seed from the caller's tail hint: try closure immediately
            prev_est = mag * ratio_prev / (1.0 - ratio_prev)
        prev_block = block

    return _forced_close(MAX_DECADES)


def improper_integral(
    f,
    *,
    lo: float = 0.0,
    hi: float = np.inf,
    closure: bool = True,
    tail_exponents: tuple[float, float] | None = None,
) -> IntegralResult:
    """Integrate f over (lo, hi) with adaptive endpoint extension.

    lo = 0 and/or hi = inf request improper handling of that endpoint.
    Finite endpoints are honoured exactly.  tail_exponents, when given,
    are the power-law orders (p0, pinf) of f itself at the endpoints and
    are used to seed the geometric closure.

    Returns an IntegralResult; use :func:`improper_value` to raise on
    divergence instead.
    """
    lower_open = lo == 0.0
    upper_open = np.isinf(hi)
    base_lo = max(EPS_LOW, lo) if lower_open else lo
    base_hi = min(R_HIGH, hi) if upper_open else hi
    if base_lo >= base_hi:
        # base window collapsed (e.g. fixed range inside one decade)
        base_lo = lo if not lower_open else min(lo if lo > 0 else base_hi / 10.0, base_hi / 10.0)
    value = panel_integral(f, base_lo, base_hi)
    if not np.isfinite(value):
        return IntegralResult(value, DIVERGENT, base_lo, base_hi, 0)
    n_eval = 0
    status = CONVERGED
    lo_edge, hi_edge = base_lo, base_hi

    if upper_open:
        q_hint = None
        if tail_exponents is not None:
            q_hint = 10.0 ** (1.0 - tail_exponents[1])  # per-decade ratio of int f dr
            if not (0 < q_hint < 0.9):
                q_hint = None
        add, st, edge, n = _extend(f, np.log(base_hi), +1, value, closure, q_hint)
        value += add
        n_eval += n
        hi_edge = np.exp(edge)
        if st != CONVERGED:
            status = st
    if lower_open and status != DIVERGENT:
        q_hint = None
        if tail_exponents is not None:
            q_hint = 10.0 ** (tail_exponents[0] - 1.0)
            if not (0 < q_hint < 0.9):
                q_hint = None
        add, st, edge, n = _extend(f, np.log(base_lo), -1, value, closure, q_hint)
        value += add
        n_eval += n
        lo_edge = np.exp(edge)
        if st != CONVERGED:
            status = st

    return IntegralResult(value, status, lo_edge, hi_edge, n_eval)


def improper_value(f, **kw) -> float:
    """Like :func:`improper_integral` but raises on non-convergence."""
    res = improper_integral(f, **kw)
    if res.status == DIVERGENT:
        raise DivergentIntegral("integral diverges during cutoff extension")
    if res.status == INCONCLUSIVE:
        raise DivergentIntegral(
            "integral did not stabilise within the subdivision budget"
        )
    return res.value
