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
  sum, which is applied once two successive closures agree; a tail
  closes only across blocks of one sign.

The second point matters: tails like r^(-0.1) decay so slowly that a
naive truncate-at-large-R rule would need cutoffs beyond 1e80 to reach
1e-9 accuracy.  The geometric closure reaches it in a handful of
decades and is exact for pure power laws.

The engine works on columns: m integrals at once, given as f(r, col),
the integrand of the columns col at the radii r.  r is 1-d, and f
broadcasts it against col, which comes in one of two shapes:

* on the panels every column shares (the base window, each extension
  decade, and the first bisection of either), r holds the k nodes of
  those panels once and col is (m, 1), so f returns (m, k); the radii,
  and an optional column-free factor(r) such as a measure's density,
  are evaluated once per node, and f is called on column slices of at
  most _SLICE values;
* on the panels a column refined on its own, col has r's shape and
  f returns the integrand of column col[i] at r[i]; f is called on
  slices of whole columns of at most _SLICE nodes, or on one column
  alone where it has more.

Each column keeps its own refinement scale, extension state, tail
closure and divergence classification, and leaves the lockstep as soon
as it is settled.  Every column's panels are reduced by a product over
that column's panels alone, so a column's result equals bit for bit
the one it gets when integrated by itself; :func:`improper_integral`
and :func:`panel_integral` are the one-column case.
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


# Accuracy of every radial integral: the tolerance relative to its size,
# the budget of extension decades per endpoint before a slow integral
# is declared inconclusive, and the base window extension starts from.
REL_TOL = 1e-9
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
    n_eval: int


def _distinct(a) -> np.ndarray:
    """The sorted distinct values of a, the array np.unique(a) returns;
    the plain np.unique imports numpy.ma, about 14 ms of start-up."""
    a = np.sort(np.ravel(a))
    first = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a[first]


def panel_integral(f, lo, hi):
    """Integrate f over the finite range [lo, hi] on log-spaced panels.

    f must accept a 1-d numpy array of radii and return the integrand
    values.  lo must be positive.  lo and hi may also be arrays of
    ranges: each range is then one column, refined to its own tolerance
    in the same pass, and the result has their shape.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    if not np.all((0.0 < lo) & (lo < hi)):
        raise ValueError("require 0 < lo < hi")
    u_lo, u_hi = np.log(lo.ravel()), np.log(hi.ravel())
    n_panels = np.maximum(1, np.ceil((u_hi - u_lo) * _PANELS_PER_DECADE / _DECADE)).astype(int)
    # ranges with one panel count share a linspace; the stable sort then
    # puts each range's panels together and in order
    parts = []
    for n in _distinct(n_panels):
        k = np.flatnonzero(n_panels == n)
        edges = np.linspace(u_lo[k], u_hi[k], n + 1, axis=-1)
        parts.append((k.repeat(n), edges[:, :-1].ravel(), edges[:, 1:].ravel()))
    col, u0, u1 = (np.concatenate(a) for a in zip(*parts))
    order = np.argsort(col, kind="stable")
    sums = _panel_sum(lambda r, _col: f(r), col[order], u0[order], u1[order])
    return float(sums[0]) if lo.ndim == 0 else sums.reshape(lo.shape)


# Panel-splitting thresholds for _panel_sum: a panel whose bisected
# estimate moves by more than the tolerance (relative to the whole sum
# of its column) is split again, so integrands localized inside one log
# panel still resolve.  Smooth power-law panels settle on the first split.
_REFINE_TOL = 1e-12
_MAX_REFINE_DEPTH = 12

# Integrand values per call of f, on shared and on per-column panels:
# column slices this size keep f's temporaries in cache however many
# columns are in play.
_SLICE = 1 << 15


def _layout(col: np.ndarray):
    """Column position of every panel (col sorted, each column's panels
    together) and the positions of each column's panels, as (g, c) index
    arrays, one per panel count c."""
    n = col.size
    if col[0] == col[-1]:
        return np.zeros(n, dtype=int), [np.arange(n)[None, :]]
    step = col[1:] != col[:-1]
    pos = np.concatenate(([0], np.cumsum(step)))
    first = np.concatenate(([0], np.flatnonzero(step) + 1))
    count = np.diff(first, append=n)
    return pos, [first[count == c][:, None] + np.arange(c) for c in _distinct(count)]


def _column_sums(values: np.ndarray, pos: np.ndarray, runs, n: int) -> np.ndarray:
    """Sums of values per column position (pos sorted, in 0..n-1, runs
    from _layout), each summed exactly as np.sum sums that column's
    values alone."""
    out = np.zeros(n)
    for idx in runs:
        out[pos[idx[:, 0]]] = values[idx].sum(axis=1)
    return out


def _panel_block(f, col, lo, hi, runs):
    """GL-16 estimates for a batch of panels given u-space edge arrays;
    panel i belongs to column col[i], laid out in runs.  f sees slices of
    whole columns of at most _SLICE nodes, or one column where it alone
    has more, so each column rounds as in one call."""
    if col.size * _GL_X.size <= _SLICE:
        return _panel_slice(f, col, lo, hi, runs)
    starts = np.sort(np.concatenate([idx[:, 0] for idx in runs]))
    ends = np.append(starts[1:], col.size)
    est = np.empty(col.size)
    a = 0
    while a < col.size:
        # the last column end within the slice, or the first column's own
        first = np.searchsorted(starts, a)
        b = ends[max(first, np.searchsorted(ends, a + _SLICE // _GL_X.size, side="right") - 1)]
        cut = [idx[(idx[:, 0] >= a) & (idx[:, 0] < b)] - a for idx in runs]
        est[a:b] = _panel_slice(f, col[a:b], lo[a:b], hi[a:b], [c for c in cut if c.size])
        a = b
    return est


def _panel_slice(f, col, lo, hi, runs):
    """_panel_block on panels of at most _SLICE nodes, or of one column."""
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    r = np.exp(mid[:, None] + half[:, None] * _GL_X[None, :])
    # du-measure picks up a factor r from dr = r du
    weighted = f(r.ravel(), col.repeat(_GL_X.size)).reshape(r.shape) * r
    # one product per column over its own panels, so every column rounds
    # exactly as it does when integrated alone
    if len(runs) == 1:
        # one panel count for every column: the runs are a reshape
        est = (weighted.reshape(*runs[0].shape, _GL_X.size) @ _GL_W).ravel()
    else:
        est = np.empty(col.size)
        for idx in runs:
            est[idx] = weighted[idx] @ _GL_W
    return est * half


def _shared_block(f, factor, cols, lo, hi):
    """GL-16 estimates of the columns cols on the panels [lo[j], hi[j]]
    that all of them share, as an (m, P) array.  The radii and factor(r)
    are evaluated once per node; f sees column slices of cols[:, None]."""
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    r = np.exp(mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    common = None if factor is None else factor(r)
    est = np.empty((cols.size, lo.size))
    step = max(1, _SLICE // r.size)
    for a in range(0, cols.size, step):
        col = cols[a : a + step, None]
        values = f(r, col) if common is None else f(r, col) * common
        # du-measure picks up a factor r from dr = r du; one product per
        # column, as in _panel_block, and one row for all if f ignores col
        weighted = (values * r).reshape(-1, lo.size, _GL_X.size)
        est[a : a + step] = weighted @ _GL_W
    est *= half
    return est


def _panel_sum(f, col, lo, hi):
    """Adaptive Gauss-Legendre sums over log panels in u-space.

    Panel i, [lo[i], hi[i]], belongs to column col[i]; col is sorted and
    each column's panels are in order.  Every column refines against its
    own scale, and the sums are returned in the order of np.unique(col).
    """
    pos, runs = _layout(col)
    n = int(pos[-1]) + 1
    est = _panel_block(f, col, lo, hi, runs)
    scale = np.maximum(_column_sums(np.abs(est), pos, runs, n), 1e-300)
    return _refine(f, pos, runs, col, lo, hi, est, scale, np.zeros(n), _MAX_REFINE_DEPTH)


def _refine(f, pos, runs, col, lo, hi, est, scale, total, depth):
    """Bisect panels, at most depth times, until each one's estimate
    settles against the scale of its column, and add the settled sums
    to total, which is indexed by column position like scale.  pos and
    runs lay out the panels as in _layout."""
    n = total.size
    for _ in range(depth):
        mid = 0.5 * (lo + hi)
        left = _panel_block(f, col, lo, mid, runs)
        right = _panel_block(f, col, mid, hi, runs)
        refined = left + right
        done = np.abs(refined - est) <= _REFINE_TOL * scale[pos]
        if done.all():
            return total + _column_sums(refined, pos, runs, n)
        if done.any():
            total += _column_sums(refined[done], pos[done], _layout(pos[done])[1], n)
        keep = ~done
        pos, col, lo, hi, est = _halves(
            pos[keep], col[keep], lo[keep], mid[keep], hi[keep], left[keep], right[keep]
        )
        runs = _layout(pos)[1]
    return total + _column_sums(est, pos, runs, n)


def _halves(pos, col, lo, mid, hi, left, right):
    """The halves of the panels kept for splitting, as (pos, col, lo, hi,
    est): each column's left halves, then its right halves."""
    pos = np.concatenate([pos, pos])
    order = np.argsort(pos, kind="stable")
    return (
        pos[order],
        np.concatenate([col, col])[order],
        np.concatenate([lo, mid])[order],
        np.concatenate([mid, hi])[order],
        np.concatenate([left, right])[order],
    )


def _shared_sum(f, factor, cols: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Sums of the columns cols of f(r, col) * factor(r) over the same
    u-space panel edges.  The panels and their first bisection are
    shared by every column and evaluated in shared form, as (m, P)
    arrays; only the panels a column splits further are laid out flat.
    Each step rounds as _panel_sum's does on the same panels."""
    u_lo, u_hi = edges[:-1], edges[1:]
    u_mid = 0.5 * (u_lo + u_hi)
    est = _shared_block(f, factor, cols, u_lo, u_hi)
    left = _shared_block(f, factor, cols, u_lo, u_mid)
    right = _shared_block(f, factor, cols, u_mid, u_hi)
    n = cols.size
    scale = np.maximum(np.abs(est).sum(axis=1), 1e-300)
    refined = left + right
    done = np.abs(refined - est) <= _REFINE_TOL * scale[:, None]
    total = np.zeros(n)
    if done.all():
        return total + refined.sum(axis=1)
    if done.any():
        pos = np.repeat(np.arange(n), done.sum(axis=1))
        total += _column_sums(refined[done], pos, _layout(pos)[1], n)
    keep = ~done
    rows, panels = np.nonzero(keep)
    pos, col, lo, hi, est = _halves(
        rows, cols[rows], u_lo[panels], u_mid[panels], u_hi[panels], left[keep], right[keep]
    )
    if factor is not None:
        f = lambda r, col, _f=f: _f(r, col) * factor(r)  # noqa: E731
    return _refine(f, pos, _layout(pos)[1], col, lo, hi, est, scale, total, _MAX_REFINE_DEPTH - 1)


def _decade_block(f, factor, cols, u_start: float, direction: int):
    """Integrals of the columns cols over one decade extending from u_start.

    direction +1 extends upward, -1 downward.  Returns (values, new_edge).
    """
    if direction > 0:
        edges = np.linspace(u_start, u_start + _DECADE, _PANELS_PER_DECADE + 1)
        new_edge = u_start + _DECADE
    else:
        edges = np.linspace(u_start - _DECADE, u_start, _PANELS_PER_DECADE + 1)
        new_edge = u_start - _DECADE
    return _shared_sum(f, factor, cols, edges), new_edge


def _extend(f, factor, cols, u_start, direction, scale_hint):
    """Extend an improper endpoint decade by decade, for the columns cols.

    Returns arrays (added_value, status, n_blocks) aligned with cols.
    scale_hint holds the magnitude of each column's integral gathered
    so far; tolerances are REL_TOL relative to it however small it is
    (it is updated as blocks accumulate), so a column whose blocks are
    exactly 0 converges at once.  The columns share each decade while
    they extend, but every column keeps its own state and leaves the
    live set as soon as it converges, diverges or closes its tail.

    A tail closes geometrically only across two blocks of one sign: the
    consistency test compares successive tail estimates, which is
    meaningless under cancellation.  Columns the loop leaves open (the
    range or the budget ran out, or a decaying trend overflowed) get one
    forced close at the end.
    """
    n = cols.size
    status = np.full(n, INCONCLUSIVE, dtype=object)
    n_blocks = np.zeros(n, dtype=int)
    # per-column state, read and written through live; NaN marks a
    # previous block, tail estimate or ratio not yet set
    added = np.zeros(n)
    scale = np.abs(scale_hint)
    prev_block = np.full(n, np.nan)
    prev_est = np.full(n, np.nan)
    ratio_prev = np.full(n, np.nan)
    growth_streak = np.zeros(n, dtype=int)
    live = np.arange(n)
    edge = u_start
    u_limit = _U_MAX if direction > 0 else _U_MIN

    for _ in range(MAX_DECADES):
        if live.size == 0 or direction * (edge - u_limit) >= 0:
            break
        block, edge = _decade_block(f, factor, cols[live], edge, direction)
        n_blocks[live] += 1
        finite = np.isfinite(block)
        if not finite.all():
            # a decaying trend hit the representable range and is closed
            # below; otherwise the contributions grew beyond float range
            over = live[~finite]
            status[over[~(ratio_prev[over] < 0.99)]] = DIVERGENT
            live, block = live[finite], block[finite]
        added[live] += block
        scale[live] = np.maximum(scale[live], np.abs(added[live]))
        tol = REL_TOL * scale[live]
        mag = np.abs(block)

        prev = prev_block[live]
        has_prev = np.abs(prev) > 0
        q = mag / np.where(has_prev, np.abs(prev), 1.0)
        growing = has_prev & (q >= _DIVERGENCE_RATIO)
        streak = np.where(has_prev, (growth_streak[live] + 1) * growing, growth_streak[live])
        # geometric tail estimate from the ratio measured on this block
        ratio = np.where(has_prev, q, ratio_prev[live])
        q_tail = np.where((block * prev > 0) & (ratio < 0.98), ratio, np.nan)
        est = mag * q_tail / (1.0 - q_tail)

        converged = mag <= 0.1 * tol
        diverged = growing & (streak >= 2) & ~converged
        # exact for a geometric tail: the previous estimate must equal
        # this block plus the new estimate
        closed = (
            (np.abs(prev_est[live] - (mag + est)) <= 0.3 * tol)
            & (est <= 1e6 * scale[live])
            & ~converged
        )
        added[live[closed]] += np.where(block >= 0, est, -est)[closed]
        status[live[converged | closed]] = CONVERGED
        status[live[diverged]] = DIVERGENT
        prev_est[live] = np.where(has_prev, est, prev_est[live])
        ratio_prev[live] = ratio
        prev_block[live] = block
        growth_streak[live] = streak
        live = live[~(converged | diverged | closed)]

    # forced close of the columns left open: close the tail from the
    # last ratio if the trend was decaying and the leftover is provably
    # small
    q = np.where((0 < ratio_prev) & (ratio_prev < 0.99), ratio_prev, np.nan)
    small = np.abs(prev_block) * q / (1.0 - q) <= REL_TOL * scale * 10
    status[(status == INCONCLUSIVE) & small] = CONVERGED
    return added, status, n_blocks


def improper_columns(
    f,
    m: int,
    *,
    lo: float = 0.0,
    hi: float = np.inf,
    factor=None,
) -> list[IntegralResult]:
    """Integrate m integrands over (lo, hi) at once, with adaptive
    endpoint extension.

    The integrand of column c is f(r, c) * factor(r), or f(r, c) when
    factor is None.  r is a 1-d array of radii and f broadcasts it
    against col: col is (m', 1) on panels that the columns share, where
    f returns (m', r.size), and has r's shape on panels a column refined
    alone, where f returns the integrand of column col[i] at r[i].
    factor maps a 1-d array of radii to values and is evaluated once
    per node of the shared panels.  Each column keeps its own
    refinement, extension and divergence state, and its result equals
    bit for bit the one it gets when integrated alone.  lo = 0 and/or
    hi = inf request improper handling of that endpoint.  Finite
    endpoints are honoured exactly.

    Returns one IntegralResult per column; raises ValueError unless
    0 <= lo < hi.
    """
    if not 0.0 <= lo < hi:
        raise ValueError("require 0 <= lo < hi")
    lower_open = lo == 0.0
    upper_open = np.isinf(hi)
    base_lo = max(EPS_LOW, lo) if lower_open else lo
    base_hi = min(R_HIGH, hi) if upper_open else hi
    if base_lo >= base_hi:
        # base window collapsed (a range inside one decade of an open
        # end): widen it one decade into that end, so f never sees r
        # outside (lo, hi)
        if lower_open:
            base_lo = base_hi / 10.0
        elif upper_open:
            base_hi = 10.0 * lo
    u_lo, u_hi = np.log(base_lo), np.log(base_hi)
    n_panels = max(1, int(np.ceil((u_hi - u_lo) * _PANELS_PER_DECADE / _DECADE)))
    value = _shared_sum(f, factor, np.arange(m), np.linspace(u_lo, u_hi, n_panels + 1))
    status = np.full(m, CONVERGED, dtype=object)
    status[~np.isfinite(value)] = DIVERGENT
    n_eval = np.zeros(m, dtype=int)

    # (direction, start) of each open end
    sides = [(+1, u_hi)] if upper_open else []
    if lower_open:
        sides.append((-1, u_lo))
    for direction, start in sides:
        live = np.flatnonzero(status != DIVERGENT)
        add, st, n = _extend(f, factor, live, start, direction, value[live])
        value[live] += add
        n_eval[live] += n
        failed = st != CONVERGED
        status[live[failed]] = st[failed]

    return [IntegralResult(float(v), s, int(k)) for v, s, k in zip(value, status, n_eval)]


def improper_integral(
    f,
    *,
    lo: float = 0.0,
    hi: float = np.inf,
) -> IntegralResult:
    """Integrate f over (lo, hi) with adaptive endpoint extension: the
    one-column case of :func:`improper_columns`, for an f that maps a
    1-d array of radii to integrand values.

    Returns an IntegralResult; use :func:`improper_value` to raise on
    divergence instead.
    """
    return improper_columns(lambda r, _col: f(r), 1, lo=lo, hi=hi)[0]


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
