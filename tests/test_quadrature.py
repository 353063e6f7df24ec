"""Adaptive quadrature: exactness on panels, improper-endpoint
handling, and divergence classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyreduce import (
    CONVERGED,
    DIVERGENT,
    INCONCLUSIVE,
    DivergentIntegral,
    improper_columns,
    improper_integral,
    improper_value,
    panel_integral,
)


def test_panel_integral_polynomial():
    val = panel_integral(lambda x: 3.0 * x**2, 0.5, 2.0)
    assert abs(val - (8.0 - 0.125)) < 1e-11


def test_panel_integral_additive_in_range():
    f = np.cos
    whole = panel_integral(f, 0.1, 2.0)
    split = panel_integral(f, 0.1, 0.7) + panel_integral(f, 0.7, 2.0)
    assert abs(whole - split) < 1e-12
    assert abs(whole - (np.sin(2.0) - np.sin(0.1))) < 1e-11


def test_panel_integral_rejects_nonpositive_lower_edge():
    with pytest.raises(ValueError):
        panel_integral(np.cos, 0.0, 1.0)


def test_panel_integral_over_many_ranges_matches_one_range_calls():
    # ranges of one, several and many panels, each refined on its own
    f = lambda r: r**-1.5 * np.exp(-r)  # noqa: E731
    lo = np.r_[np.geomspace(0.01, 100.0, 41)[:-1], 0.1, 1e-3]
    hi = np.r_[np.geomspace(0.01, 100.0, 41)[1:], 1e3, 1e6]
    out = panel_integral(f, lo, hi)
    assert out.shape == lo.shape
    for k in range(lo.size):
        assert out[k] == panel_integral(f, lo[k], hi[k])
    assert panel_integral(f, lo.reshape(2, 21), hi.reshape(2, 21)).shape == (2, 21)


def test_columns_equal_one_column_calls_bit_for_bit():
    # e^(-c r) r^-p, one column per (c, p); r^-1.5 diverges at 0 and
    # leaves the lockstep early without disturbing the other columns
    c = np.array([0.01, 0.5, 1.0, 3.0, 40.0])
    p = np.array([0.3, 0.3, 1.5, 0.3, 0.9])

    def f(r, col):
        return np.exp(-c[col] * r) * r ** -p[col]

    for lo, hi in ((0.0, np.inf), (3e-3, np.inf), (0.0, 2.0)):
        results = improper_columns(f, c.size, lo=lo, hi=hi)
        for k, res in enumerate(results):
            alone = improper_integral(lambda r, _k=k: f(r, np.full(r.size, _k)), lo=lo, hi=hi)
            assert res == alone
        assert (results[2].status == DIVERGENT) == (lo == 0.0)
        assert results[0].status == results[1].status == CONVERGED


def test_improper_integral_exponential_tail():
    res = improper_integral(lambda r: np.exp(-r), lo=0.0, hi=np.inf)
    assert res.status == CONVERGED
    assert abs(res.value - 1.0) < 1e-9


def test_improper_integral_endpoint_singularity():
    # integrable singularity r^(-1/2) over (0, 1]
    res = improper_integral(lambda r: r**-0.5, lo=0.0, hi=1.0)
    assert res.status == CONVERGED
    assert abs(res.value - 2.0) < 1e-8


def test_improper_integral_detects_divergence_at_zero():
    res = improper_integral(lambda r: r**-1.5, lo=0.0, hi=1.0)
    assert res.status == DIVERGENT


def test_improper_integral_detects_divergence_at_infinity():
    res = improper_integral(lambda r: 1.0 / r, lo=1.0, hi=np.inf)
    assert res.status == DIVERGENT


def test_improper_value_raises_on_divergence():
    with pytest.raises(DivergentIntegral):
        improper_value(lambda r: r**-2.0, lo=0.0, hi=1.0)


def test_range_limit_reports_blocks_integrated(monkeypatch):
    # r^(-1.003) decays by 0.993 per decade: neither divergent nor
    # closable, so extension runs until the representable range stops it
    from levyreduce import quadrature

    calls = []
    block = quadrature._decade_block
    monkeypatch.setattr(
        quadrature, "_decade_block", lambda *a: calls.append(a) or block(*a)
    )
    res = improper_integral(lambda r: r**-1.003, lo=1.0)
    assert res.status == INCONCLUSIVE
    assert 0 < res.n_eval == len(calls) < quadrature.MAX_DECADES
    with pytest.raises(DivergentIntegral, match="did not stabilise"):
        improper_value(lambda r: r**-1.003, lo=1.0)


def test_finite_endpoints_honoured_exactly():
    res = improper_integral(lambda r: np.ones_like(r), lo=0.25, hi=0.75)
    assert res.status == CONVERGED
    assert abs(res.value - 0.5) < 1e-13


@pytest.mark.parametrize("lo, hi", [(2.0, 1.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, np.inf)])
def test_reversed_or_negative_range_rejected(lo, hi):
    with pytest.raises(ValueError, match="0 <= lo < hi"):
        improper_integral(lambda r: np.ones_like(r), lo=lo, hi=hi)


@pytest.mark.parametrize(
    "lo, hi", [(1e7, np.inf), (1e9, np.inf), (1e12, np.inf), (0.0, 1e-10)]
)
def test_base_window_stays_inside_the_range(lo, hi):
    # an open end more than a decade beyond the base window's edge
    # (above 1e8, below 1e-8) collapses that window; f must still see
    # only radii in (lo, hi).  Both integrands come to B(3/2, 3/2) = pi/8
    seen = []

    def f(r):
        seen.append(r)
        if np.isinf(hi):
            return lo**1.5 * np.sqrt(r - lo) * r**-3.0
        return 0.25 * np.sqrt((hi - r) / r) / hi

    res = improper_integral(f, lo=lo, hi=hi)
    r = np.concatenate(seen)
    assert np.all((lo < r) & (r < hi))
    assert res.status == CONVERGED
    assert res.value == pytest.approx(np.pi / 8.0, rel=1e-9)


def test_tail_probes_classify_power_laws():
    # int_eps^1 r^(-0.5) dr converges, r^(-1.5) diverges
    assert improper_integral(lambda r: r**-0.5, lo=0.0, hi=1.0).status == CONVERGED
    assert improper_integral(lambda r: r**-1.5, lo=0.0, hi=1.0).status == DIVERGENT
    # mirrored at infinity
    assert improper_integral(lambda r: r**-1.5, lo=1.0, hi=np.inf).status == CONVERGED
    assert improper_integral(lambda r: r**-0.5, lo=1.0, hi=np.inf).status == DIVERGENT


def test_lower_tail_probe_value():
    res = improper_integral(lambda r: r**-0.5, lo=0.0, hi=1.0)
    assert abs(res.value - 2.0) < 1e-6


def test_determinism():
    f = lambda r: np.exp(-r) * r**-0.3  # noqa: E731
    a = improper_integral(f, lo=0.0, hi=np.inf)
    b = improper_integral(f, lo=0.0, hi=np.inf)
    assert a == b


@settings(max_examples=40, deadline=None)
@given(
    p=st.floats(min_value=0.05, max_value=0.9),
    scale=st.floats(min_value=0.1, max_value=10.0),
)
def test_power_singularity_closed_form(p, scale):
    # int_0^1 s r^(-p) dr = s / (1 - p)
    res = improper_integral(lambda r, _s=scale, _p=p: _s * r**-_p, lo=0.0, hi=1.0)
    assert res.status == CONVERGED
    assert abs(res.value - scale / (1.0 - p)) < 1e-7 * scale / (1.0 - p)
