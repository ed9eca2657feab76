"""Property-based tests for the PWL curve kernel and min-plus algebra."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.curves.arrival import leaky_bucket
from repro.curves.bounds import backlog_bound, delay_bound
from repro.curves.curve import PiecewiseLinearCurve
from repro.curves.minplus import convolve, deconvolve
from repro.curves.service import rate_latency


@st.composite
def pwl_curves(draw, max_segments=4):
    """Random continuous non-decreasing PWL curves (no jumps)."""
    n = draw(st.integers(min_value=1, max_value=max_segments))
    gaps = draw(
        st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=n - 1, max_size=n - 1)
    )
    xs = np.concatenate(([0.0], np.cumsum(gaps))) if n > 1 else np.array([0.0])
    slopes = np.array(
        draw(st.lists(st.floats(min_value=0.0, max_value=8.0), min_size=n, max_size=n))
    )
    y0 = draw(st.floats(min_value=0.0, max_value=10.0))
    ys = [y0]
    for i in range(1, n):
        ys.append(ys[-1] + slopes[i - 1] * (xs[i] - xs[i - 1]))
    return PiecewiseLinearCurve(xs, np.array(ys), slopes)


@given(pwl_curves(), pwl_curves())
@settings(max_examples=40, deadline=None)
# final slopes a subnormal apart: the tail crossing overflows to inf
@example(
    f=PiecewiseLinearCurve([0.0], [1.0], [0.0]),
    g=PiecewiseLinearCurve([0.0], [0.0], [2.22507e-313]),
)
def test_max_min_exact(f, g):
    m = f.maximum(g)
    mn = f.minimum(g)
    probes = np.unique(
        np.concatenate((m.breakpoints, mn.breakpoints, np.linspace(0, 15, 31)))
    )
    assert np.allclose(m(probes), np.maximum(f(probes), g(probes)), atol=1e-8)
    assert np.allclose(mn(probes), np.minimum(f(probes), g(probes)), atol=1e-8)


@given(pwl_curves(), pwl_curves())
@settings(max_examples=40, deadline=None)
def test_addition_exact(f, g):
    s = f + g
    probes = np.linspace(0, 15, 31)
    assert np.allclose(s(probes), f(probes) + g(probes), atol=1e-8)


@given(pwl_curves(), pwl_curves())
@settings(max_examples=25, deadline=None)
@example(
    f=PiecewiseLinearCurve([0.0], [1.0], [0.0]),
    g=PiecewiseLinearCurve([0.0], [0.0], [4.94066e-324]),
)
def test_convolution_below_both_translates(f, g):
    """(f⊗g)(Δ) <= f(0⁺-free) evaluations: conv is below f(Δ)+g(0)=... and
    below min at plausible split points (soundness of the inf)."""
    c = convolve(f, g)
    for d in np.linspace(0.01, 12, 13):
        # any concrete split bounds the inf from above
        for s in (0.0, d / 3, d / 2, d):
            fv = 0.0 if s == 0 else float(f(s))
            gv = 0.0 if d - s == 0 else float(g(d - s))
            assert c(d) <= fv + gv + 1e-8


@given(pwl_curves(), pwl_curves())
@settings(max_examples=25, deadline=None)
def test_convolution_monotone_nonnegative(f, g):
    c = convolve(f, g)
    ds = np.linspace(0, 20, 41)
    vals = c(ds)
    assert np.all(vals >= -1e-12)
    assert np.all(np.diff(vals) >= -1e-8)


@given(pwl_curves())
@settings(max_examples=25, deadline=None)
def test_deconvolution_by_zero_latency_identity(f):
    """f ⊘ β for an instantaneous infinite-rate-ish server ~ f itself when
    the server dominates (here: rate far above f's growth)."""
    fast = rate_latency(1000.0, 0.0)
    if f.final_slope > fast.final_slope:
        return
    out = deconvolve(f, fast)
    ds = np.linspace(0, 10, 21)
    assert np.all(out(ds) >= f(ds) - 1e-8)


@given(
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.0, max_value=5.0),
)
@settings(max_examples=60, deadline=None)
def test_backlog_delay_closed_forms(burst, rate, srv_rate, latency):
    """For leaky-bucket α and rate-latency β with R >= r the classical
    formulas hold exactly."""
    if srv_rate < rate:
        return
    a = leaky_bucket(burst, rate)
    b = rate_latency(srv_rate, latency)
    assert backlog_bound(a, b) == pytest.approx(burst + rate * latency, abs=1e-8)
    assert delay_bound(a, b) == pytest.approx(latency + burst / srv_rate, abs=1e-8)
