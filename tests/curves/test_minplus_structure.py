"""Differential property tests for the structure-aware min-plus fast paths.

The generic per-interval line-envelope kernel is the oracle: every fast
path (convex ⊗ convex slope merge, concave ⊗ concave pointwise minimum,
concave ⊘ convex closed form) must agree with it pointwise on random
curves.  The fast paths assemble results with ``np.cumsum``, so agreement
is to within a few ulps, not bit-exact — the comparisons use a tight
relative tolerance (1e-12) rather than ``array_equal``.

The curve strategies build breakpoint values with *sequential* cumulative
sums over ``np.diff``-derived segment lengths; that reproduces the exact
float additions the continuity check in the shape classifier performs, so
every generated curve classifies as the shape it was constructed to have.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves.curve import PiecewiseLinearCurve
from repro.curves.minplus import (
    convolve,
    convolve_generic,
    deconvolve,
    deconvolve_generic,
)
from repro.reference import is_concave_brute, is_convex_brute

#: Generic-path tests run once per generic kernel: ``numpy`` is the oracle
#: construction, ``soa`` the memoized production entry point (whose
#: generic pairs run the SoA kernel).
CONVOLVE = {"numpy": convolve_generic, "soa": convolve}
BACKENDS = sorted(CONVOLVE)

RTOL = 1e-12
ATOL = 1e-12


def _xs(draw, n):
    if n == 1:
        return np.array([0.0])
    gaps = draw(
        st.lists(st.floats(min_value=0.25, max_value=4.0), min_size=n - 1, max_size=n - 1)
    )
    return np.concatenate(([0.0], np.cumsum(gaps)))


def _slopes(slope_min, slope_max):
    # zero slope is a real edge case (plateaus, pure bursts) worth keeping;
    # slopes *between* 0 and slope_min are excluded because the generic
    # oracle itself truncates near-underflow slopes (e.g. 4e-68 -> 0), and
    # a crossover breakpoint at x ~ 1/slope then probes the curves at
    # astronomical abscissae where that truncation dominates
    if slope_min <= 0.0:
        return st.one_of(
            st.just(0.0), st.floats(min_value=0.01, max_value=slope_max)
        )
    return st.floats(min_value=slope_min, max_value=slope_max)


@st.composite
def convex_curves(draw, max_segments=6, slope_min=0.0, slope_max=6.0):
    """Random convex curves: no burst, slopes non-decreasing, continuous."""
    n = draw(st.integers(min_value=1, max_value=max_segments))
    xs = _xs(draw, n)
    raw = draw(st.lists(_slopes(slope_min, slope_max), min_size=n, max_size=n))
    ss = np.sort(np.asarray(raw, dtype=float))
    ys = np.cumsum(np.concatenate(([0.0], np.diff(xs) * ss[:-1])))
    return PiecewiseLinearCurve(xs, ys, ss)


@st.composite
def concave_curves(draw, max_segments=6, slope_min=0.0, slope_max=6.0):
    """Random concave curves: optional burst at 0, slopes non-increasing,
    continuous on the open half-line."""
    n = draw(st.integers(min_value=1, max_value=max_segments))
    xs = _xs(draw, n)
    raw = draw(st.lists(_slopes(slope_min, slope_max), min_size=n, max_size=n))
    ss = np.sort(np.asarray(raw, dtype=float))[::-1].copy()
    burst = draw(st.floats(min_value=0.0, max_value=5.0))
    ys = np.cumsum(np.concatenate(([burst], np.diff(xs) * ss[:-1])))
    return PiecewiseLinearCurve(xs, ys, ss)


@st.composite
def jumpy_curves(draw, max_segments=4):
    """Random non-decreasing curves with jumps — almost always 'general'."""
    n = draw(st.integers(min_value=1, max_value=max_segments))
    xs = _xs(draw, n)
    ss = np.asarray(draw(st.lists(_slopes(0.0, 5.0), min_size=n, max_size=n)))
    jumps = np.asarray(
        draw(st.lists(st.floats(min_value=0.0, max_value=4.0), min_size=n, max_size=n))
    )
    ys = np.cumsum(np.concatenate(([jumps[0]], np.diff(xs) * ss[:-1] + jumps[1:])))
    return PiecewiseLinearCurve(xs, ys, ss)


def _probe_grid(*curves):
    """Breakpoints of all operands, midpoints, and a tail past the last."""
    pts = np.unique(np.concatenate([c.breakpoints for c in curves]))
    last = float(pts[-1])
    mids = (pts[:-1] + pts[1:]) / 2.0 if pts.size > 1 else np.empty(0)
    tail = np.linspace(last + 0.5, 2.0 * last + 8.0, 12)
    return np.unique(np.concatenate((pts, mids, tail)))


class TestClassification:
    @given(convex_curves())
    @settings(max_examples=60, deadline=None)
    def test_convex_strategy_classifies_convex(self, f):
        assert f.is_convex
        assert is_convex_brute(f)

    @given(concave_curves())
    @settings(max_examples=60, deadline=None)
    def test_concave_strategy_classifies_concave(self, f):
        assert f.is_concave
        assert is_concave_brute(f)

    @given(jumpy_curves())
    @settings(max_examples=60, deadline=None)
    def test_classification_is_sound(self, f):
        # the classifier may conservatively say "general" (only a missed
        # speedup), but a convex/concave verdict must be *true*
        if f.is_convex:
            assert is_convex_brute(f)
        if f.is_concave:
            assert is_concave_brute(f)


class TestConvolveFastPaths:
    @given(convex_curves(), convex_curves())
    @settings(max_examples=80, deadline=None)
    def test_convex_matches_generic(self, f, g):
        fast = convolve(f, g)
        oracle = convolve_generic(f, g)
        pts = _probe_grid(f, g, fast, oracle)
        np.testing.assert_allclose(fast(pts), oracle(pts), rtol=RTOL, atol=ATOL)
        assert fast.is_convex
        # simplified() may recompute a merged slope from segment endpoints,
        # so the tail rate can drift by an ulp
        assert fast.final_slope == pytest.approx(
            min(f.final_slope, g.final_slope), rel=1e-12
        )

    @given(concave_curves(), concave_curves())
    @settings(max_examples=80, deadline=None)
    def test_concave_matches_generic(self, f, g):
        fast = convolve(f, g)
        oracle = convolve_generic(f, g)
        pts = _probe_grid(f, g, fast, oracle)
        np.testing.assert_allclose(fast(pts), oracle(pts), rtol=RTOL, atol=ATOL)
        assert fast.is_concave

    @pytest.mark.parametrize("backend_name", BACKENDS)
    @given(convex_curves(), concave_curves())
    @settings(max_examples=40, deadline=None)
    def test_mixed_dispatches_to_generic(self, backend_name, f, g):
        # mixed shapes fall through to the generic kernel; the memoized
        # entry point must still agree with a direct oracle call
        out = CONVOLVE[backend_name](f, g)
        oracle = convolve_generic(f, g)
        pts = _probe_grid(f, g, out, oracle)
        np.testing.assert_allclose(out(pts), oracle(pts), rtol=RTOL, atol=ATOL)

    @pytest.mark.parametrize("backend_name", BACKENDS)
    @given(jumpy_curves(), jumpy_curves())
    @settings(max_examples=40, deadline=None)
    def test_general_curves_match_generic(self, backend_name, f, g):
        out = CONVOLVE[backend_name](f, g)
        oracle = convolve_generic(f, g)
        pts = _probe_grid(f, g, out, oracle)
        np.testing.assert_allclose(out(pts), oracle(pts), rtol=RTOL, atol=ATOL)


class TestDeconvolveFastPath:
    # f concave with slopes <= 2, g convex with slopes >= 2, so the
    # divergence gate f.final_slope <= g.final_slope always holds
    @given(
        concave_curves(slope_min=0.1, slope_max=2.0),
        convex_curves(slope_min=2.0, slope_max=6.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_concave_convex_matches_generic(self, f, g):
        fast = deconvolve(f, g)
        oracle = deconvolve_generic(f, g)
        pts = _probe_grid(f, g, fast, oracle)
        np.testing.assert_allclose(fast(pts), oracle(pts), rtol=RTOL, atol=ATOL)
        assert fast.is_concave
        assert fast.final_slope == pytest.approx(f.final_slope, rel=1e-12)

    def test_leaky_bucket_through_rate_latency_closed_form(self):
        # gamma_{b,r} (/) beta_{R,T} = gamma_{b + r T, r} for r <= R
        b, r, big_r, t = 3.0, 1.5, 4.0, 2.0
        f = PiecewiseLinearCurve([0.0], [b], [r])
        g = PiecewiseLinearCurve([0.0, t], [0.0, 0.0], [0.0, big_r])
        out = deconvolve(f, g)
        pts = np.linspace(0.0, 10.0, 21)
        np.testing.assert_allclose(out(pts), b + r * t + r * pts, rtol=1e-12)


class TestShapeRestamping:
    def test_convex_result_not_demoted_to_general(self):
        # cumsum-assembled breakpoints can differ in the last ulp from what
        # the exact-equality continuity check expects; the construction
        # proof must survive (else chained convolutions lose the fast path)
        fx = np.array([0.0, 1.0, 2.5])
        fs = np.array([0.3, 1.2, 3.0])
        f = PiecewiseLinearCurve(
            fx, np.cumsum(np.concatenate(([0.0], np.diff(fx) * fs[:-1]))), fs
        )
        gx = np.array([0.0, 0.7])
        gs = np.array([0.5, 2.0])
        g = PiecewiseLinearCurve(
            gx, np.cumsum(np.concatenate(([0.0], np.diff(gx) * gs[:-1]))), gs
        )
        assert f.shape == "convex" and g.shape == "convex"
        out = convolve(f, g)
        assert out.shape in ("convex", "affine")
        again = convolve(out, f)
        assert again.shape in ("convex", "affine")
