"""Construction-proved shape tags must survive curve operations.

The shape classifier re-derives convex/concave from the arrays, and its
exact-equality continuity check can demote a construction-proved shape
over one ulp of rounding — knocking the curve off every structure-aware
fast path downstream.  These tests pin the propagation rules: operations
whose output shape is provable from the operand shapes stamp it instead
of re-classifying.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reference import is_concave_brute, is_convex_brute

from tests.curves.test_minplus_structure import concave_curves, convex_curves

scales = st.floats(min_value=0.01, max_value=50.0)
shifts = st.floats(min_value=0.0, max_value=10.0)


class TestAdd:
    @given(convex_curves(), convex_curves())
    @settings(max_examples=60, deadline=None)
    def test_sum_of_convex_is_stamped_convex(self, f, g):
        out = f + g
        assert out.shape in ("convex", "affine")
        assert is_convex_brute(out)

    @given(concave_curves(), concave_curves())
    @settings(max_examples=60, deadline=None)
    def test_sum_of_concave_is_stamped_concave(self, f, g):
        out = f + g
        assert out.shape in ("concave", "affine")
        assert is_concave_brute(out)


class TestScale:
    @given(convex_curves(), scales)
    @settings(max_examples=60, deadline=None)
    def test_scaling_preserves_convex(self, f, a):
        out = f * a
        assert out.shape == f.shape
        assert is_convex_brute(out)

    @given(concave_curves(), scales)
    @settings(max_examples=60, deadline=None)
    def test_scaling_preserves_concave(self, f, a):
        out = f * a
        assert out.shape == f.shape
        assert is_concave_brute(out)


class TestShifts:
    @given(concave_curves(), shifts)
    @settings(max_examples=60, deadline=None)
    def test_shift_up_preserves_concave(self, f, amount):
        out = f.shift_up(amount)
        assert out.shape in ("concave", "affine")
        if amount == 0.0:
            assert out is f

    @given(convex_curves(), shifts)
    @settings(max_examples=60, deadline=None)
    def test_shift_right_preserves_convex(self, f, amount):
        out = f.shift_right(amount)
        assert out.shape in ("convex", "affine")


class TestEnvelopes:
    @given(convex_curves(), convex_curves())
    @settings(max_examples=60, deadline=None)
    def test_maximum_of_convex_is_convex(self, f, g):
        out = f.maximum(g)
        assert out.shape in ("convex", "affine")
        assert is_convex_brute(out)

    @given(concave_curves(), concave_curves())
    @settings(max_examples=60, deadline=None)
    def test_minimum_of_concave_is_concave(self, f, g):
        out = f.minimum(g)
        assert out.shape in ("concave", "affine")
        assert is_concave_brute(out)


class TestChainShift:
    @given(concave_curves(max_segments=8), st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=60, deadline=None)
    def test_delay_shift_preserves_concave(self, f, delay):
        from repro.analysis.chain import _shift_time

        out = _shift_time(f, delay)
        assert out.shape in ("concave", "affine")
        # the stamp must be *true*, not just present
        assert is_concave_brute(out)
        assert out.final_slope == f.final_slope
        # probes can straddle a breakpoint whose shifted position rounded by
        # an ulp, so the comparison is close, not exact
        pts = np.linspace(0.0, float(f.breakpoints[-1]) + 4.0, 50)
        np.testing.assert_allclose(out(pts), f(pts + delay), rtol=1e-9, atol=1e-9)

    def test_delay_shift_keeps_final_slope_one_ulp_off(self):
        """Regression: a concave f whose middle slope is one ulp above its
        final slope 0.01, shifted by 1.0 — the shift's re-simplification
        merged the tail into the middle piece and raised the final slope."""
        from repro.analysis.chain import _shift_time
        from repro.curves.curve import PiecewiseLinearCurve

        slopes = np.array([1.0, 0.010000000000000002, 0.01])
        xs = np.array([0.0, 0.5, 2.0])
        ys = np.cumsum(np.concatenate(([0.0], np.diff(xs) * slopes[:-1])))
        f = PiecewiseLinearCurve(xs, ys, slopes)
        out = _shift_time(f, 1.0)
        assert out.final_slope == f.final_slope == 0.01
        assert is_concave_brute(out)
