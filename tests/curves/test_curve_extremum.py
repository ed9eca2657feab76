"""Exactness of the pointwise extremum and of ``simplified()`` on jumpy curves.

The hot callers fold staircase arrival curves (the case study's ᾱ over
its clips) and clip them with leaky buckets (greedy shaping), so these
properties draw the staircase and general (slopes plus jumps) families of
the backend conformance suite, not only continuous curves.  Values are
checked at every breakpoint of the operands and the result and at the
left limits just before them, so a misplaced jump or a wrong continuation
slope shows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves.curve import EPS_REL, PiecewiseLinearCurve

from tests.curves.test_backend_conformance import general_curves, staircase_curves

#: ``simplified()`` merges a breakpoint lying within 1e-12 (absolute plus
#: relative) of the kept segment's line; the extremum inherits that.
MERGE_TOL = 1e-12
#: Evaluating one line from two different base breakpoints rounds
#: differently by a few ulps of the value.
EVAL_RTOL = 1e-12

jumpy_curves = st.one_of(staircase_curves(), general_curves())


def _probes(*curves):
    """Every breakpoint, the left limit just before each (where that
    probe stays in the domain Δ >= 0), and two points on the unbounded
    tail."""
    xs = np.unique(np.concatenate([c.breakpoints for c in curves]))
    left = xs[1:] - EPS_REL * np.maximum(1.0, xs[1:])
    tail = xs[-1] + np.array([1.0, 50.0])
    return np.concatenate((xs, left[left >= 0.0], tail))


@pytest.mark.parametrize(
    "op, pointwise, tail",
    [("maximum", np.maximum, max), ("minimum", np.minimum, min)],
    ids=["maximum", "minimum"],
)
@given(f=jumpy_curves, g=jumpy_curves)
@settings(max_examples=150, deadline=None)
def test_extremum_exact_on_jumpy_curves(op, pointwise, tail, f, g):
    out = getattr(f, op)(g)
    probes = _probes(f, g, out)
    np.testing.assert_allclose(
        out(probes),
        pointwise(f(probes), g(probes)),
        rtol=MERGE_TOL + EVAL_RTOL,
        atol=MERGE_TOL,
    )
    assert out.final_slope == tail(f.final_slope, g.final_slope)


@st.composite
def near_collinear_curves(draw):
    """A jumpy curve with segments split at interior points, some of the
    new pieces carrying a slope one ulp off — the input ``simplified()``
    must merge without moving values or the asymptotic slope."""
    base = draw(jumpy_curves)
    xs, ys, ss = base.breakpoints, base.values_at_breakpoints, base.slopes
    ends = np.append(xs[1:], xs[-1] + 3.0)  # the last segment is unbounded
    out_x, out_y, out_s = [], [], []
    for x0, y0, s0, x1 in zip(xs, ys, ss, ends):
        out_x.append(x0)
        out_y.append(y0)
        out_s.append(s0)
        fractions = draw(
            st.lists(st.floats(0.1, 0.9), max_size=2, unique=True).map(sorted)
        )
        for frac in fractions:
            x = x0 + frac * (x1 - x0)
            if x <= out_x[-1]:
                continue
            out_x.append(x)
            out_y.append(y0 + s0 * (x - x0))
            out_s.append(np.nextafter(s0, np.inf) if draw(st.booleans()) else s0)
    return PiecewiseLinearCurve(out_x, out_y, out_s)


@given(c=st.one_of(jumpy_curves, near_collinear_curves()))
@settings(max_examples=200, deadline=None)
def test_simplified_keeps_values_and_final_slope(c):
    out = c.simplified()
    assert out.n_segments <= c.n_segments
    np.testing.assert_allclose(
        out(c.breakpoints), c.values_at_breakpoints, rtol=MERGE_TOL, atol=MERGE_TOL
    )
    assert out.final_slope == c.final_slope


def test_simplified_keeps_final_slope_one_ulp_off():
    """Regression: a last segment whose slope is one ulp below the
    previous one was merged into it, raising the asymptotic slope."""
    a = 0.010000000000000002
    curve = PiecewiseLinearCurve([0.0, 1.0], [0.0, a], [a, 0.01])
    out = curve.simplified()
    assert out.final_slope == 0.01
    assert out.n_segments == 2
