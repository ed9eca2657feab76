"""Fuzzing the min-plus operators against brute force, including jumps.

The per-interval line-envelope construction is the most intricate code in
the repository; these tests compare it against the definitional oracle of
:mod:`repro.reference` and against direct numerical optimization over
dense grids, for random curves with staircase jumps, plateaus and rays.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves.backends import registered_backends, use_backend
from repro.curves.curve import EPS_REL, PiecewiseLinearCurve
from repro.curves.minplus import convolve, convolve_at, deconvolve
from repro.reference import convolve_at_brute

#: Every registered min-plus backend: the dispatch routes the generic
#: kernel through the active backend, so the comparisons below gate each
#: backend separately.  ``convolve_at`` does not dispatch to a backend
#: today; running it under each one pins that its value stays independent
#: of the active backend.
BACKENDS = sorted(registered_backends())


@st.composite
def jumpy_curves(draw, max_segments=4):
    """Random non-decreasing PWL curves that may jump at breakpoints."""
    n = draw(st.integers(min_value=1, max_value=max_segments))
    gaps = draw(st.lists(st.floats(min_value=0.2, max_value=3.0), min_size=n - 1, max_size=n - 1))
    xs = np.concatenate(([0.0], np.cumsum(gaps))) if n > 1 else np.array([0.0])
    slopes = np.array(draw(st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=n, max_size=n)))
    jumps = np.array(draw(st.lists(st.floats(min_value=0.0, max_value=4.0), min_size=n, max_size=n)))
    ys = []
    level = jumps[0]
    for i in range(n):
        if i > 0:
            level += slopes[i - 1] * (xs[i] - xs[i - 1]) + jumps[i]
        ys.append(level)
    return PiecewiseLinearCurve(xs, np.array(ys), slopes)


def brute_deconvolve(f, g, d, u_max, n=2000):
    us = np.linspace(0.0, u_max, n)
    best = -np.inf
    for u in us:
        gv = 0.0 if u == 0 else float(g(u))
        best = max(best, float(f(d + u)) - gv)
    return best


def convolve_at_tolerance(f, g, d, brute):
    """Agreement bound of ``convolve_at`` with the definitional oracle.

    ``convolve_at`` reads a left limit by probing ``EPS_REL * max(1, x)``
    before a breakpoint ``x <= d``, where the oracle takes the limit
    exactly, so each operand's value may move by its steepest slope times
    that offset; 1e-12 relative covers the rounding of the sums.
    """
    steepest = float(np.max(f.slopes)) + float(np.max(g.slopes))
    return steepest * EPS_REL * max(1.0, d) + 1e-12 * max(1.0, abs(brute))


@pytest.mark.parametrize("backend_name", BACKENDS)
@given(jumpy_curves(), jumpy_curves(), st.floats(min_value=0.0, max_value=12.0))
@settings(max_examples=60, deadline=None)
def test_convolve_at_matches_brute(backend_name, f, g, d):
    with use_backend(backend_name):
        exact = convolve_at(f, g, d)
    brute = convolve_at_brute(f, g, d)
    assert abs(exact - brute) <= convolve_at_tolerance(f, g, d, brute)


def test_convolve_at_zero_window_next_to_jump():
    """Pinned case: ``f`` is zero until it jumps to 0.6 at 0.9502, so at
    ``d = 1.9`` only splits inside the 0.0004-wide window (0.9498, 0.9502)
    keep both operands at zero.  A uniform 1500-point grid (step 0.00127)
    steps over that window and reads 0.6; the exact value is 0."""
    f = PiecewiseLinearCurve([0.0, 0.9502], [0.0, 0.6], [0.0, 0.0])
    assert convolve_at_brute(f, f, 1.9) == 0.0
    assert convolve_at(f, f, 1.9) == 0.0


@pytest.mark.parametrize("backend_name", BACKENDS)
@given(jumpy_curves(), jumpy_curves())
@settings(max_examples=30, deadline=None)
def test_convolve_curve_matches_pointwise(backend_name, f, g):
    with use_backend(backend_name):
        c = convolve(f, g)
        for d in np.linspace(0.0, 15.0, 16)[1:]:
            assert c(float(d)) == pytest.approx(convolve_at(f, g, float(d)), abs=1e-6)


@pytest.mark.parametrize("backend_name", BACKENDS)
@given(jumpy_curves(), st.floats(min_value=0.1, max_value=5.0), st.floats(min_value=0.0, max_value=4.0))
@settings(max_examples=40, deadline=None)
def test_deconvolve_dominates_brute(backend_name, f, rate, latency):
    """Deconvolution through a rate-latency server: the exact result must
    dominate any brute-force sample of the sup (left-limit probes may make
    it strictly larger at jumps — conservative direction)."""
    if f.final_slope > rate:
        return
    g = PiecewiseLinearCurve([0.0, max(latency, 1e-9)], [0.0, 0.0], [0.0, rate]) \
        if latency > 0 else PiecewiseLinearCurve([0.0], [0.0], [rate])
    with use_backend(backend_name):
        out = deconvolve(f, g)
    for d in np.linspace(0.0, 8.0, 9):
        brute = brute_deconvolve(f, g, float(d), u_max=20.0)
        assert out(float(d)) >= brute - 1e-6


@pytest.mark.parametrize("backend_name", BACKENDS)
@given(jumpy_curves(), jumpy_curves())
@settings(max_examples=30, deadline=None)
def test_convolve_commutative_and_monotone(backend_name, f, g):
    ds = np.linspace(0.0, 12.0, 25)
    with use_backend(backend_name):
        ab = convolve(f, g)(ds)
        ba = convolve(g, f)(ds)
    assert np.allclose(ab, ba, atol=1e-6)
    assert np.all(np.diff(ab) >= -1e-8)
