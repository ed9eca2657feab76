"""Seeded regressions pinning the two numerical bug classes fixed in the
compaction PR.

1. **Ulp-wide degenerate grid cells** — the generic kernels build their
   candidate grid from outer sums (convolve) / differences (deconvolve)
   of the operands' breakpoints.  Near-duplicate entries (``0.1 + 0.2``
   vs ``0.30000000000000004`` vs an explicit ``0.3``) used to produce
   cells a few ulp wide whose midpoint probes collapsed onto the cell
   edges and emitted garbage envelope pieces.  ``_dedupe_grid`` now
   merges such cells; these tests pin exact operand constellations that
   exercised the bug, in the oracle and in the production kernel.

2. **Chain time-shift rounding** — ``chain._shift_time`` used to
   re-evaluate the curve at ``(x - shift) + shift``, which rounds across
   breakpoints and corrupted the assigned slopes (including the
   asymptotic one); with jumps it could crash curve validation.  The fix
   reuses the kept breakpoints' exact values and slopes; these tests pin
   shift values whose subtraction is inexact in binary floating point.

Unlike the hypothesis suites these cases are fully deterministic: they
fail loudly on the exact inputs that originally broke, independent of
example generation.
"""

import numpy as np
import pytest

from repro.analysis.chain import _shift_time
from repro.curves.curve import PiecewiseLinearCurve
from repro.curves.minplus import (
    convolve,
    convolve_generic,
    deconvolve,
    deconvolve_generic,
)
from repro.reference import convolve_at_brute, deconvolve_at_brute

#: ``(convolve, deconvolve)``: the oracle construction (``numpy``) and the
#: production entry points, whose generic pairs run the SoA kernel (``soa``).
OPERATORS = {
    "numpy": (convolve_generic, deconvolve_generic),
    "soa": (convolve, deconvolve),
}
BACKENDS = sorted(OPERATORS)

#: At a jump of the exact inf/sup the definitional value is the left
#: limit while the curve model keeps the right-continuous envelope, so
#: brute comparisons bracket instead of asserting equality.
BRUTE_TOL = 1e-9
EPS_RIGHT = 1e-7


def _assert_matches_brute_convolve(out, f, g, deltas):
    for d in deltas:
        lo = convolve_at_brute(f, g, d)
        hi = convolve_at_brute(f, g, d + EPS_RIGHT)
        val = out(d)
        assert val >= lo - BRUTE_TOL
        assert val <= hi + 1e-6


def _assert_envelope_sane(curve):
    xs = curve.breakpoints
    assert xs[0] == 0.0
    assert np.all(np.diff(xs) > 0.0)
    # a min-plus convolution of nondecreasing curves is nondecreasing;
    # the garbage pieces of the original bug violated this
    probes = np.unique(np.concatenate((xs, xs[:-1] + np.diff(xs) / 2, [xs[-1] + 1.0])))
    vals = curve(probes)
    assert np.all(np.diff(vals) >= -1e-9)


class TestUlpDegenerateGrids:
    """The exact near-duplicate-outer-sum constellations from the original
    report; curves carry jumps so dispatch hits the generic kernel."""

    def _operands(self):
        # 0.1 + 0.2 != 0.3 in binary; the convolve grid gets entries at
        # 0.30000000000000004 and 0.3 + 1e-16, one ulp-wide cell apart
        f = PiecewiseLinearCurve([0.0, 0.1, 0.2], [0.0, 1.0, 2.5], [2.0, 1.0, 0.5])
        g = PiecewiseLinearCurve(
            [0.0, 0.1 + 0.2, 0.3 + 1e-16], [0.0, 0.9, 2.0], [1.5, 0.75, 0.25]
        )
        return f, g

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_convolve_survives_ulp_grid(self, backend_name):
        f, g = self._operands()
        out = OPERATORS[backend_name][0](f, g)
        _assert_envelope_sane(out)
        _assert_matches_brute_convolve(out, f, g, [0.1, 0.2, 0.3, 0.1 + 0.2, 0.4, 1.0])

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_deconvolve_survives_ulp_grid(self, backend_name):
        # the deconvolve grid uses breakpoint *differences*; swap the
        # operand roles so the arrival rate stays below the service rate
        f, g = self._operands()
        if f.final_slope > g.final_slope:
            f, g = g, f
        out = OPERATORS[backend_name][1](f, g)
        xs = out.breakpoints
        assert np.all(np.diff(xs) > 0.0)
        for d in (0.0, 0.1, 0.2, 0.3, 0.5, 2.0):
            assert out(d) >= deconvolve_at_brute(f, g, d) - BRUTE_TOL

    @pytest.mark.parametrize("backend_name", BACKENDS)
    def test_shared_breakpoint_ulp_pair(self, backend_name):
        # both operands share a breakpoint an ulp away from a neighbour,
        # so the outer sum contains four pairwise near-duplicates
        xs = [0.0, 1.0, 1.0 + 2.0**-50, 2.0]
        f = PiecewiseLinearCurve(xs, [0.0, 2.0, 2.5, 3.0], [2.0, 1.0, 0.5, 0.25])
        g = PiecewiseLinearCurve(xs, [0.0, 1.5, 2.2, 2.8], [1.5, 0.8, 0.6, 0.3])
        out = OPERATORS[backend_name][0](f, g)
        _assert_envelope_sane(out)
        _assert_matches_brute_convolve(out, f, g, [0.5, 1.0, 2.0, 2.0 + 2.0**-50, 4.0])


class TestBruteOracleUlpChords:
    """The same degenerate-cell class inside the *oracle*: a dense chord
    sample within an ulp of a breakpoint produced a garbage chord slope
    that falsely broke chord monotonicity (seed-dependent hypothesis
    flake in the shape-propagation suite)."""

    def test_concave_with_breakpoint_on_dense_grid(self):
        from repro.reference import is_concave_brute

        # 0.85 sits within one ulp of a dense sample point (horizon
        # grid of _chord_points with last breakpoint 1.1)
        out = PiecewiseLinearCurve(
            [0.0, 0.85, 1.1], [0.0, 1.275, 1.525], [1.5, 1.0, 0.0]
        )
        assert is_concave_brute(out)

    def test_convex_with_ulp_adjacent_breakpoints(self):
        from repro.reference import is_convex_brute

        x = 1.0
        f = PiecewiseLinearCurve(
            [0.0, x, x + 2.0**-50], [0.0, 0.5, 0.5], [0.5, 1.0, 2.0]
        )
        assert is_convex_brute(f)

    # the last breakpoint 8.5748... puts a dense sample 7.4e-7 past the
    # breakpoint 5.6717...: far more than an ulp, yet short enough that
    # one ulp of f(x) ~ 11 moves the chord's slope by 1.2e-9 > tol
    _NEAR_XS = [0.0, 5.671760228751825, 8.574817548776515]

    def test_concave_with_dense_sample_beside_breakpoint(self):
        from repro.reference import is_concave_brute

        out = PiecewiseLinearCurve(
            self._NEAR_XS, [0.0, 11.34352045750365, 14.24657777752834], [2.0, 1.0, 0.0]
        )
        assert is_concave_brute(out)

    def test_kink_beside_dense_sample_still_breaks_concavity(self):
        from repro.reference import is_concave_brute

        # the same grid, with a real slope increase of 1e-6 at the
        # breakpoint beside the short chord
        x0, x1, x2 = self._NEAR_XS
        y2 = x1 + (1.0 + 1e-6) * (x2 - x1)
        bent = PiecewiseLinearCurve(self._NEAR_XS, [0.0, x1, y2], [1.0, 1.0 + 1e-6, 0.0])
        assert not is_concave_brute(bent)

    def test_slope_jump_on_a_short_piece_breaks_concavity(self):
        from repro.reference import is_concave_brute

        # slope 1 -> 2 on a 1e-5 piece at |f| ~ 100: the short chord's
        # rounding (~1.8e-8) is far below the jump, so it must count
        f = PiecewiseLinearCurve(
            [0.0, 1.0, 1.0 + 1e-5], [100.0, 101.0, 101.00002], [1.0, 2.0, 0.5]
        )
        assert not is_concave_brute(f)

    def test_kink_across_a_rounding_dominated_chord_breaks_concavity(self):
        from repro.reference import is_concave_brute

        # the breakpoint sits 1e-13 past the dense sample 1.0 (horizon 4):
        # that chord's slope is mostly rounding, so the 1e-6 slope increase
        # shows only between the chords on either side of it
        x1 = 1.0 + 1e-13
        y2 = x1 + (1.0 + 1e-6) * (1.5 - x1)
        bent = PiecewiseLinearCurve([0.0, x1, 1.5], [0.0, x1, y2], [1.0, 1.0 + 1e-6, 0.0])
        assert not is_concave_brute(bent)


class TestChainShiftRounding:
    """Pinned shifts whose subtraction from the breakpoints is inexact."""

    def _staircase(self):
        # jumps at every breakpoint: the original re-evaluation bug
        # corrupted exactly these slope/value assignments
        return PiecewiseLinearCurve(
            [0.0, 0.1, 0.2, 0.3, 0.4], [1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5
        )

    @pytest.mark.parametrize("shift", [0.1, 0.2, 0.30000000000000004, 1e-9])
    def test_shift_reuses_exact_values_and_slopes(self, shift):
        f = self._staircase()
        out = _shift_time(f, shift)
        assert out.final_slope == f.final_slope
        kept = f.breakpoints[f.breakpoints > shift]
        for x in kept:
            # kept breakpoints keep their exact values: g(x - shift) = f(x)
            assert out(float(x) - shift) == float(f(float(x)))
        assert np.all(np.diff(out.breakpoints) > 0.0)

    def test_shift_by_breakpoint_exact_tail(self):
        # shift equal to an interior breakpoint: the first kept segment's
        # slope must come from the segment containing the shift, not from
        # a rounded re-evaluation one segment off
        f = PiecewiseLinearCurve([0.0, 0.1, 0.3], [0.0, 1.0, 3.0], [4.0, 2.0, 1.0])
        out = _shift_time(f, 0.1)
        assert out(0.0) == pytest.approx(1.0)
        assert out.final_slope == 1.0
        pts = np.linspace(0.0, 2.0, 41)
        np.testing.assert_allclose(out(pts), f(pts + 0.1), rtol=0, atol=1e-9)

    def test_shift_with_ulp_spaced_breakpoints(self):
        # ulp-spaced breakpoints survive the subtraction without collapsing
        # into a non-increasing sequence (the original crash mode)
        f = PiecewiseLinearCurve(
            [0.0, 0.3, 0.3 + 2.0**-46], [0.0, 2.0, 2.5], [1.0, 0.5, 0.25]
        )
        out = _shift_time(f, 0.1)
        assert np.all(np.diff(out.breakpoints) > 0.0)
        assert out.final_slope == f.final_slope
