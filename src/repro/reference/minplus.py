"""Brute-force min-plus operators (oracle only; see package docstring).

``(f ⊗ g)(Δ) = inf_{0<=s<=Δ} f(s) + g(Δ−s)`` and
``(f ⊘ g)(Δ) = sup_{u>=0} f(Δ+u) − g(u)`` evaluated by exhaustive
candidate enumeration: every breakpoint configuration, explicit left-limit
probes at the jumps, plus a dense uniform grid as a safety net.  Pure
Python loops over Python floats — no vectorization, no caching, no code
shared with :mod:`repro.curves.minplus`.
"""

from __future__ import annotations

import sys

from repro.curves.curve import PiecewiseLinearCurve

__all__ = [
    "eval_pwl_brute",
    "convolve_at_brute",
    "deconvolve_at_brute",
    "is_convex_brute",
    "is_concave_brute",
]

#: Uniform safety-net samples added to the candidate sets.
DENSE_SAMPLES = 257

#: Bound on the rounding of a chord's two endpoint values, per unit of
#: ``|f|``: each :func:`eval_pwl_brute` result is within a few ulps.
_CHORD_ROUNDING = 8.0 * sys.float_info.epsilon


def eval_pwl_brute(curve: PiecewiseLinearCurve, delta: float) -> float:
    """Right-continuous PWL evaluation by linear segment scan."""
    xs = [float(v) for v in curve.breakpoints]
    ys = [float(v) for v in curve.values_at_breakpoints]
    ss = [float(v) for v in curve.slopes]
    i = 0
    for j in range(len(xs)):
        if xs[j] <= delta:
            i = j
        else:
            break
    return ys[i] + ss[i] * (delta - xs[i])


def _eval0(curve: PiecewiseLinearCurve, x: float) -> float:
    """Evaluation under the min-plus ``f(0) = 0`` convention."""
    return 0.0 if x == 0.0 else eval_pwl_brute(curve, x)


def _left_limit(curve: PiecewiseLinearCurve, x: float) -> float:
    """Left limit ``f(x⁻)`` by segment scan (equals f(x) off the jumps)."""
    if x == 0.0:
        return float(curve.values_at_breakpoints[0])
    xs = [float(v) for v in curve.breakpoints]
    ys = [float(v) for v in curve.values_at_breakpoints]
    ss = [float(v) for v in curve.slopes]
    i = 0
    for j in range(len(xs)):
        if xs[j] < x:
            i = j
        else:
            break
    return ys[i] + ss[i] * (x - xs[i])


def _chord_points(curve: PiecewiseLinearCurve, *, include_zero: bool) -> list[float]:
    """Sorted sample abscissae: breakpoints plus a dense uniform grid out to
    past the last breakpoint (both curve pieces beyond it are affine)."""
    points = {float(x) for x in curve.breakpoints}
    horizon = 2.0 * max(points) + 1.0
    for i in range(DENSE_SAMPLES):
        points.add(horizon * i / (DENSE_SAMPLES - 1))
    if not include_zero:
        points.discard(0.0)
    return sorted(points)


def _jumps_on(curve: PiecewiseLinearCurve, *, interior_only: bool) -> bool:
    """True if the curve jumps at any breakpoint (optionally ignoring 0)."""
    for x in curve.breakpoints:
        x = float(x)
        if interior_only and x == 0.0:
            continue
        value = eval_pwl_brute(curve, x)
        left = float(curve.values_at_breakpoints[0]) if x == 0.0 else _left_limit(curve, x)
        if abs(value - left) > 1e-9 * max(1.0, abs(value)):
            return True
    return False


def is_convex_brute(curve: PiecewiseLinearCurve, *, tol: float = 1e-9) -> bool:
    """Definitional convexity of the effective min-plus function ``f̃``.

    ``f̃`` (which is 0 at 0) is convex iff ``f(0) = 0``, the curve never
    jumps, and the chord slopes over consecutive sample points are
    non-decreasing.  Pure Python; tolerance is relative to the local slope
    magnitude.
    """
    if abs(float(curve.values_at_breakpoints[0])) > tol:
        return False
    if _jumps_on(curve, interior_only=False):
        return False
    return _chord_slopes_monotone(curve, sign=1, tol=tol, include_zero=True)


def is_concave_brute(curve: PiecewiseLinearCurve, *, tol: float = 1e-9) -> bool:
    """Definitional concavity of the effective min-plus function ``f̃``.

    An upward jump at 0 (the burst) is allowed — ``f̃`` then is still
    star-shaped and obeys the concave closed forms; away from 0 the curve
    must be continuous with non-increasing chord slopes.
    """
    if _jumps_on(curve, interior_only=True):
        return False
    return _chord_slopes_monotone(curve, sign=-1, tol=tol, include_zero=False)


def _chord_slopes_monotone(
    curve: PiecewiseLinearCurve, *, sign: int, tol: float, include_zero: bool
) -> bool:
    """True unless some chord slope, times *sign*, falls below an earlier
    chord's by more than the tolerance and both chords' rounding.

    Each endpoint value carries a few ulps of rounding, which moves a
    chord's slope by up to ``8·eps·max(1, |f|)/(b − a)``: on a short chord
    (a dense sample beside a breakpoint, two close breakpoints) far more
    than the tolerance.  Every chord is kept, and each is compared with
    the floor of all earlier ones, not only its neighbour, so a kink stays
    visible across a short chord whose own slope reads mostly rounding.
    """
    points = _chord_points(curve, include_zero=include_zero)
    floor = None  # max over earlier chords of sign * slope - rounding
    a = points[0]
    fa = eval_pwl_brute(curve, a)
    for b in points[1:]:
        fb = eval_pwl_brute(curve, b)
        slope = sign * (fb - fa) / (b - a)
        noise = _CHORD_ROUNDING * max(1.0, abs(fa), abs(fb)) / (b - a)
        if floor is not None and slope + noise < floor - tol * max(
            1.0, abs(slope), abs(floor)
        ):
            return False
        floor = slope - noise if floor is None else max(floor, slope - noise)
        a, fa = b, fb
    # the unbounded tail continues with the final slope
    tail = sign * float(curve.slopes[-1])
    return floor is None or tail >= floor - tol * max(1.0, abs(tail), abs(floor))


def convolve_at_brute(
    f: PiecewiseLinearCurve, g: PiecewiseLinearCurve, delta: float
) -> float:
    """Definitional ``(f ⊗ g)(Δ)``: exhaustive minimum over split points.

    Candidates: breakpoints of ``f``, ``Δ`` minus breakpoints of ``g``
    (the optimum of a PWL inner function is attained at one of these), the
    endpoints, and a dense uniform grid.  Jumps are handled by explicitly
    evaluating the left-limit variant at every candidate — the inf may be
    approached from just below a discontinuity.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    # candidates as (s, Δ−s) pairs so the pinned coordinate is exact — the
    # float round-trip Δ − (Δ − x_g) can land a hair past the breakpoint
    # and miss its jump otherwise
    splits: set[tuple[float, float]] = {(0.0, float(delta)), (float(delta), 0.0)}
    for xf in f.breakpoints:
        s = float(xf)
        if 0.0 <= s <= delta:
            splits.add((s, delta - s))
    for xg in g.breakpoints:
        r = float(xg)
        if 0.0 <= delta - r <= delta:
            splits.add((delta - r, r))
    if delta > 0:
        for i in range(DENSE_SAMPLES):
            s = delta * i / (DENSE_SAMPLES - 1)
            splits.add((s, delta - s))
    best = None
    for s, rest in splits:
        # the inner objective h(s) = f(s) + g(Δ−s) is affine between
        # adjacent candidates, so the inf is the min over candidate values
        # and one-sided limits.  Only consistent limit pairs are admissible:
        # s → x⁻ pairs f's left limit with g's right limit, s → x⁺ pairs
        # f's right limit with g's left limit — never left with left.
        totals = [_eval0(f, s) + _eval0(g, rest)]
        if s > 0.0:
            totals.append(_left_limit(f, s) + eval_pwl_brute(g, rest))
        if rest > 0.0:
            totals.append(eval_pwl_brute(f, s) + _left_limit(g, rest))
        for total in totals:
            if best is None or total < best:
                best = total
    assert best is not None
    return best


def deconvolve_at_brute(
    f: PiecewiseLinearCurve, g: PiecewiseLinearCurve, delta: float
) -> float:
    """Definitional ``(f ⊘ g)(Δ)``: exhaustive supremum over lags ``u``.

    Candidates: breakpoints of ``g``, breakpoints of ``f`` shifted by
    ``−Δ``, and a dense grid out to well past the last breakpoint (beyond
    it both curves are affine, and stability ``rate(f) <= rate(g)`` makes
    the objective non-increasing, so the tail cannot hide the sup).
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    horizon = 1.0
    for xf in f.breakpoints:
        horizon = max(horizon, float(xf))
    for xg in g.breakpoints:
        horizon = max(horizon, float(xg))
    horizon = 2.0 * horizon + delta + 1.0
    # candidates as (u, Δ+u) pairs so the pinned coordinate stays exact
    # (same float round-trip hazard as in convolve_at_brute)
    lags: set[tuple[float, float]] = {(0.0, float(delta))}
    for xg in g.breakpoints:
        u = float(xg)
        if u >= 0.0:
            lags.add((u, delta + u))
    for xf in f.breakpoints:
        t = float(xf)
        if t - delta >= 0.0:
            lags.add((t - delta, t))
    for i in range(DENSE_SAMPLES):
        u = horizon * i / (DENSE_SAMPLES - 1)
        lags.add((u, delta + u))
    best = None
    for u, t in lags:
        # the objective f(Δ+u) − g(u) is affine between adjacent candidates;
        # the sup is the max over candidate values and the one consistent
        # one-sided limit: u → x⁻ pairs f's left limit with g's left limit
        # (u → x⁺ reproduces the right-continuous values themselves)
        totals = [eval_pwl_brute(f, t) - _eval0(g, u)]
        if u > 0.0:
            totals.append(_left_limit(f, t) - _left_limit(g, u))
        for total in totals:
            if best is None or total > best:
                best = total
    assert best is not None
    return best
