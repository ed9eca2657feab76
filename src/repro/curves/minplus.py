"""Min-plus convolution and deconvolution of PWL curves.

Network Calculus composes curves with the min-plus operators

.. math::

    (f ⊗ g)(Δ) = \\inf_{0 \\le s \\le Δ} f(s) + g(Δ - s) \\qquad
    (f ⊘ g)(Δ) = \\sup_{u \\ge 0} f(Δ + u) - g(u)

Convolution concatenates service elements and implements greedy shapers;
deconvolution yields the output arrival curve of a served flow.

Min-plus algebra is defined over the set ``F`` of wide-sense increasing
functions with ``f(0) = 0``; our right-continuous PWL curves store the
*right limit* at 0 (the burst), so the operators here apply the
``f(0) = 0`` convention at the origin.  This recovers the textbook
identities, e.g. the convolution of two leaky buckets is their pointwise
minimum, and a greedy shaper never increases a conforming flow's burst.

Exactness
---------
Both operators are computed exactly for PWL inputs.  The optimizer of the
inner inf/sup is always attained at a breakpoint of ``f`` or a (shifted)
breakpoint of ``g``; between two adjacent points of the breakpoint
sum/difference set every such *configuration* is a straight line, so the
result restricted to that interval is the lower (upper) envelope of a
finite set of lines, which we compute with an exact envelope sweep —
including the crossing breakpoints that do not belong to the sum set.

Performance
-----------
The operators are *structure-aware*: every
:class:`~repro.curves.curve.PiecewiseLinearCurve` carries a cached
convexity/concavity classification (:attr:`~repro.curves.curve
.PiecewiseLinearCurve.shape`), and the curve operators dispatch on it:

* **convex ⊗ convex** — closed-form slope merge in ``O(n + m)``: the
  convolution of convex PWL curves through the origin is their segments
  laid end to end in order of increasing slope;
* **concave ⊗ concave** — pointwise minimum (the textbook leaky-bucket
  identity generalized: for concave ``f, g`` with ``f(0) = g(0) = 0``
  under the min-plus convention, ``f ⊗ g = min(f, g)``);
* **concave ⊘ convex** — a descending-slope merge walk in ``O(n + m)``:
  the inner objective ``f(Δ + u) − g(u)`` is concave in ``u``, so the
  supremum tracks a single slope-crossover point;
* everything else falls back to the generic exact construction,
  ``O(n·m·(n+m))``.

Every generic pair is computed by the packed structure-of-arrays kernel
of :mod:`repro.curves.soa`, which sweeps all envelope cells of a pair in
a few large array passes.  The per-interval numpy construction in this
module is that kernel's oracle: :func:`convolve_generic` /
:func:`deconvolve_generic` run it directly, bypassing dispatch and cache,
and the conformance suite holds the SoA kernel to bit-equal breakpoints
and to values and slopes within 1e-12 of it.  The full curve operators are memoized by
operand content digest — with a structure tag in the key — through
:mod:`repro.perf.cache`, so a design-space sweep that re-convolves the
same pair pays for the construction once.  Every kernel body reports
call counts and timing histograms into the :mod:`repro.obs` metrics
registry and, when tracing is enabled, opens a span carrying the operand
segment counts and the ``backend`` that computed it (``soa`` for the
production kernel, ``numpy`` for the oracle).  All paths are validated
against the definitional brute-force implementations in
:mod:`repro.reference` by the differential-oracle suite, and the fast
paths additionally against the generic kernels by the structure property
suite (``tests/curves/test_minplus_structure.py``).
"""

from __future__ import annotations

import math

import numpy as np

from repro.curves.curve import EPS_REL, PiecewiseLinearCurve
from repro.obs.metrics import counter
from repro.perf.cache import kernel_cache
from repro.perf.instrument import instrumented
from repro.util.validation import ValidationError

__all__ = [
    "convolve",
    "deconvolve",
    "convolve_at",
    "deconvolve_at",
    "convolve_generic",
    "deconvolve_generic",
    "self_convolution_fixpoint",
    "UnboundedCurveError",
]


class UnboundedCurveError(ValidationError):
    """Raised when a deconvolution diverges (``f`` grows faster than ``g``).

    In analysis terms: the flow's long-term rate exceeds the long-term
    service rate, so no finite output bound/backlog exists.
    """


def _eps_for(x: float) -> float:
    return EPS_REL * max(1.0, abs(x))


def _eval0(curve: PiecewiseLinearCurve, x: float) -> float:
    """Evaluate under the min-plus convention ``f(0) = 0`` (see module
    docstring)."""
    return 0.0 if x == 0.0 else float(curve(x))


# ---------------------------------------------------------------------------
# point evaluation
# ---------------------------------------------------------------------------

def convolve_at(f: PiecewiseLinearCurve, g: PiecewiseLinearCurve, delta: float) -> float:
    """Exact evaluation of ``(f ⊗ g)(Δ)`` at a single point."""
    if delta < 0:
        raise ValidationError("delta must be >= 0")
    cands: set[float] = {0.0, float(delta)}
    for xf in f.breakpoints:
        for s in (float(xf), float(xf) - _eps_for(xf)):
            if 0.0 <= s <= delta:
                cands.add(s)
    for xg in g.breakpoints:
        for s in (delta - float(xg), delta - float(xg) + _eps_for(xg)):
            if 0.0 <= s <= delta:
                cands.add(s)
    return min(_eval0(f, s) + _eval0(g, delta - s) for s in cands)


def deconvolve_at(f: PiecewiseLinearCurve, g: PiecewiseLinearCurve, delta: float) -> float:
    """Exact evaluation of ``(f ⊘ g)(Δ)`` at a single point.

    Raises :class:`UnboundedCurveError` if ``f`` outgrows ``g``.
    """
    if delta < 0:
        raise ValidationError("delta must be >= 0")
    if f.final_slope > g.final_slope + 1e-12:
        raise UnboundedCurveError(
            f"deconvolution diverges: arrival rate {f.final_slope:g} exceeds "
            f"service rate {g.final_slope:g}"
        )
    cands: set[float] = {0.0}
    for xg in g.breakpoints:
        # probe just below a g-breakpoint: g's left limit is smaller when g
        # jumps, which can only increase the supremum
        for u in (float(xg), float(xg) - _eps_for(xg)):
            if u >= 0.0:
                cands.add(u)
    for xf in f.breakpoints:
        for u in (float(xf) - delta, float(xf) - delta - _eps_for(xf)):
            if u >= 0.0:
                cands.add(u)
    return max(float(f(delta + u)) - _eval0(g, u) for u in cands)


# ---------------------------------------------------------------------------
# exact curve construction via per-interval line envelopes
# ---------------------------------------------------------------------------

class _CurveArrays:
    """Unpacked curve data shared across all intervals of one construction.

    Precomputes the per-breakpoint left limits (used by the jump probes)
    so the per-interval line builders are pure array arithmetic.
    """

    __slots__ = ("x", "y", "s", "left")

    def __init__(self, curve: PiecewiseLinearCurve):
        self.x = curve.breakpoints
        self.y = curve.values_at_breakpoints
        self.s = curve.slopes
        # left limit at each breakpoint; index 0 is never used (probes only
        # exist for breakpoints > 0)
        self.left = np.empty_like(self.y)
        self.left[0] = self.y[0]
        if self.x.size > 1:
            self.left[1:] = self.y[:-1] + self.s[:-1] * np.diff(self.x)

    def eval_at(self, t: np.ndarray) -> np.ndarray:
        """Vectorized right-continuous evaluation (t must be >= 0)."""
        idx = np.searchsorted(self.x, t, side="right") - 1
        return self.y[idx] + self.s[idx] * (t - self.x[idx])

    def eval0_at(self, t: np.ndarray) -> np.ndarray:
        """Evaluation under the min-plus ``f(0) = 0`` convention."""
        return np.where(t == 0.0, 0.0, self.eval_at(t))

    def slope_at(self, t: np.ndarray) -> np.ndarray:
        """Segment slope in effect at each (right-continuous) point."""
        return self.s[np.searchsorted(self.x, t, side="right") - 1]


def _line_envelope_on_interval(
    va: np.ndarray, sl: np.ndarray, a: float, b: float, *, lower: bool
) -> list[tuple[float, float, float]]:
    """Envelope of the lines ``value = va + sl·(Δ − a)`` on ``[a, b)``.

    Returns segments ``(start, value_at_start, slope)`` covering ``[a, b)``
    of the lower (``lower=True``) or upper envelope, exact crossings
    included.  Fully vectorized: the winner selection and the first-crossing
    search are single array reductions per emitted segment.
    """
    if va.size == 0:
        raise ValidationError("envelope needs at least one line")
    # dedup (value-at-a, slope) pairs; keeps the candidate set small
    uniq = np.unique(np.column_stack((va, sl)), axis=0)
    va, sl = uniq[:, 0], uniq[:, 1]
    segments: list[tuple[float, float, float]] = []
    x = a
    max_segments = va.size + 2  # each crossing switches to a new line
    while x < b - 1e-18 and len(segments) < max_segments:
        v = va + sl * (x - a)
        # winning line at x: extremal value, ties (within float noise)
        # broken by slope — flattest wins for lower envelope, steepest for
        # upper, so the chosen segment stays on the envelope just after x
        if lower:
            vbest = float(v.min())
            near = np.flatnonzero(v <= vbest + 1e-12 + 1e-12 * abs(vbest))
            j = near[np.argmin(sl[near])]
        else:
            vbest = float(v.max())
            near = np.flatnonzero(v >= vbest - 1e-12 - 1e-12 * abs(vbest))
            j = near[np.argmax(sl[near])]
        best_val = float(v[j])
        best_slope = float(sl[j])
        # first crossing where another line overtakes the winner.
        # near-parallel lines never produce a meaningful crossing; a
        # denormal slope difference would yield a numerically garbage
        # crossing abscissa, so treat it as parallel
        rel = sl - best_slope
        overtaking = np.abs(rel) > 1e-15 * np.maximum(
            1.0, np.maximum(np.abs(sl), abs(best_slope))
        )
        overtaking &= (rel < 0) if lower else (rel > 0)
        next_x = b
        if np.any(overtaking):
            t = (v[overtaking] - best_val) / (-rel[overtaking])
            t = t[t > 1e-15]
            if t.size and x + float(t.min()) < next_x:
                next_x = x + float(t.min())
        segments.append((x, best_val, best_slope))
        if not math.isfinite(next_x):
            break
        x = next_x
    return segments


def _configuration_lines_convolve(
    f: _CurveArrays, g: _CurveArrays, a: float, mid: float
) -> tuple[np.ndarray, np.ndarray]:
    """All candidate lines for (f⊗g) on an interval with midpoint *mid*.

    Configurations: ``s`` pinned at a breakpoint of f (line follows g), or
    ``Δ − s`` pinned at a breakpoint of g (line follows f).  Only
    configurations feasible throughout the interval contribute.  Returns
    ``(value_at_a, slope)`` arrays.
    """
    vas: list[np.ndarray] = []
    sls: list[np.ndarray] = []
    half = mid - a

    fsel = f.x <= a + 1e-15
    if np.any(fsel):
        s = f.x[fsel]
        rest = mid - s
        slope = g.slope_at(rest)
        g_rest = g.eval0_at(rest)
        f_at = np.where(s == 0.0, 0.0, f.y[fsel])
        vas.append(f_at + g_rest - slope * half)
        sls.append(slope)
        # f is right-continuous: the inf can be approached with s just
        # below the breakpoint, paying f's left limit (matters when f
        # jumps, e.g. staircase arrival curves)
        jump = s > 0.0
        if np.any(jump):
            vas.append(f.left[fsel][jump] + g_rest[jump] - slope[jump] * half)
            sls.append(slope[jump])

    gsel = g.x <= a + 1e-15
    if np.any(gsel):
        r = g.x[gsel]
        s_mid = mid - r
        slope = f.slope_at(s_mid)
        f_smid = f.eval0_at(s_mid)
        g_at = np.where(r == 0.0, 0.0, g.y[gsel])
        vas.append(f_smid + g_at - slope * half)
        sls.append(slope)
        # likewise, Δ − s can sit just below a g-breakpoint, paying g's
        # left limit
        jump = r > 0.0
        if np.any(jump):
            vas.append(f_smid[jump] + g.left[gsel][jump] - slope[jump] * half)
            sls.append(slope[jump])

    if not vas:
        return np.empty(0), np.empty(0)
    return np.concatenate(vas), np.concatenate(sls)


def _budget_compactors(
    direction: str | None, max_segments: int | None, max_error: float | None
):
    """Resolve the (operand, result) compactors of a budgeted operator.

    Returns ``None`` when no budget is requested.  *direction* states what
    the **result** is used as: ``"upper"`` rounds it up (arrival/workload
    curves), ``"lower"`` rounds it down (service curves).  The import is
    deferred — :mod:`repro.curves.compact` builds on this module.
    """
    if max_segments is None and max_error is None:
        if direction is not None:
            raise ValidationError(
                "direction is only meaningful with max_segments or max_error"
            )
        return None
    if direction not in ("upper", "lower"):
        raise ValidationError(
            "a budgeted min-plus operator needs direction='upper' or 'lower'"
        )
    from repro.curves.compact import compact_lower, compact_upper

    same = compact_upper if direction == "upper" else compact_lower
    other = compact_lower if direction == "upper" else compact_upper

    def run(compactor, curve):
        return compactor(
            curve, max_segments=max_segments, max_error=max_error
        ).curve

    return same, other, run


def convolve(
    f: PiecewiseLinearCurve,
    g: PiecewiseLinearCurve,
    *,
    max_segments: int | None = None,
    max_error: float | None = None,
    direction: str | None = None,
) -> PiecewiseLinearCurve:
    """Min-plus convolution ``f ⊗ g`` as a new PWL curve (exact).

    Dispatches on the operands' cached structure classification
    (:attr:`~repro.curves.curve.PiecewiseLinearCurve.shape`):
    convex ⊗ convex and concave ⊗ concave take closed-form ``O(n + m)``
    fast paths, everything else the generic ``O(n·m·(n+m))`` construction
    of :mod:`repro.curves.soa` — for trace staircases with thousands of
    jumps prefer :func:`convolve_at` on the Δ values you need.  Results
    are memoized by operand content digest plus a structure tag (see
    :mod:`repro.perf.cache`).

    With a segment/error budget (``max_segments``/``max_error``) and a
    *direction*, the operands and the result are conservatively compacted
    (:mod:`repro.curves.compact`) so iterated chains stay O(budget):
    convolution is monotone in both operands, so compacting everything in
    the result's direction keeps the budgeted result a valid bound of the
    exact one.  Each compaction and the inner exact convolution are
    memoized separately (the compaction keys carry the budgets).
    """
    budget = _budget_compactors(direction, max_segments, max_error)
    if budget is not None:
        same, _, run = budget
        out = convolve(run(same, f), run(same, g))
        return run(same, out)
    return kernel_cache.get_or_compute(
        _convolve_key(f, g), lambda: _convolve_dispatch(f, g)
    )


def _convolve_key(f: PiecewiseLinearCurve, g: PiecewiseLinearCurve) -> tuple:
    """Cache key of ``f ⊗ g``."""
    return (
        "minplus.convolve",
        f.shape + "*" + g.shape,
        f.content_digest(),
        g.content_digest(),
    )


def _count_dispatch(op: str, regime: str) -> None:
    """Count one cache-missed dispatch decision (``minplus.dispatch``
    with ``op``/``regime`` labels) — cache hits never reach a dispatcher,
    so summing the regimes of an op yields exactly its computed calls."""
    counter("minplus.dispatch", op=op, regime=regime).inc()


def _convolve_dispatch(
    f: PiecewiseLinearCurve, g: PiecewiseLinearCurve
) -> PiecewiseLinearCurve:
    if f.is_convex and g.is_convex:
        _count_dispatch("convolve", "convex_fast")
        return _convolve_convex(f, g)
    if f.is_concave and g.is_concave:
        _count_dispatch("convolve", "concave_fast")
        return _convolve_concave(f, g)
    # deferred: the SoA kernel builds on this module's grid helpers
    from repro.curves import soa

    _count_dispatch("convolve", "generic")
    return soa.convolve_batch_soa([(f, g)])[0]


def convolve_generic(
    f: PiecewiseLinearCurve, g: PiecewiseLinearCurve
) -> PiecewiseLinearCurve:
    """The generic exact convolution, bypassing structure dispatch and cache.

    This is the oracle, not the production kernel: :func:`convolve` sends
    generic pairs to :mod:`repro.curves.soa`, which must reproduce this
    construction's envelope, and the closed-form fast paths must agree
    with it pointwise on every operand pair.
    """
    return _convolve_impl(f, g)


def _pair_attrs(f: PiecewiseLinearCurve, g: PiecewiseLinearCurve) -> dict:
    """Span attributes of a binary curve kernel (only built while tracing).

    ``shape`` carries the operands' structure classification pair so the
    profiler (:mod:`repro.obs.profile`) can break kernel self-time down
    by shape class without re-classifying anything."""
    return {
        "f_segments": int(f.breakpoints.size),
        "g_segments": int(g.breakpoints.size),
        "shape": f.shape + "|" + g.shape,
    }


def _generic_attrs(f: PiecewiseLinearCurve, g: PiecewiseLinearCurve) -> dict:
    """Span attributes of the oracle kernel, tagged ``backend=numpy`` so
    traces tell it apart from the production ``soa`` kernel."""
    return {**_pair_attrs(f, g), "backend": "numpy"}


def _restamp(out: PiecewiseLinearCurve, shape: str) -> PiecewiseLinearCurve:
    """Attach a structure classification known by construction.

    The lazy classifier checks interior continuity with exact float
    equality, which cumsum rounding in the fast-path assembly can defeat;
    the closed forms *prove* the result's structure, so an accidental
    "general" verdict is overridden (a sharper verdict — "affine" — is
    kept).
    """
    if out.shape == "general":
        out._shape = shape
    return out


@instrumented("minplus.convolve_convex", attrs=_pair_attrs)
def _convolve_convex(
    f: PiecewiseLinearCurve, g: PiecewiseLinearCurve
) -> PiecewiseLinearCurve:
    """Closed form for convex operands through the origin, ``O(n + m)``.

    The inf spends each unit of Δ on the cheapest marginal rate still
    available, so ``f ⊗ g`` is all finite segments of both operands laid
    end to end in order of increasing slope, capped by the smaller
    asymptotic rate.
    """
    final = min(f.final_slope, g.final_slope)
    lengths = np.concatenate((np.diff(f.breakpoints), np.diff(g.breakpoints)))
    slopes = np.concatenate((f.slopes[:-1], g.slopes[:-1]))
    # segments at or above the asymptotic rate sort after the infinite
    # tail segment, i.e. they are never reached
    keep = slopes < final
    lengths, slopes = lengths[keep], slopes[keep]
    order = np.argsort(slopes, kind="stable")
    lengths, slopes = lengths[order], slopes[order]
    xs = np.concatenate(([0.0], np.cumsum(lengths)))
    ys = np.concatenate(([0.0], np.cumsum(lengths * slopes)))
    ss = np.concatenate((slopes, [final]))
    return _restamp(PiecewiseLinearCurve(xs, ys, ss).simplified(), "convex")


@instrumented("minplus.convolve_concave", attrs=_pair_attrs)
def _convolve_concave(
    f: PiecewiseLinearCurve, g: PiecewiseLinearCurve
) -> PiecewiseLinearCurve:
    """Closed form for concave operands (bursts allowed), ``O(n + m)``.

    Under the ``f(0) = 0`` convention both operands are star-shaped, so
    ``f ⊗ g`` is their pointwise minimum — the textbook identity that the
    convolution of leaky buckets is the min of the buckets.
    """
    return _restamp(f.minimum(g), "concave")


@instrumented("minplus.convolve_generic", attrs=_generic_attrs)
def _convolve_impl(f: PiecewiseLinearCurve, g: PiecewiseLinearCurve) -> PiecewiseLinearCurve:
    fa = _CurveArrays(f)
    ga = _CurveArrays(g)
    grid = _dedupe_grid(
        np.unique(np.add.outer(fa.x, ga.x).ravel())
    )  # contains 0 (= x_f0 + x_g0)
    xs: list[float] = []
    ys: list[float] = []
    ss: list[float] = []
    final_slope = min(f.final_slope, g.final_slope)
    n_grid = grid.size
    for i in range(n_grid):
        a = float(grid[i])
        last = i + 1 >= n_grid
        b = a + max(1.0, abs(a)) if last else float(grid[i + 1])
        mid = 0.5 * (a + b)
        va, sl = _configuration_lines_convolve(fa, ga, a, mid)
        if last:
            b = math.inf
        # the envelope value at `a` is already the right limit: configurations
        # feasible on [a, b) evaluated at a reproduce the RC value exactly
        for start, val, slope in _line_envelope_on_interval(va, sl, a, b, lower=True):
            xs.append(start)
            ys.append(max(val, 0.0))
            ss.append(max(slope, 0.0))
    ss[-1] = max(final_slope, 0.0)
    return _monotone_pwl(xs, ys, ss)


def _configuration_lines_deconvolve(
    f: _CurveArrays, g: _CurveArrays, a: float, mid: float
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate lines for (f⊘g) on an interval with midpoint *mid*.

    Configurations: ``u`` pinned at a breakpoint of g (line follows f,
    always feasible), or ``Δ + u`` pinned at a breakpoint of f (line slope
    is g's local slope; feasible while ``x_f >= Δ``)."""
    vas: list[np.ndarray] = []
    sls: list[np.ndarray] = []
    half = mid - a

    u = g.x
    slope = f.slope_at(mid + u)
    f_shift = f.eval_at(mid + u)
    g_at = np.where(u == 0.0, 0.0, g.y)
    vas.append(f_shift - g_at - slope * half)
    sls.append(slope)
    # probe just below a g-jump: g's left limit is smaller, which can
    # only increase the supremum (f changes only infinitesimally there
    # unless Δ+u hits an f-breakpoint, which is a grid point)
    jump = u > 0.0
    if np.any(jump):
        vas.append(f_shift[jump] - g.left[jump] - slope[jump] * half)
        sls.append(slope[jump])

    fsel = f.x >= mid  # u = t − Δ stays >= 0 around the midpoint
    if np.any(fsel):
        t = f.x[fsel]
        u_mid = t - mid
        slope = g.slope_at(u_mid)
        g_umid = np.where(u_mid == 0.0, 0.0, g.eval_at(u_mid))
        vas.append(f.y[fsel] - g_umid - slope * half)
        sls.append(slope)

    return np.concatenate(vas), np.concatenate(sls)


def deconvolve(
    f: PiecewiseLinearCurve,
    g: PiecewiseLinearCurve,
    *,
    max_segments: int | None = None,
    max_error: float | None = None,
    direction: str | None = None,
) -> PiecewiseLinearCurve:
    """Min-plus deconvolution ``f ⊘ g`` as a new PWL curve (exact up to
    left-limit epsilon probes at jumps).

    Used for the output arrival curve ``α* = α ⊘ β`` of a served flow.
    Dispatches on operand structure: concave ``f`` over convex ``g`` (the
    dominant case — measured arrival envelope over rate-latency service)
    takes a closed-form ``O(n + m)`` walk, everything else the generic
    construction of :mod:`repro.curves.soa`.  Raises
    :class:`UnboundedCurveError` when the result is infinite.  Results are
    memoized by operand content digest plus a structure tag.

    With a budget and a *direction* the operands are compacted before and
    the result after, like :func:`convolve` — but deconvolution is
    monotone *decreasing* in ``g``, so an upper-direction budget compacts
    ``f`` up and ``g`` **down** (and vice versa).  Both compactions
    preserve the asymptotic slopes, so the divergence check is unchanged.
    """
    budget = _budget_compactors(direction, max_segments, max_error)
    if budget is not None:
        same, other, run = budget
        out = deconvolve(run(same, f), run(other, g))
        return run(same, out)
    if f.final_slope > g.final_slope + 1e-12:
        raise UnboundedCurveError(
            f"deconvolution diverges: arrival rate {f.final_slope:g} exceeds "
            f"service rate {g.final_slope:g}"
        )
    return kernel_cache.get_or_compute(
        _deconvolve_key(f, g), lambda: _deconvolve_dispatch(f, g)
    )


def _deconvolve_key(f: PiecewiseLinearCurve, g: PiecewiseLinearCurve) -> tuple:
    """Cache key of ``f ⊘ g``."""
    return (
        "minplus.deconvolve",
        f.shape + "/" + g.shape,
        f.content_digest(),
        g.content_digest(),
    )


def _deconvolve_dispatch(
    f: PiecewiseLinearCurve, g: PiecewiseLinearCurve
) -> PiecewiseLinearCurve:
    # the fast path needs the supremum's slope crossover to exist exactly,
    # hence the strict (no-epsilon) rate comparison; the sliver of curves
    # admitted by deconvolve()'s tolerant divergence check falls back to
    # the generic construction
    if f.is_concave and g.is_convex and f.final_slope <= g.final_slope:
        _count_dispatch("deconvolve", "concave_convex_fast")
        return _deconvolve_concave_convex(f, g)
    from repro.curves import soa

    _count_dispatch("deconvolve", "generic")
    return soa.deconvolve_batch_soa([(f, g)])[0]


def deconvolve_generic(
    f: PiecewiseLinearCurve, g: PiecewiseLinearCurve
) -> PiecewiseLinearCurve:
    """The generic exact deconvolution, bypassing structure dispatch and
    cache.

    The oracle of the SoA kernel and of the structure property suite,
    like :func:`convolve_generic`.  Raises :class:`UnboundedCurveError`
    when the result is infinite.
    """
    if f.final_slope > g.final_slope + 1e-12:
        raise UnboundedCurveError(
            f"deconvolution diverges: arrival rate {f.final_slope:g} exceeds "
            f"service rate {g.final_slope:g}"
        )
    return _deconvolve_impl(f, g)


@instrumented("minplus.deconvolve_concave", attrs=_pair_attrs)
def _deconvolve_concave_convex(
    f: PiecewiseLinearCurve, g: PiecewiseLinearCurve
) -> PiecewiseLinearCurve:
    """Closed form for concave ``f`` over convex ``g``, ``O(n + m)``.

    The inner objective ``φ_Δ(u) = f(Δ + u) − g(u)`` is concave in ``u``
    (concave minus convex), so at ``Δ = 0`` its supremum sits at the first
    crossover ``u₀`` where f's slope has dropped to g's.  As Δ grows the
    optimizer walks back down from ``u₀``: each step of the result either
    extends ``Δ + u`` across an f-segment above ``u₀`` or retracts ``u``
    across a g-segment below ``u₀``, whichever offers the larger marginal
    slope.  The result is therefore the merge, in order of *decreasing*
    slope, of f's segments on ``[u₀, ∞)`` with g's segments on
    ``[0, u₀)``, starting from ``(f ⊘ g)(0) = f(u₀) − g(u₀)`` — concave by
    construction, with f's asymptotic rate as its tail.
    """
    fx, fs = f.breakpoints, f.slopes
    gx, gs = g.breakpoints, g.slopes
    # u0: slopes are piecewise constant, f's non-increasing and g's
    # non-decreasing, so probing the merged breakpoints finds the first
    # crossover exactly; the caller's f.final_slope <= g.final_slope
    # check guarantees one exists
    w = np.union1d(fx, gx)
    sf_w = fs[np.searchsorted(fx, w, side="right") - 1]
    sg_w = gs[np.searchsorted(gx, w, side="right") - 1]
    u0 = float(w[np.argmax(sf_w <= sg_w)])
    r0 = float(f(u0)) - (0.0 if u0 == 0.0 else float(g(u0)))
    # finite f-segments on [u0, inf); fs[-1] becomes the result's tail
    i0 = int(np.searchsorted(fx, u0, side="right")) - 1
    f_len = np.diff(np.concatenate(([u0], fx[i0 + 1:])))
    f_slo = fs[i0:-1]
    # g-segments covering [0, u0), walked in reverse
    j0 = int(np.searchsorted(gx, u0, side="left"))
    g_len = np.diff(np.concatenate((gx[:j0], [u0])))
    g_slo = gs[:j0]
    final = f.final_slope
    lengths = np.concatenate((f_len, g_len))
    slopes = np.concatenate((f_slo, g_slo))
    # segments at or below the tail rate sort after the infinite tail
    # segment, i.e. they are never reached
    keep = slopes > final
    lengths, slopes = lengths[keep], slopes[keep]
    order = np.argsort(-slopes, kind="stable")
    lengths, slopes = lengths[order], slopes[order]
    xs = np.concatenate(([0.0], np.cumsum(lengths)))
    ys = r0 + np.concatenate(([0.0], np.cumsum(lengths * slopes)))
    ss = np.concatenate((slopes, [final]))
    return _restamp(PiecewiseLinearCurve(xs, ys, ss).simplified(), "concave")


@instrumented("minplus.deconvolve_generic", attrs=_generic_attrs)
def _deconvolve_impl(f: PiecewiseLinearCurve, g: PiecewiseLinearCurve) -> PiecewiseLinearCurve:
    fa = _CurveArrays(f)
    ga = _CurveArrays(g)
    diffs = np.unique(np.subtract.outer(fa.x, ga.x).ravel())
    grid = _dedupe_grid(diffs[diffs >= 0.0])
    if grid.size == 0 or grid[0] != 0.0:
        grid = np.concatenate(([0.0], grid))
    xs: list[float] = []
    ys: list[float] = []
    ss: list[float] = []
    n_grid = grid.size
    for i in range(n_grid):
        a = float(grid[i])
        last = i + 1 >= n_grid
        b = a + max(1.0, abs(a)) if last else float(grid[i + 1])
        mid = 0.5 * (a + b)
        va, sl = _configuration_lines_deconvolve(fa, ga, a, mid)
        if last:
            b = math.inf
        for start, val, slope in _line_envelope_on_interval(va, sl, a, b, lower=False):
            xs.append(start)
            ys.append(max(val, 0.0))
            ss.append(max(slope, 0.0))
    ss[-1] = max(f.final_slope, 0.0)
    return _monotone_pwl(xs, ys, ss)


def _dedupe_grid(grid: np.ndarray) -> np.ndarray:
    """Collapse near-duplicate cell boundaries of an outer-sum grid.

    Breakpoint sums/differences that coincide mathematically can differ by
    a few ulps in float arithmetic, leaving sliver cells (width ~1e-16)
    whose midpoint configuration selection is numerically meaningless —
    the emitted envelope piece can be arbitrarily wrong.  Such cells carry
    no information (the function is a point there), so boundaries closer
    than 1e-12 relative are merged into one.
    """
    if grid.size <= 1:
        return grid
    keep = np.concatenate(
        ([True], np.diff(grid) > 1e-12 * np.maximum(1.0, np.abs(grid[1:])))
    )
    return grid[keep]


def _monotone_pwl(xs: list[float], ys: list[float], ss: list[float]) -> PiecewiseLinearCurve:
    """Assemble a PWL curve, snapping tiny numerical dips to monotone.

    Dips below a previous segment's left limit of relative size up to 1e-6
    are attributed to floating-point noise in the envelope sweep and snapped
    up; anything larger would indicate a logic error and is surfaced by the
    :class:`PiecewiseLinearCurve` constructor.
    """
    x = np.array(xs)
    y = np.array(ys)
    s = np.array(ss)
    for i in range(1, x.size):
        left = y[i - 1] + s[i - 1] * (x[i] - x[i - 1])
        if y[i] < left and (left - y[i]) <= 1e-6 * max(1.0, abs(left)):
            y[i] = left
    return PiecewiseLinearCurve(x, y, s).simplified()


def self_convolution_fixpoint(
    f: PiecewiseLinearCurve, *, iterations: int = 8
) -> PiecewiseLinearCurve:
    """Sub-additive closure approximation ``f* ≈ min(f, f⊗f, f⊗f⊗f, ...)``.

    Iterates ``h ← min(h, h ⊗ f)`` up to *iterations* times, stopping early
    at a fixpoint; concave curves stabilize after one step, where the result
    is exact.  Memoized on ``(f, iterations)``; the inner convolutions also
    hit the kernel cache individually.
    """
    if iterations < 1:
        raise ValidationError("iterations must be >= 1")
    key = ("minplus.self_fixpoint", f.content_digest(), int(iterations))
    return kernel_cache.get_or_compute(key, lambda: _self_fixpoint_impl(f, iterations))


@instrumented(
    "minplus.self_fixpoint",
    attrs=lambda f, iterations: {
        "segments": int(f.breakpoints.size),
        "iterations": int(iterations),
    },
)
def _self_fixpoint_impl(f: PiecewiseLinearCurve, iterations: int) -> PiecewiseLinearCurve:
    h = f
    for _ in range(iterations):
        nxt = h.minimum(convolve(h, f))
        if nxt == h:
            break
        h = nxt
    return h
