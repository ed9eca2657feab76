"""Piecewise-linear curves over time intervals ``Δ >= 0``.

Network Calculus (Le Boudec & Thiran; paper §3.2) works with wide-sense
increasing functions of the interval length Δ: *arrival curves* ``α(Δ)``
bound the traffic seen in any window of length Δ, *service curves* ``β(Δ)``
bound the service guaranteed in any window.  This module provides the exact
piecewise-linear (PWL) representation both kinds share.

Representation
--------------
A :class:`PiecewiseLinearCurve` is given by parallel arrays ``x``, ``y``,
``slope``: on segment ``[x[i], x[i+1])`` the curve equals
``y[i] + slope[i]·(Δ − x[i])``; the last slope extends to infinity.  The
curve is right-continuous and may jump upward at breakpoints (this is how
staircase arrival curves are represented: zero slopes plus jumps).  All
curves must be non-negative and wide-sense increasing.

Exactness
---------
All operations (``+``, scalar ``*``, pointwise ``max``/``min``, min-plus
convolution/deconvolution in :mod:`repro.curves.minplus`, and the
backlog/delay bounds in :mod:`repro.curves.bounds`) are *exact* for PWL
curves: results are computed at candidate breakpoints that provably contain
every breakpoint of the true result.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.util.validation import ValidationError, check_non_negative, check_positive

__all__ = ["PiecewiseLinearCurve", "zero_curve", "linear_curve", "step_curve", "EPS_REL"]

#: Relative epsilon used when probing left limits at breakpoints.
EPS_REL = 1e-9


class PiecewiseLinearCurve:
    """An exact, right-continuous, wide-sense increasing PWL curve on Δ ≥ 0.

    Parameters
    ----------
    x:
        Strictly increasing breakpoints; ``x[0]`` must be ``0``.
    y:
        Curve value at each breakpoint (right limit); non-negative.
    slope:
        Slope of the segment starting at each breakpoint; non-negative.
        ``slope[-1]`` is the asymptotic slope.
    """

    def __init__(self, x: Sequence[float], y: Sequence[float], slope: Sequence[float]):
        xa = np.asarray(x, dtype=float)
        ya = np.asarray(y, dtype=float)
        sa = np.asarray(slope, dtype=float)
        if not (xa.ndim == ya.ndim == sa.ndim == 1) or not (xa.size == ya.size == sa.size):
            raise ValidationError("x, y, slope must be equal-length 1-D sequences")
        if xa.size == 0:
            raise ValidationError("curve needs at least one segment")
        if xa[0] != 0.0:
            raise ValidationError("first breakpoint must be at 0")
        if np.any(np.diff(xa) <= 0):
            raise ValidationError("breakpoints must be strictly increasing")
        if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(ya)) and np.all(np.isfinite(sa))):
            raise ValidationError("curve data must be finite")
        if np.any(ya < 0):
            raise ValidationError("curve must be non-negative")
        if np.any(sa < 0):
            raise ValidationError("slopes must be non-negative (wide-sense increasing)")
        # each breakpoint value must be >= the left limit of the previous segment
        if xa.size > 1:
            left_limits = ya[:-1] + sa[:-1] * np.diff(xa)
            if np.any(ya[1:] < left_limits - 1e-12 * np.maximum(1.0, np.abs(left_limits))):
                raise ValidationError("curve must be wide-sense increasing (downward jump)")
        self._x = xa
        self._y = ya
        self._s = sa
        self._digest: bytes | None = None
        self._hash: int | None = None
        self._shape: str | None = None

    # -- accessors ------------------------------------------------------------------
    @property
    def breakpoints(self) -> np.ndarray:
        """Copy of the breakpoint abscissae."""
        return self._x.copy()

    @property
    def values_at_breakpoints(self) -> np.ndarray:
        """Copy of the right-limit values at breakpoints."""
        return self._y.copy()

    @property
    def slopes(self) -> np.ndarray:
        """Copy of the per-segment slopes."""
        return self._s.copy()

    @property
    def final_slope(self) -> float:
        """Asymptotic growth rate (slope of the last, unbounded segment)."""
        return float(self._s[-1])

    @property
    def n_segments(self) -> int:
        """Number of linear segments."""
        return int(self._x.size)

    # -- structure classification -----------------------------------------------------
    @property
    def shape(self) -> str:
        """Structural class of the curve under the min-plus ``f(0) = 0``
        convention: ``"convex"``, ``"concave"``, ``"affine"`` (both), or
        ``"general"``.

        Classified once per instance and cached alongside the content
        digest; the min-plus operators in :mod:`repro.curves.minplus` use
        it to dispatch to closed-form ``O(n + m)`` fast paths.

        The classification is of the *effective* function ``f̃`` with
        ``f̃(0) = 0`` (the stored ``f(0)`` is the right limit, i.e. the
        burst):

        * **convex** — ``f(0) = 0``, continuous (no jumps anywhere), and
          slopes non-decreasing.  E.g. rate-latency service curves.
        * **concave** — continuous on ``(0, ∞)`` (an upward jump at 0 is
          allowed — ``f̃`` with a burst is still concave in the min-plus
          sense) and slopes non-increasing.  E.g. leaky buckets.
        * **affine** — both of the above: a single rate through the
          origin, such as the full-processor service curve ``F·Δ``.
        * **general** — everything else (staircases, TDMA curves, …).

        Interior continuity is checked with *exact* float equality: a
        curve whose breakpoint values carry rounding noise classifies as
        ``"general"`` and takes the generic (always-correct) kernels, so a
        misclassification can cost speed but never correctness.
        """
        if self._shape is None:
            self._shape = self._classify()
        return self._shape

    def _classify(self) -> str:
        if self._x.size > 1:
            left_limits = self._y[:-1] + self._s[:-1] * np.diff(self._x)
            continuous = bool(np.all(self._y[1:] == left_limits))
        else:
            continuous = True
        if not continuous:
            return "general"
        diffs = np.diff(self._s)
        convex = self._y[0] == 0.0 and bool(np.all(diffs >= 0))
        concave = bool(np.all(diffs <= 0))
        if convex and concave:
            return "affine"
        if convex:
            return "convex"
        if concave:
            return "concave"
        return "general"

    @property
    def is_convex(self) -> bool:
        """True if the curve is convex with ``f(0) = 0`` (see :attr:`shape`)."""
        return self.shape in ("convex", "affine")

    @property
    def is_concave(self) -> bool:
        """True if the effective min-plus function is concave (see
        :attr:`shape`); an upward jump at 0 (a burst) is allowed."""
        return self.shape in ("concave", "affine")

    # -- evaluation -----------------------------------------------------------------
    def __call__(self, delta):
        """Evaluate at Δ (scalar or array-like); Δ must be >= 0."""
        arr = np.asarray(delta, dtype=float)
        if np.any(arr < 0):
            raise ValidationError("delta must be >= 0")
        scalar = arr.ndim == 0
        dd = np.atleast_1d(arr)
        idx = np.searchsorted(self._x, dd, side="right") - 1
        out = self._y[idx] + self._s[idx] * (dd - self._x[idx])
        return float(out[0]) if scalar else out

    def left_limit(self, delta: float) -> float:
        """The left limit ``f(Δ⁻)`` (equals ``f(Δ)`` except at upward jumps).

        ``left_limit(0)`` is defined as ``f(0)``.
        """
        delta = check_non_negative(delta, "delta")
        if delta == 0.0:
            return float(self._y[0])
        i = int(np.searchsorted(self._x, delta, side="left")) - 1
        # delta is strictly inside segment i, or exactly at breakpoint i+1
        return float(self._y[i] + self._s[i] * (delta - self._x[i]))

    def jump_at(self, delta: float) -> float:
        """Size of the upward jump at Δ (0 if continuous there)."""
        return float(self(delta)) - self.left_limit(delta)

    def inverse(self, value: float) -> float:
        """Lower pseudo-inverse ``f⁻¹(v) = inf{Δ >= 0 : f(Δ) >= v}``.

        Raises if *v* is never reached (final slope 0 and v above the
        plateau).
        """
        value = check_non_negative(value, "value")
        if value <= self._y[0]:
            return 0.0
        # find the first segment whose sup >= value
        for i in range(self._x.size):
            seg_end_val = (
                self._y[i] + self._s[i] * (self._x[i + 1] - self._x[i])
                if i + 1 < self._x.size
                else np.inf if self._s[i] > 0 else self._y[i]
            )
            if value <= self._y[i]:
                return float(self._x[i])
            if value <= seg_end_val:
                if self._s[i] > 0:
                    return float(self._x[i] + (value - self._y[i]) / self._s[i])
                return float(self._x[i + 1])  # reached by the jump at next bp
        raise ValidationError(f"curve never reaches value {value!r}")

    # -- arithmetic -----------------------------------------------------------------
    def __add__(self, other: "PiecewiseLinearCurve") -> "PiecewiseLinearCurve":
        if not isinstance(other, PiecewiseLinearCurve):
            return NotImplemented
        xs = np.union1d(self._x, other._x)
        ys = self(xs) + other(xs)
        ss = self._slope_at(xs) + other._slope_at(xs)
        out = PiecewiseLinearCurve(xs, ys, ss).simplified()
        # the sum of curves of one structural class stays in that class
        # (affine + affine is affine); mixed sums prove nothing
        if self.is_convex and other.is_convex:
            shape = "affine" if self.shape == other.shape == "affine" else "convex"
            return _stamp(out, shape)
        if self.is_concave and other.is_concave:
            return _stamp(out, "concave")
        return out

    def __mul__(self, factor: float) -> "PiecewiseLinearCurve":
        factor = check_positive(factor, "factor")
        out = PiecewiseLinearCurve(self._x, self._y * factor, self._s * factor)
        # classify the *original* arrays and carry the verdict over:
        # positive scaling preserves the structural class, while
        # re-classifying the scaled arrays could spuriously fail the
        # exact-equality continuity check on rounded products
        out._shape = self.shape
        return out

    __rmul__ = __mul__

    def shift_up(self, amount: float) -> "PiecewiseLinearCurve":
        """Curve raised by a constant ``amount >= 0``."""
        amount = check_non_negative(amount, "amount")
        if amount == 0.0:
            return self
        out = PiecewiseLinearCurve(self._x, self._y + amount, self._s)
        if self.is_concave:
            # raising a concave/affine curve only grows the burst
            return _stamp(out, "concave")
        return out

    def shift_right(self, amount: float) -> "PiecewiseLinearCurve":
        """Curve delayed by ``amount >= 0``: ``g(Δ) = f(max(0, Δ − amount))``
        clamped at ``f(0)`` before the shift (used to add latency to a
        service curve)."""
        amount = check_non_negative(amount, "amount")
        if amount == 0.0:
            return self
        xs = np.concatenate(([0.0], self._x + amount))
        ys = np.concatenate(([self._y[0]], self._y))
        ss = np.concatenate(([0.0], self._s))
        out = PiecewiseLinearCurve(xs, ys, ss).simplified()
        if self.is_convex:
            # prepending the zero-slope latency segment keeps the slopes
            # sorted and the origin at 0 — rate-latency stays convex
            return _stamp(out, "convex")
        return out

    def maximum(self, other: "PiecewiseLinearCurve") -> "PiecewiseLinearCurve":
        """Exact pointwise maximum."""
        out = self._extremum(other, np.maximum, pick_max=True)
        if self.is_convex and other.is_convex:
            shape = "affine" if self.shape == other.shape == "affine" else "convex"
            return _stamp(out, shape)
        return out

    def minimum(self, other: "PiecewiseLinearCurve") -> "PiecewiseLinearCurve":
        """Exact pointwise minimum."""
        out = self._extremum(other, np.minimum, pick_max=False)
        if self.is_concave and other.is_concave:
            shape = "affine" if self.shape == other.shape == "affine" else "concave"
            return _stamp(out, shape)
        return out

    def _slope_at(self, deltas: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self._x, deltas, side="right") - 1
        return self._s[idx]

    def _extremum(self, other, op, *, pick_max: bool) -> "PiecewiseLinearCurve":
        if not isinstance(other, PiecewiseLinearCurve):
            raise ValidationError("operand must be a PiecewiseLinearCurve")
        grid = np.union1d(self._x, other._x)
        # both curves are linear on every cell [a, b) of the union grid, so
        # each cell holds at most one interior crossing
        f_grid, g_grid = self(grid), other(grid)
        sf, sg = self._slope_at(grid), other._slope_at(grid)
        a, b = grid[:-1], grid[1:]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = a + (g_grid[:-1] - f_grid[:-1]) / (sf[:-1] - sg[:-1])
        crossings = t[(sf[:-1] != sg[:-1]) & (a < t) & (t < b)]
        # crossing beyond the last breakpoint; final slopes that differ by
        # a subnormal amount put it past the largest float, which is no
        # crossing
        last, fa, ga = grid[-1], f_grid[-1], g_grid[-1]
        tail = []
        if (fa - ga) * (sf[-1] - sg[-1]) < 0:
            with np.errstate(over="ignore"):
                cross = last + (ga - fa) / (sf[-1] - sg[-1])
            if last < cross < np.inf:
                tail.append(cross)
        xall = np.unique(np.concatenate((grid, crossings, tail)))
        f_vals, g_vals = self(xall), other(xall)
        yall = op(f_vals, g_vals)
        # slope at each breakpoint: slope of the winning curve just after it
        f_slopes, g_slopes = self._slope_at(xall), other._slope_at(xall)
        # ties must be detected with a *tight* tolerance: a loose absolute
        # tolerance (np.isclose's default 1e-8) classifies genuinely distinct
        # small values as equal and then picks the wrong continuation slope,
        # manufacturing a downward jump at the next crossing point
        tie = np.isclose(f_vals, g_vals, rtol=1e-12, atol=1e-15)
        if pick_max:
            winner_f = f_vals > g_vals
            slopes = np.where(winner_f, f_slopes, g_slopes)
            slopes = np.where(tie, np.maximum(f_slopes, g_slopes), slopes)
        else:
            winner_f = f_vals < g_vals
            slopes = np.where(winner_f, f_slopes, g_slopes)
            slopes = np.where(tie, np.minimum(f_slopes, g_slopes), slopes)
        return PiecewiseLinearCurve(xall, yall, slopes).simplified()

    def simplified(self) -> "PiecewiseLinearCurve":
        """Merge collinear adjacent segments (no value change anywhere).

        Each breakpoint is compared against the last *kept* one: it is
        dropped when it lies on the kept segment's line and continues with
        its slope, both within 1e-12.  The unbounded last segment merges
        only into a bit-equal slope, so the asymptotic rate is preserved
        exactly.
        """
        xs, ys, ss = self._x.tolist(), self._y.tolist(), self._s.tolist()
        last = len(xs) - 1
        keep = [0]
        px, py, ps = xs[0], ys[0], ss[0]
        for i in range(1, last + 1):
            expected = py + ps * (xs[i] - px)
            # the np.isclose(rtol=1e-12, atol=1e-12) test on Python floats;
            # slopes must match in *relative* terms: an absolute tolerance
            # would be amplified by the segment span into a value error the
            # constructor's monotonicity check rejects (e.g. merging slopes
            # 1e-12 and 0 over a span of 3 manufactures a downward jump)
            if abs(expected - ys[i]) <= 1e-12 + 1e-12 * abs(ys[i]) and (
                ps == ss[i] if i == last else abs(ps - ss[i]) <= 1e-12 * abs(ss[i])
            ):
                continue
            keep.append(i)
            px, py, ps = xs[i], ys[i], ss[i]
        if len(keep) == self._x.size:
            return self
        idx = np.array(keep)
        out = PiecewiseLinearCurve(self._x[idx], self._y[idx], self._s[idx])
        # merging collinear segments does not change the function, so a
        # classification already computed for the source stays valid
        out._shape = self._shape
        return out

    # -- comparison --------------------------------------------------------------------
    def dominates(self, other: "PiecewiseLinearCurve") -> bool:
        """True if this curve is >= *other* for every Δ (exact PWL check)."""
        xs = np.union1d(self._x, other._x)
        probe = np.concatenate((xs, xs[1:] - EPS_REL * np.maximum(1.0, xs[1:])))
        probe = probe[probe >= 0]
        if np.any(self(probe) < other(probe) - 1e-9):
            return False
        return self.final_slope >= other.final_slope - 1e-12

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PiecewiseLinearCurve):
            return NotImplemented
        a, b = self.simplified(), other.simplified()
        if a._x.size != b._x.size:
            return False
        return (
            np.allclose(a._x, b._x)
            and np.allclose(a._y, b._y)
            and np.allclose(a._s, b._s)
        )

    def __hash__(self) -> int:
        """Hash consistent with :meth:`__eq__`.

        Equality is *approximate* (``allclose`` on the simplified
        representation), so the hash may only depend on invariants that are
        exactly equal for every pair of equal curves — here the simplified
        segment count, which ``__eq__`` requires to match.  The hash is
        deliberately coarse; within a dict bucket the exact ``__eq__``
        disambiguates.  Exact cache keys use :meth:`content_digest` instead.
        """
        if self._hash is None:
            self._hash = hash(("PiecewiseLinearCurve", self.simplified()._x.size))
        return self._hash

    def content_digest(self) -> bytes:
        """Exact content digest of the stored representation (cache key).

        Bit-identical curves share a digest; ``allclose``-but-not-identical
        curves do not — content-addressed caching therefore never conflates
        two curves that could evaluate differently.
        """
        if self._digest is None:
            from repro.perf.cache import digest_of

            self._digest = digest_of(b"pwl", self._x, self._y, self._s)
        return self._digest

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PiecewiseLinearCurve(n_segments={self.n_segments}, "
            f"f(0)={self._y[0]:g}, final_slope={self.final_slope:g})"
        )


def _stamp(out: PiecewiseLinearCurve, shape: str) -> PiecewiseLinearCurve:
    """Attach a structure classification proved by the construction.

    Mirrors :func:`repro.curves.minplus._restamp`: the lazy classifier
    checks interior continuity with exact float equality, which rounding in
    a curve operation can defeat; a construction-proved verdict overrides
    an accidental "general", while a sharper computed verdict ("affine")
    is kept.
    """
    if out.shape == "general":
        out._shape = shape
    return out


def zero_curve() -> PiecewiseLinearCurve:
    """The identically-zero curve."""
    return PiecewiseLinearCurve([0.0], [0.0], [0.0])


def linear_curve(rate: float, *, offset: float = 0.0) -> PiecewiseLinearCurve:
    """``f(Δ) = offset + rate·Δ`` — e.g. the full-processor service curve
    ``β(Δ) = F·Δ`` of the paper's eq. (9)."""
    check_non_negative(rate, "rate")
    check_non_negative(offset, "offset")
    return PiecewiseLinearCurve([0.0], [offset], [rate])


def step_curve(jump_positions: Sequence[float], jump_heights: Sequence[float] | None = None) -> PiecewiseLinearCurve:
    """Right-continuous staircase: at each position the curve jumps by the
    corresponding height (default 1).  Positions must be non-decreasing and
    non-negative; coincident positions merge their heights.

    This is the natural form of a trace-derived arrival curve ``ᾱ(Δ)``.
    """
    pos = np.asarray(jump_positions, dtype=float)
    if pos.ndim != 1 or pos.size == 0:
        raise ValidationError("jump_positions must be a non-empty 1-D sequence")
    if np.any(pos < 0) or np.any(np.diff(pos) < 0):
        raise ValidationError("jump_positions must be non-negative and non-decreasing")
    if jump_heights is None:
        hts = np.ones(pos.size)
    else:
        hts = np.asarray(jump_heights, dtype=float)
        if hts.shape != pos.shape:
            raise ValidationError("jump_heights must match jump_positions")
        if np.any(hts <= 0):
            raise ValidationError("jump heights must be positive")
    # merge coincident positions
    uniq, inverse = np.unique(pos, return_inverse=True)
    merged = np.zeros(uniq.size)
    np.add.at(merged, inverse, hts)
    cumulative = np.cumsum(merged)
    if uniq[0] == 0.0:
        xs = uniq
        ys = cumulative
    else:
        xs = np.concatenate(([0.0], uniq))
        ys = np.concatenate(([0.0], cumulative))
    return PiecewiseLinearCurve(xs, ys, np.zeros(xs.size))
