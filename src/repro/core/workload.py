"""Workload curves ``γ^u(k)`` / ``γ^l(k)`` (paper, Definition 1).

An *upper workload curve* ``γ^u(k)`` bounds from above — and a *lower
workload curve* ``γ^l(k)`` from below — the number of processor cycles needed
to process **any** ``k`` consecutive activations of a task:

.. math::

    γ^u(k) = \\max_{j}\\; γ_w(j, k), \\qquad
    γ^l(k) = \\min_{j}\\; γ_b(j, k)

The curves are strictly increasing, ``γ(0) = 0``, and admit pseudo-inverses

.. math::

    γ^{u-1}(e) = \\max\\{k : γ^u(k) \\le e\\}, \\qquad
    γ^{l-1}(e) = \\min\\{k : γ^l(k) \\ge e\\}

used to convert cycle-based service curves into event-based ones (paper
eq. (7)).  Note the paper's §2.1 property list swaps WCET/BCET in one
sentence; the correct identities, implemented and tested here, are
``wcet = γ^u(1)`` and ``bcet = γ^l(1)``.

Representation
--------------
A curve is stored as samples on a strictly-increasing integer grid
``k_1 < k_2 < ... < K`` (``γ(0) = 0`` is implicit).  Between grid points the
curve is evaluated *conservatively*: an upper curve returns the value at the
next grid point ≥ k, a lower curve the value at the last grid point ≤ k, so a
sparsely-sampled curve is always a valid (if slightly looser) bound.
Beyond the horizon ``K`` the curve is extended additively:

.. math::

    γ^u(qK + r) = q\\,γ^u(K) + γ^u(r), \\qquad
    γ^l(qK + r) = q\\,γ^l(K) + γ^l(r)

which is a correct bound whenever the curve is sub-additive (upper) or
super-additive (lower) — true by construction for envelopes extracted from
traces, and checked (optionally) for user-supplied curves by
:func:`repro.core.validation.check_subadditive`.
"""

from __future__ import annotations

from typing import Literal, Sequence

import numpy as np

from repro.core.trace import EventTrace
from repro.obs.tracing import tracer
from repro.util.staircase import (
    cumulative_envelope_max,
    cumulative_envelope_min,
    cumulative_envelope_minmax,
    make_k_grid,
    streaming_envelope_minmax,
)
from repro.util.validation import (
    ValidationError,
    check_integer,
    check_positive,
)

__all__ = ["WorkloadCurve", "WorkloadCurvePair"]

Kind = Literal["upper", "lower"]


class WorkloadCurve:
    """A single workload curve (upper or lower) on the integer domain.

    Parameters
    ----------
    kind:
        ``"upper"`` for ``γ^u`` or ``"lower"`` for ``γ^l``.
    k_values:
        Strictly increasing positive integers — the sample grid.  ``k = 0``
        (value 0) is implicit and must not be included.
    values:
        Curve samples at *k_values*; must be positive and strictly
        increasing (each activation demands > 0 cycles).
    """

    def __init__(self, kind: Kind, k_values: Sequence[int], values: Sequence[float]):
        if kind not in ("upper", "lower"):
            raise ValidationError(f"kind must be 'upper' or 'lower', got {kind!r}")
        ks = np.asarray(k_values, dtype=np.int64)
        vs = np.asarray(values, dtype=float)
        if ks.ndim != 1 or vs.ndim != 1 or ks.size != vs.size or ks.size == 0:
            raise ValidationError("k_values and values must be equal-length 1-D sequences")
        if ks[0] < 1 or np.any(np.diff(ks) <= 0):
            raise ValidationError("k_values must be strictly increasing integers >= 1")
        if not np.all(np.isfinite(vs)):
            raise ValidationError("values must be finite")
        # exact trace-derived curves are strictly increasing (each activation
        # demands > 0 cycles), but curves resampled through the conservative
        # grid rule legitimately carry plateaus — require non-decreasing here
        # and leave strictness to the audits in repro.core.validation
        if vs[0] <= 0 or np.any(np.diff(vs) < 0):
            raise ValidationError(
                "values must be positive and non-decreasing"
            )
        self._kind: Kind = kind
        self._ks = ks
        self._vs = vs
        self._digest: bytes | None = None

    # -- constructors --------------------------------------------------------------
    @classmethod
    def from_trace(
        cls,
        trace: EventTrace,
        kind: Kind,
        *,
        demands: Literal["auto", "measured", "interval"] = "auto",
        k_values: Sequence[int] | None = None,
    ) -> "WorkloadCurve":
        """Extract a workload curve from a trace (paper §2.1, trace mode).

        ``demands`` selects the per-event demand vector:

        * ``"interval"`` — the definitional per-type WCET (upper) / BCET
          (lower) sums ``γ_w`` / ``γ_b``; needs an execution profile.
        * ``"measured"`` — observed per-event demands; the resulting curve is
          guaranteed for this trace (class) only, exactly the caveat the
          paper states for simulation-derived curves.
        * ``"auto"`` — measured if every event carries a demand, else
          interval.

        *k_values* defaults to :func:`repro.util.staircase.make_k_grid`
        (dense prefix + geometric tail for long traces).
        """
        if demands == "auto":
            demands = "measured" if trace.has_measured_demands else "interval"
        if demands == "measured":
            per_event = trace.measured_demands()
        elif demands == "interval":
            per_event = (
                trace.worst_case_demands() if kind == "upper" else trace.best_case_demands()
            )
        else:
            raise ValidationError(f"unknown demands mode {demands!r}")
        ks = make_k_grid(len(trace)) if k_values is None else np.asarray(k_values, np.int64)
        with tracer.span(
            "workload.extract", source="trace", kind=kind,
            events=int(per_event.size), grid=int(ks.size),
        ):
            if kind == "upper":
                vs = cumulative_envelope_max(per_event, ks)
            else:
                vs = cumulative_envelope_min(per_event, ks)
        return cls(kind, ks, vs)

    @classmethod
    def from_demand_array(
        cls,
        demands: Sequence[float],
        kind: Kind,
        *,
        k_values: Sequence[int] | None = None,
    ) -> "WorkloadCurve":
        """Extract a workload curve directly from a per-event demand array.

        Fast path equivalent to :meth:`from_trace` with measured demands but
        without materializing :class:`~repro.core.trace.EventTrace` objects —
        used for long simulation traces (the MPEG-2 case study generates
        tens of thousands of macroblocks per clip).
        """
        per_event, ks = _demand_vector(demands, k_values)
        with tracer.span(
            "workload.extract", source="demand-array", kind=kind,
            events=int(per_event.size), grid=int(ks.size),
        ):
            if kind == "upper":
                vs = cumulative_envelope_max(per_event, ks)
            else:
                vs = cumulative_envelope_min(per_event, ks)
        return cls(kind, ks, vs)

    @classmethod
    def from_demand_stream(
        cls,
        chunks,
        kind: Kind,
        *,
        k_values: Sequence[int] | None = None,
        total: int | None = None,
    ) -> "WorkloadCurve":
        """Bounded-memory extraction from a *chunked* demand stream.

        Equivalent to :meth:`from_demand_array` on the concatenated chunks
        — bit-identical values, verified by the differential suite — but
        folded through :func:`repro.util.staircase
        .streaming_envelope_minmax`, so only one chunk plus a trailing
        ``k_max`` window of prefix sums is ever resident.  This is the
        extraction path for multi-million-event traces that should not be
        materialized.

        One of *k_values* (an explicit window grid) or *total* (the known
        stream length, from which the default
        :func:`~repro.util.staircase.make_k_grid` is built) is required,
        since the stream's length is unknown until it has been consumed.
        """
        ks, lo, hi = _stream_envelopes(chunks, kind, k_values, total)
        return cls(kind, ks, hi if kind == "upper" else lo)

    @classmethod
    def from_constant(cls, kind: Kind, per_event_demand: float, *, horizon: int = 64) -> "WorkloadCurve":
        """The classical single-value characterization ``γ(k) = w·k``.

        With ``kind="upper"`` and ``per_event_demand = WCET`` this is exactly
        the baseline the paper compares against (the "WCET only" line of
        Figures 2 and 6); the additive extension makes it exact for all k.
        """
        w = check_positive(per_event_demand, "per_event_demand")
        horizon = check_integer(horizon, "horizon", minimum=1)
        ks = np.arange(1, horizon + 1, dtype=np.int64)
        return cls(kind, ks, w * ks)

    # -- properties -----------------------------------------------------------------
    @property
    def kind(self) -> Kind:
        """``"upper"`` or ``"lower"``."""
        return self._kind

    @property
    def horizon(self) -> int:
        """Largest grid point ``K``; beyond it the additive extension applies."""
        return int(self._ks[-1])

    @property
    def k_values(self) -> np.ndarray:
        """Copy of the sample grid."""
        return self._ks.copy()

    @property
    def values(self) -> np.ndarray:
        """Copy of the curve samples."""
        return self._vs.copy()

    @property
    def per_activation_bound(self) -> float:
        """``γ^u(1)`` (= WCET) for an upper curve, ``γ^l(1)`` (= BCET) for a
        lower curve.  Exact only if ``k = 1`` is on the grid; otherwise the
        conservative grid rule applies."""
        return float(self(1))

    @property
    def long_run_rate(self) -> float:
        """Average cycles per activation over the horizon, ``γ(K)/K`` — the
        asymptotic slope of the additive extension."""
        return float(self._vs[-1]) / float(self._ks[-1])

    # -- evaluation -----------------------------------------------------------------
    def __call__(self, k):
        """Evaluate the curve at integer ``k`` (scalar or array-like).

        ``γ(0) = 0``; negative ``k`` raises.  Non-grid points use the
        conservative rounding rule; points beyond the horizon use the
        additive extension.
        """
        arr = np.asarray(k)
        if not np.issubdtype(arr.dtype, np.number):
            raise ValidationError("k must be numeric")
        if np.any(arr < 0):
            raise ValidationError("k must be >= 0")
        if not np.all(arr == np.floor(arr)):
            raise ValidationError("k must be integral")
        kk = arr.astype(np.int64)
        scalar = kk.ndim == 0
        kk = np.atleast_1d(kk)
        out = np.empty(kk.shape, dtype=float)
        K = self.horizon
        vK = float(self._vs[-1])
        inside = kk <= K
        out[inside] = self._eval_within(kk[inside])
        beyond = ~inside
        if np.any(beyond):
            q, r = np.divmod(kk[beyond], K)
            out[beyond] = q * vK + self._eval_within(r)
        return float(out[0]) if scalar else out

    def _eval_within(self, kk: np.ndarray) -> np.ndarray:
        """Evaluate at 0 <= kk <= horizon with the conservative grid rule."""
        out = np.zeros(kk.shape, dtype=float)
        pos = kk > 0
        if not np.any(pos):
            return out
        kp = kk[pos]
        if self._kind == "upper":
            idx = np.searchsorted(self._ks, kp, side="left")  # next grid pt >= k
            out[pos] = self._vs[idx]
        else:
            idx = np.searchsorted(self._ks, kp, side="right") - 1  # last grid pt <= k
            vals = np.where(idx >= 0, self._vs[np.maximum(idx, 0)], 0.0)
            out[pos] = vals
        return out

    def pseudo_inverse(self, e):
        """Pseudo-inverse (paper §2.1).

        Upper: ``γ^{u-1}(e) = max{k : γ^u(k) ≤ e}`` — the largest number of
        events guaranteed to be fully processable with ``e`` cycles.
        Lower: ``γ^{l-1}(e) = min{k : γ^l(k) ≥ e}`` — the smallest number of
        events that may be needed to consume ``e`` cycles.

        Accepts scalars or arrays of non-negative cycle budgets; returns
        integers (``int`` for scalar input).
        """
        arr = np.asarray(e, dtype=float)
        if np.any(arr < 0):
            raise ValidationError("e must be >= 0")
        scalar = arr.ndim == 0
        ee = np.atleast_1d(arr)
        from repro.perf.cache import digest_of, kernel_cache

        key = ("workload.pseudo_inverse", self.content_digest(), digest_of(ee))
        out = kernel_cache.get_or_compute(
            key,
            lambda: self._inverse_upper(ee) if self._kind == "upper" else self._inverse_lower(ee),
            copy=True,
        )
        return int(out[0]) if scalar else out

    def _inverse_upper(self, ee: np.ndarray) -> np.ndarray:
        K = self.horizon
        vK = float(self._vs[-1])
        q = np.floor_divide(ee, vK).astype(np.int64)
        rem = ee - q * vK
        # max{r in [0, K): γ(r) <= rem}; γ grid values are strictly increasing
        idx = np.searchsorted(self._vs, rem, side="right")  # number of grid pts <= rem
        r = np.where(idx > 0, self._ks[np.maximum(idx - 1, 0)], 0)
        # conservative grid rule: between grid points the upper curve takes
        # the value of the NEXT grid point, so the largest feasible k is the
        # grid point itself — r as computed is correct for sparse grids too.
        return q * K + r

    def _inverse_lower(self, ee: np.ndarray) -> np.ndarray:
        K = self.horizon
        vK = float(self._vs[-1])
        out = np.empty(ee.shape, dtype=np.int64)
        zero = ee <= 0
        out[zero] = 0
        rest = ~zero
        if np.any(rest):
            er = ee[rest]
            q = np.floor_divide(er, vK).astype(np.int64)
            rem = er - q * vK
            # handle exact multiples: γ^l(qK) = q·vK >= e already
            exact = rem <= 0
            idx = np.searchsorted(self._vs, rem, side="left")  # first grid val >= rem
            idx = np.minimum(idx, self._ks.size - 1)
            r = self._ks[idx]
            # conservative grid rule: between grid points the lower curve
            # takes the PREVIOUS grid value, so the first k with γ^l(k) >= rem
            # is the next grid point — r as computed.
            res = q * K + np.where(exact, 0, r)
            out[rest] = res
        return out

    # -- algebra -----------------------------------------------------------------------
    def scale(self, factor: float) -> "WorkloadCurve":
        """Curve with all demands multiplied by *factor* > 0 (e.g. modelling
        a change in per-event instruction cost)."""
        check_positive(factor, "factor")
        return WorkloadCurve(self._kind, self._ks, self._vs * factor)

    def max_with(self, other: "WorkloadCurve") -> "WorkloadCurve":
        """Pointwise maximum with *other* (same kind required).

        For upper curves this is the envelope over several traces — exactly
        how the paper combines the 14 video clips ("taking maximum over all
        respective curves of individual video clips").
        """
        return self._combine(other, np.maximum)

    def min_with(self, other: "WorkloadCurve") -> "WorkloadCurve":
        """Pointwise minimum with *other* (same kind required) — the lower-
        curve analogue of :meth:`max_with`."""
        return self._combine(other, np.minimum)

    def add(self, other: "WorkloadCurve") -> "WorkloadCurve":
        """Pointwise sum (same kind): conservative bound for a task whose
        every activation triggers both component demands."""
        return self._combine(other, np.add)

    def _combine(self, other: "WorkloadCurve", op) -> "WorkloadCurve":
        if not isinstance(other, WorkloadCurve):
            raise ValidationError("operand must be a WorkloadCurve")
        if other._kind != self._kind:
            raise ValidationError(
                f"cannot combine {self._kind} curve with {other._kind} curve"
            )
        from repro.perf.cache import kernel_cache

        key = (
            "workload.combine",
            op.__name__,
            self.content_digest(),
            other.content_digest(),
        )
        return kernel_cache.get_or_compute(key, lambda: self._combine_impl(other, op))

    def _combine_impl(self, other: "WorkloadCurve", op) -> "WorkloadCurve":
        ks = np.union1d(self._ks, other._ks)
        vs = op(self(ks), other(ks))
        return WorkloadCurve(self._kind, ks, vs)

    def to_dense(self, k_max: int | None = None) -> "WorkloadCurve":
        """Curve resampled on the dense grid ``1..k_max`` (default: horizon).

        Useful before plotting or equality comparisons; evaluation uses the
        conservative grid rule, so the dense curve bounds the sparse one.
        """
        k_max = self.horizon if k_max is None else check_integer(k_max, "k_max", minimum=1)
        ks = np.arange(1, k_max + 1, dtype=np.int64)
        return WorkloadCurve(self._kind, ks, self(ks))

    # -- comparison ----------------------------------------------------------------------
    def dominates(self, other: "WorkloadCurve", *, k_max: int | None = None) -> bool:
        """True if this curve is everywhere >= *other* on ``1..k_max``
        (default: the smaller horizon).  Used e.g. to verify
        ``γ^u(k) <= k·WCET`` (paper eq. (5) precondition)."""
        if k_max is None:
            k_max = min(self.horizon, other.horizon)
        ks = np.arange(1, k_max + 1, dtype=np.int64)
        return bool(np.all(self(ks) >= other(ks) - 1e-9))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorkloadCurve):
            return NotImplemented
        return (
            self._kind == other._kind
            and np.array_equal(self._ks, other._ks)
            and np.allclose(self._vs, other._vs)
        )

    def __hash__(self) -> int:
        """Hash consistent with :meth:`__eq__`.

        Equal curves must agree exactly on ``kind`` and the integer sample
        grid (``array_equal``), so those are safe hash inputs; the values
        are only ``allclose``-compared and therefore excluded.  Exact cache
        keys use :meth:`content_digest` instead.
        """
        return hash(("WorkloadCurve", self._kind, self._ks.tobytes()))

    def content_digest(self) -> bytes:
        """Exact content digest of kind/grid/values (cache key; bit-exact)."""
        if self._digest is None:
            from repro.perf.cache import digest_of

            self._digest = digest_of(b"workload", self._kind, self._ks, self._vs)
        return self._digest

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkloadCurve(kind={self._kind!r}, horizon={self.horizon}, "
            f"gamma(1)={self.per_activation_bound:g}, rate={self.long_run_rate:g})"
        )


def _demand_vector(
    demands: Sequence[float], k_values: Sequence[int] | None
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a per-event demand array (non-empty, 1-D, positive, finite)
    and resolve its window grid (default :func:`make_k_grid`)."""
    per_event = np.asarray(demands, dtype=float)
    if per_event.ndim != 1 or per_event.size == 0:
        raise ValidationError("demands must be a non-empty 1-D sequence")
    if np.any(per_event <= 0) or not np.all(np.isfinite(per_event)):
        raise ValidationError("demands must be positive and finite")
    ks = make_k_grid(per_event.size) if k_values is None else np.asarray(k_values, np.int64)
    return per_event, ks


def _stream_envelopes(
    chunks, kind: str, k_values: Sequence[int] | None, total: int | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Resolve the grid, validate the chunks lazily, and fold the stream.

    Returns ``(k_grid, min_envelope, max_envelope)``.  Demand validation
    (positive, finite) happens chunk-by-chunk inside the fold so the
    stream is still consumed exactly once and never materialized.
    """
    if k_values is None:
        if total is None:
            raise ValidationError(
                "streaming extraction needs k_values or total to size the grid"
            )
        ks = make_k_grid(check_integer(total, "total", minimum=1))
    else:
        ks = np.asarray(k_values, dtype=np.int64)

    def validated(stream):
        for chunk in stream:
            arr = np.asarray(chunk, dtype=float)
            if arr.ndim != 1:
                raise ValidationError("stream chunks must be 1-D sequences")
            if arr.size and (np.any(arr <= 0) or not np.all(np.isfinite(arr))):
                raise ValidationError("demands must be positive and finite")
            yield arr

    with tracer.span(
        "workload.extract", source="demand-stream", kind=kind, grid=int(ks.size)
    ):
        lo, hi = streaming_envelope_minmax(validated(chunks), ks, total=total)
    return ks, lo, hi


class WorkloadCurvePair:
    """An upper and a lower workload curve of the same task, kept consistent.

    Guarantees ``γ^l(k) <= γ^u(k)`` on the common grid at construction.
    Provides the task-level identities ``wcet = γ^u(1)``, ``bcet = γ^l(1)``.
    """

    def __init__(self, upper: WorkloadCurve, lower: WorkloadCurve):
        if upper.kind != "upper" or lower.kind != "lower":
            raise ValidationError("pair needs an upper curve and a lower curve")
        if np.array_equal(upper._ks, lower._ks):
            # on a shared grid, between two grid points the lower curve holds
            # the earlier sample and the upper curve takes the later one, and
            # samples never decrease: comparing the samples checks every k
            exceeds = lower._vs > upper._vs + 1e-9
        else:
            ks = np.arange(1, min(upper.horizon, lower.horizon) + 1, dtype=np.int64)
            exceeds = lower(ks) > upper(ks) + 1e-9
        if np.any(exceeds):
            raise ValidationError("lower curve exceeds upper curve")
        self.upper = upper
        self.lower = lower

    @classmethod
    def from_trace(
        cls,
        trace: EventTrace,
        *,
        demands: Literal["auto", "measured", "interval"] = "auto",
        k_values: Sequence[int] | None = None,
    ) -> "WorkloadCurvePair":
        """Extract both curves from one trace (see
        :meth:`WorkloadCurve.from_trace`).  With measured demands both
        curves come from one demand vector, so the pair is one two-sided
        extraction (:meth:`from_demand_array`); interval demands take a
        different vector per side (WCET for the upper curve, BCET for the
        lower), so each side is extracted alone."""
        if demands == "auto":
            demands = "measured" if trace.has_measured_demands else "interval"
        if demands == "measured":
            return cls.from_demand_array(trace.measured_demands(), k_values=k_values)
        return cls(
            WorkloadCurve.from_trace(trace, "upper", demands=demands, k_values=k_values),
            WorkloadCurve.from_trace(trace, "lower", demands=demands, k_values=k_values),
        )

    @classmethod
    def from_demand_array(
        cls, demands: Sequence[float], *, k_values: Sequence[int] | None = None
    ) -> "WorkloadCurvePair":
        """Fast path of :meth:`from_trace` for a raw per-event demand array
        (see :meth:`WorkloadCurve.from_demand_array`): both curves from one
        two-sided extraction,
        :func:`~repro.util.staircase.cumulative_envelope_minmax`."""
        per_event, ks = _demand_vector(demands, k_values)
        with tracer.span(
            "workload.extract", source="demand-array", kind="pair",
            events=int(per_event.size), grid=int(ks.size),
        ):
            lo, hi = cumulative_envelope_minmax(per_event, ks)
        return cls(WorkloadCurve("upper", ks, hi), WorkloadCurve("lower", ks, lo))

    @classmethod
    def from_demand_stream(
        cls,
        chunks,
        *,
        k_values: Sequence[int] | None = None,
        total: int | None = None,
    ) -> "WorkloadCurvePair":
        """Both curves from one bounded-memory pass over a chunked stream
        (see :meth:`WorkloadCurve.from_demand_stream`); the min and max
        envelopes are folded simultaneously, so the pair costs a single
        consumption of the stream."""
        ks, lo, hi = _stream_envelopes(chunks, "pair", k_values, total)
        return cls(WorkloadCurve("upper", ks, hi), WorkloadCurve("lower", ks, lo))

    @property
    def wcet(self) -> float:
        """Worst-case execution time of a single activation, ``γ^u(1)``."""
        return float(self.upper(1))

    @property
    def bcet(self) -> float:
        """Best-case execution time of a single activation, ``γ^l(1)``."""
        return float(self.lower(1))

    def gain_over_wcet(self, k: int) -> float:
        """Relative tightening at *k*: ``1 - γ^u(k) / (k·wcet)`` — the grey
        area of Figure 2 expressed as a fraction."""
        k = check_integer(k, "k", minimum=1)
        return 1.0 - float(self.upper(k)) / (k * self.wcet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkloadCurvePair(wcet={self.wcet:g}, bcet={self.bcet:g})"
