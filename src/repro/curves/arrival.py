"""Arrival curves ``ᾱ(Δ)``: standard shapes and trace extraction.

An (upper) arrival curve bounds the number of events seen in any time window
of length Δ (paper §3.2: "gives an upper bound on the number of packets seen
in the flow within any time interval").  The paper generalizes events to any
unit of work — packets, samples, *macroblocks*.

Provided constructors:

* :func:`leaky_bucket` — token-bucket ``b + r·Δ``;
* :func:`periodic_upper` / :func:`periodic_lower` — the (p, j) event model
  (periodic with jitter), as staircases with sound linear tails;
* :func:`from_trace_upper` / :func:`from_trace_lower` — exact staircase
  envelopes of a timestamped trace (the paper's simulation-driven mode).

Structure: a leaky bucket classifies as ``"concave"`` (``"affine"`` when
burstless) under :attr:`~repro.curves.curve.PiecewiseLinearCurve.shape`,
so compositions of buckets ride the closed-form min-plus fast paths; the
staircase constructors produce jumpy ``"general"`` curves that always use
the generic (exact) kernels.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.curves.curve import PiecewiseLinearCurve, step_curve
from repro.util.staircase import _window_extrema
from repro.util.validation import (
    ValidationError,
    check_integer,
    check_non_negative,
    check_positive,
)

__all__ = [
    "leaky_bucket",
    "periodic_upper",
    "periodic_lower",
    "from_trace_upper",
    "from_trace_lower",
    "minimal_window_lengths",
    "maximal_window_lengths",
]


def leaky_bucket(burst: float, rate: float) -> PiecewiseLinearCurve:
    """Token-bucket arrival curve ``α(Δ) = burst + rate·Δ`` (with
    ``α(0) = burst``, the right-continuous convention)."""
    check_non_negative(burst, "burst")
    check_non_negative(rate, "rate")
    return PiecewiseLinearCurve([0.0], [burst], [rate])


def periodic_upper(period: float, *, jitter: float = 0.0, horizon_periods: int = 64) -> PiecewiseLinearCurve:
    """Upper arrival curve of a periodic-with-jitter stream:
    ``ᾱ(Δ) = ceil((Δ + j) / p)``.

    Represented as an exact staircase for the first *horizon_periods* steps;
    beyond the horizon the curve continues linearly with slope ``1/p`` from
    the last step, which dominates the true staircase (the classical bound
    ``(Δ + j)/p + 1``), so the curve stays a sound upper bound for all Δ.
    """
    p = check_positive(period, "period")
    j = check_non_negative(jitter, "jitter")
    n_steps = check_integer(horizon_periods, "horizon_periods", minimum=1)
    positions = [max(0.0, (n - 1) * p - j) for n in range(1, n_steps + 1)]
    heights = [1.0] * len(positions)
    curve = step_curve(positions, heights)
    xs = curve.breakpoints
    ys = curve.values_at_breakpoints
    ss = curve.slopes
    ss[-1] = 1.0 / p  # sound linear continuation
    return PiecewiseLinearCurve(xs, ys, ss)


def periodic_lower(period: float, *, jitter: float = 0.0, horizon_periods: int = 64) -> PiecewiseLinearCurve:
    """Lower arrival curve of a periodic-with-jitter stream:
    ``α^l(Δ) = max(0, floor((Δ − j) / p))``.

    Staircase steps at ``Δ = n·p + j``; beyond the horizon the curve
    continues with slope ``1/p`` anchored one period after the last step,
    which the true staircase dominates.
    """
    p = check_positive(period, "period")
    j = check_non_negative(jitter, "jitter")
    n_steps = check_integer(horizon_periods, "horizon_periods", minimum=1)
    positions = [n * p + j for n in range(1, n_steps + 1)]
    curve = step_curve(positions)
    xs = list(curve.breakpoints)
    ys = list(curve.values_at_breakpoints)
    ss = list(curve.slopes)
    # anchor the linear tail one period after the last step: the line
    # (Δ - j)/p - 1 passes through (x_last + p, n_steps) with slope 1/p and
    # lies below the staircase everywhere
    xs.append(positions[-1] + p)
    ys.append(float(n_steps))
    ss[-1] = 0.0
    ss.append(1.0 / p)
    return PiecewiseLinearCurve(xs, ys, ss)


def minimal_window_lengths(
    timestamps: Sequence[float], n_values: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """For each event count ``n`` the minimal window length containing ``n``
    events of the trace: ``d_n = min_i (t[i+n-1] - t[i])``.

    Returns ``(n_values, d)``; *n_values* defaults to ``1..N``.  This is the
    exact information content of the trace's upper arrival curve.
    """
    ts = _check_timestamps(timestamps)
    ns = _check_n_values(n_values, ts.size)
    (d,) = _window_extrema(ts, ns - 1, "min_window", maximum=False)
    return ns, d


def maximal_window_lengths(
    timestamps: Sequence[float], n_values: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """For each event count ``n`` the maximal span of ``n`` consecutive
    events: ``D_n = max_i (t[i+n-1] - t[i])`` — the dual of
    :func:`minimal_window_lengths`, used for the lower arrival curve."""
    ts = _check_timestamps(timestamps)
    ns = _check_n_values(n_values, ts.size)
    (d,) = _window_extrema(ts, ns - 1, "max_window", minimum=False)
    return ns, d


def from_trace_upper(
    timestamps: Sequence[float],
    *,
    n_values: Sequence[int] | None = None,
    final_rate: float | None = None,
) -> PiecewiseLinearCurve:
    """Exact upper arrival curve (staircase) of a timestamped trace.

    ``ᾱ(Δ) = max{n : d_n <= Δ}`` with ``d_n`` from
    :func:`minimal_window_lengths`.  When *n_values* subsamples the counts,
    unsampled counts are attributed to the *earlier* sampled window length,
    which keeps the staircase a sound upper bound (it can only grow).

    *final_rate* sets the slope beyond the largest observed window.  The
    default is the trace's long-run rate ``N / d_N`` — the stationary
    extension the paper implicitly uses when treating a 24-frame window as
    representative.  Pass ``0.0`` to assert "nothing beyond the trace".
    """
    ns, d = minimal_window_lengths(timestamps, n_values)
    # conservative fill for subsampled counts: the value at d[i] covers
    # every count up to the next sampled n minus one.  Those values
    # strictly increase and d never decreases, so the staircase has one
    # step per run of equal d: at the run's first d (a -0.0 stays -0.0),
    # as high as the count filled at the run's last entry.
    first = np.flatnonzero(np.concatenate(([True], d[1:] != d[:-1])))
    xs = d[first]
    ys = np.append(ns[first[1:]] - 1, ns[-1]).astype(float)
    if d[0] > 0.0:
        xs = np.concatenate(([0.0], xs))
        ys = np.concatenate(([0.0], ys))
    slopes = np.zeros(xs.size)
    if final_rate is None:
        final_rate = float(ns[-1]) / float(d[-1]) if d[-1] > 0 else 0.0
    slopes[-1] = check_non_negative(final_rate, "final_rate")
    return PiecewiseLinearCurve(xs, ys, slopes)


def from_trace_lower(
    timestamps: Sequence[float],
    *,
    n_values: Sequence[int] | None = None,
) -> PiecewiseLinearCurve:
    """Lower arrival curve (staircase) of a timestamped trace.

    ``α^l(Δ) = min{events in any interior window of length Δ}``; a window of
    length Δ is guaranteed to contain at least ``n`` events once
    ``Δ > D_{n+2} ... `` — we use the safe form ``α^l(Δ) = max{n : D_{n+2}
    <= Δ}`` derived from maximal spans, which under-approximates near the
    trace edges and is therefore sound.  Beyond the trace span the curve is
    flat (no guarantee).
    """
    ts = _check_timestamps(timestamps)
    n_total = ts.size
    if n_total < 3:
        return PiecewiseLinearCurve([0.0], [0.0], [0.0])
    ns, spans = maximal_window_lengths(timestamps, n_values)
    xs: list[float] = [0.0]
    ys: list[float] = [0.0]
    for n, span in zip(ns, spans):
        guaranteed = n - 2  # window longer than the span of n events pinned
        if guaranteed < 1:
            continue
        pos = float(span)
        if pos <= xs[-1]:
            ys[-1] = max(ys[-1], float(guaranteed))
        else:
            xs.append(pos)
            ys.append(float(guaranteed))
    # enforce monotone values (subsampled n can leave plateaus)
    ys = list(np.maximum.accumulate(np.array(ys)))
    slopes = np.zeros(len(xs))
    return PiecewiseLinearCurve(np.array(xs), np.array(ys), slopes).simplified()


def _check_n_values(n_values: Sequence[int] | None, n_total: int) -> np.ndarray:
    if n_values is None:
        return np.arange(1, n_total + 1, dtype=np.int64)
    ns = np.asarray(n_values, dtype=np.int64)
    if ns.size == 0 or np.any(ns < 1) or np.any(ns > n_total) or np.any(np.diff(ns) <= 0):
        raise ValidationError("n_values must be strictly increasing within 1..len(trace)")
    return ns


def _check_timestamps(timestamps: Sequence[float]) -> np.ndarray:
    ts = np.asarray(timestamps, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise ValidationError("timestamps must be a non-empty 1-D sequence")
    if np.any(~np.isfinite(ts)) or np.any(np.diff(ts) < 0):
        raise ValidationError("timestamps must be finite and non-decreasing")
    return ts
