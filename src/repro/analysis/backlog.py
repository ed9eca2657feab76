"""Backlog bounds for a PE fed through a FIFO (paper eqs. (6) and (7)).

Cycle domain (eq. (6), the DATE'03 framework's form):

.. math::

    B \\le \\sup_{Δ \\ge 0} \\{ α(Δ) - β(Δ) \\}

with ``α`` in cycles (events scaled by ``w`` or converted through ``γ^u``).

Event domain (eq. (7), the paper's refinement):

.. math::

    \\bar B \\le \\sup_{Δ \\ge 0} \\{ \\bar α(Δ) - γ^{u-1}(β(Δ)) \\}

which bounds the number of *events* (macroblocks) in the buffer — the
quantity an item-granular FIFO actually constrains.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.workload import WorkloadCurve
from repro.curves.bounds import backlog_bound as _vertical_deviation
from repro.curves.curve import EPS_REL, PiecewiseLinearCurve
from repro.curves.minplus import UnboundedCurveError
from repro.analysis.conversion import arrival_events_to_cycles, scale_arrival_by_wcet
from repro.perf.instrument import instrumented
from repro.util.validation import ValidationError

__all__ = [
    "backlog_bound_cycles_wcet",
    "backlog_bound_cycles_curves",
    "backlog_bound_events",
    "candidate_deltas",
]


def candidate_deltas(
    alpha: PiecewiseLinearCurve, beta: PiecewiseLinearCurve
) -> np.ndarray:
    """Window lengths at which a sup over ``Δ`` of a difference of these
    curves can be attained: all breakpoints plus left-limit probes."""
    bps = np.concatenate((alpha.breakpoints, beta.breakpoints))
    probes = bps - EPS_REL * np.maximum(1.0, np.abs(bps))
    cands = np.concatenate(([0.0], bps, probes[probes >= 0.0]))
    return np.unique(cands)


def backlog_bound_cycles_wcet(
    alpha_events: PiecewiseLinearCurve, wcet: float, beta: PiecewiseLinearCurve
) -> float:
    """Eq. (6) with the WCET scaling ``α = w·ᾱ`` — the baseline bound, in
    cycles."""
    return _vertical_deviation(scale_arrival_by_wcet(alpha_events, wcet), beta)


def backlog_bound_cycles_curves(
    alpha_events: PiecewiseLinearCurve,
    gamma_u: WorkloadCurve,
    beta: PiecewiseLinearCurve,
) -> float:
    """Eq. (6) with the workload-curve conversion ``α = γ^u(ᾱ)`` — tighter
    than the WCET scaling whenever consecutive events cannot all be
    worst-case, still in cycles."""
    return _vertical_deviation(arrival_events_to_cycles(alpha_events, gamma_u), beta)


@instrumented("backlog.bound_events")
def backlog_bound_events(
    alpha_events: PiecewiseLinearCurve,
    beta: PiecewiseLinearCurve,
    gamma_u: WorkloadCurve,
    *,
    deltas: np.ndarray | None = None,
    arrived: np.ndarray | None = None,
) -> float:
    """Eq. (7): maximum number of events backlogged in front of the PE.

    Raises :class:`~repro.curves.minplus.UnboundedCurveError` if the
    long-run demand rate (events/s × cycles/event) exceeds the long-run
    service rate.

    *deltas* optionally supplies a precomputed candidate grid: a
    frequency sweep probes the same arrival curve against many
    zero-latency service curves ``F·Δ``, whose only breakpoint is 0, so
    ``candidate_deltas(alpha, β_F)`` is the same array for every ``F``
    and can be hoisted out of the sweep loop (it must cover
    :func:`candidate_deltas` of the actual pair to stay exact).  *arrived*
    optionally supplies ``alpha_events(deltas)``, hoisted the same way.
    """
    if gamma_u.kind != "upper":
        raise ValidationError("backlog bound needs an upper workload curve")
    demand_rate = alpha_events.final_slope * gamma_u.long_run_rate
    if demand_rate > beta.final_slope + 1e-9:
        raise UnboundedCurveError(
            f"event backlog unbounded: demand rate {demand_rate:g} cycles/s "
            f"exceeds service rate {beta.final_slope:g}"
        )
    if deltas is None:
        deltas = candidate_deltas(alpha_events, beta)
    if arrived is None:
        arrived = alpha_events(deltas)
    served_events = gamma_u.pseudo_inverse(beta(deltas))
    return float(np.max(arrived - served_events))
