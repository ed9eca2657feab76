"""The paper's primary contribution: workload curves and their algebra.

Public API
----------
* :class:`~repro.core.events.ExecutionInterval`,
  :class:`~repro.core.events.ExecutionProfile`,
  :class:`~repro.core.events.Event` — typed events with per-type
  ``[bcet, wcet]`` intervals (§2.1 preliminaries).
* :class:`~repro.core.trace.EventTrace` — finite event sequences and the
  partial-demand sums ``γ_b(j,k)`` / ``γ_w(j,k)`` (Figure 1).
* :class:`~repro.core.workload.WorkloadCurve`,
  :class:`~repro.core.workload.WorkloadCurvePair` — Definition 1 curves with
  pseudo-inverses, trace extraction and algebra.
* :mod:`~repro.core.analytical` — closed-form constructions (§2.2
  Example 1: the polling task).
* :mod:`~repro.core.operations` — closures and multi-trace envelopes.
* :mod:`~repro.core.validation` — invariant audits.
"""

from repro.core.events import Event, ExecutionInterval, ExecutionProfile
from repro.core.trace import EventTrace
from repro.core.workload import WorkloadCurve, WorkloadCurvePair
from repro.core.analytical import (
    PollingTask,
    polling_task_curves,
    two_mode_curves,
    periodic_event_count_bounds,
)
from repro.core.operations import (
    subadditive_closure,
    superadditive_closure,
    envelope_upper,
    envelope_lower,
)
from repro.core.validation import (
    CurveAudit,
    check_subadditive,
    check_superadditive,
    check_pair_consistent,
    check_bounds_trace,
    audit_pair,
)

__all__ = [
    "Event",
    "ExecutionInterval",
    "ExecutionProfile",
    "EventTrace",
    "WorkloadCurve",
    "WorkloadCurvePair",
    "PollingTask",
    "polling_task_curves",
    "two_mode_curves",
    "periodic_event_count_bounds",
    "subadditive_closure",
    "superadditive_closure",
    "envelope_upper",
    "envelope_lower",
    "CurveAudit",
    "check_subadditive",
    "check_superadditive",
    "check_pair_consistent",
    "check_bounds_trace",
    "audit_pair",
]
