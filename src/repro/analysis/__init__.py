"""System-level performance analysis combining workload curves with
Network Calculus (paper §3.2): domain conversion (Figure 4), backlog bounds
(eqs. (6)–(7)), minimum PE frequency (eqs. (8)–(10)) and buffer sizing.
"""

from repro.analysis.conversion import (
    arrival_events_to_cycles,
    service_cycles_to_events,
    scale_arrival_by_wcet,
)
from repro.analysis.backlog import (
    backlog_bound_cycles_wcet,
    backlog_bound_cycles_curves,
    backlog_bound_events,
    candidate_deltas,
)
from repro.analysis.frequency import (
    FrequencyBound,
    FrequencySweepEvaluator,
    minimum_frequency_bisect,
    minimum_frequency_curves,
    minimum_frequency_dense,
    minimum_frequency_wcet,
    verify_service_constraint,
)
from repro.analysis.buffer_sizing import (
    BufferBound,
    minimum_buffer_curves,
    minimum_buffer_wcet,
    buffer_frequency_tradeoff,
)
from repro.analysis.energy import PowerModel, dvs_savings
from repro.analysis.chain import ProcessingNode, NodeReport, ChainReport, StreamingChain

__all__ = [
    "arrival_events_to_cycles",
    "service_cycles_to_events",
    "scale_arrival_by_wcet",
    "backlog_bound_cycles_wcet",
    "backlog_bound_cycles_curves",
    "backlog_bound_events",
    "candidate_deltas",
    "FrequencyBound",
    "FrequencySweepEvaluator",
    "minimum_frequency_bisect",
    "minimum_frequency_curves",
    "minimum_frequency_dense",
    "minimum_frequency_wcet",
    "verify_service_constraint",
    "BufferBound",
    "minimum_buffer_curves",
    "minimum_buffer_wcet",
    "buffer_frequency_tradeoff",
    "PowerModel",
    "dvs_savings",
    "ProcessingNode",
    "NodeReport",
    "ChainReport",
    "StreamingChain",
]
