"""Network-calculus substrate: PWL curves, min-plus algebra, bounds.

The paper's §3.2 combines workload curves with the arrival/service-curve
framework of Network Calculus (Le Boudec & Thiran) as generalized to
platform-based designs by Chakraborty, Künzli & Thiele (DATE 2003).  This
subpackage is a self-contained implementation of that substrate:

* :class:`~repro.curves.curve.PiecewiseLinearCurve` — exact PWL curves;
* :mod:`~repro.curves.arrival` — leaky-bucket, periodic-with-jitter and
  trace-derived arrival curves;
* :mod:`~repro.curves.service` — full-processor, rate-latency, TDMA and
  fixed-priority remaining service;
* :mod:`~repro.curves.minplus` — min-plus convolution / deconvolution;
* :mod:`~repro.curves.backends` — pluggable generic-kernel backends
  (numpy reference, batched SoA);
* :mod:`~repro.curves.compact` — conservative segment-budgeted compaction;
* :mod:`~repro.curves.bounds` — backlog (eq. (6)), delay and output bounds;
* :mod:`~repro.curves.shaper` — greedy shapers.
"""

from repro.curves.curve import PiecewiseLinearCurve, linear_curve, step_curve, zero_curve
from repro.curves.arrival import (
    leaky_bucket,
    periodic_upper,
    periodic_lower,
    from_trace_upper,
    from_trace_lower,
    minimal_window_lengths,
    maximal_window_lengths,
)
from repro.curves.service import full_processor, rate_latency, tdma, remaining_service_fp
from repro.curves.minplus import (
    convolve,
    deconvolve,
    convolve_at,
    deconvolve_at,
    self_convolution_fixpoint,
    UnboundedCurveError,
)
from repro.curves.backends import (
    KernelBackend,
    active_backend,
    get_backend,
    register_backend,
    registered_backends,
    set_backend,
    use_backend,
)
from repro.curves.compact import CompactionResult, compact_lower, compact_upper
from repro.curves.bounds import backlog_bound, delay_bound, output_arrival_curve, is_stable
from repro.curves.shaper import GreedyShaper
from repro.curves.event_models import (
    EventModel,
    pjd_event_model,
    sporadic_event_model,
    periodic_burst_event_model,
)

__all__ = [
    "PiecewiseLinearCurve",
    "linear_curve",
    "step_curve",
    "zero_curve",
    "leaky_bucket",
    "periodic_upper",
    "periodic_lower",
    "from_trace_upper",
    "from_trace_lower",
    "minimal_window_lengths",
    "maximal_window_lengths",
    "full_processor",
    "rate_latency",
    "tdma",
    "remaining_service_fp",
    "convolve",
    "deconvolve",
    "convolve_at",
    "deconvolve_at",
    "self_convolution_fixpoint",
    "UnboundedCurveError",
    "KernelBackend",
    "active_backend",
    "get_backend",
    "register_backend",
    "registered_backends",
    "set_backend",
    "use_backend",
    "CompactionResult",
    "compact_upper",
    "compact_lower",
    "backlog_bound",
    "delay_bound",
    "output_arrival_curve",
    "is_stable",
    "GreedyShaper",
    "EventModel",
    "pjd_event_model",
    "sporadic_event_model",
    "periodic_burst_event_model",
]
