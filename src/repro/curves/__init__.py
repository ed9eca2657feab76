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
* :mod:`~repro.curves.minplus` — min-plus convolution / deconvolution,
  with the per-interval numpy construction kept as the oracle;
* :mod:`~repro.curves.soa` — the structure-of-arrays kernel that computes
  every generic pair;
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
from repro.curves.compact import CompactionResult, compact_lower, compact_upper
from repro.curves.bounds import backlog_bound, delay_bound, output_arrival_curve, is_stable
from repro.curves.shaper import GreedyShaper

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
    "CompactionResult",
    "compact_upper",
    "compact_lower",
    "backlog_bound",
    "delay_bound",
    "output_arrival_curve",
    "is_stable",
    "GreedyShaper",
]
