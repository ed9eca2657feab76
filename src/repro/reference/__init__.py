"""repro.reference — definitional brute-force implementations.

Deliberately naive O(n·k) / O(n²) versions of the hot kernels, written
straight from the paper's definitions with plain Python loops and no
shared code with the fast paths.  They exist solely as oracles: the
differential test suite (``tests/reference/``) checks the memoized /
vectorized kernels in :mod:`repro.curves.minplus`,
:mod:`repro.util.staircase`, :mod:`repro.core.workload`,
:mod:`repro.curves.arrival` and :mod:`repro.scheduling.rms` against
these on hundreds of randomized and degenerate inputs, with the kernel
cache both on and off.

* :mod:`~repro.reference.envelope` — window sums, workload-curve
  evaluation and pseudo-inverses (``*_brute`` of Definition 1);
* :mod:`~repro.reference.minplus` — min-plus convolution/deconvolution
  at a point, curve evaluation and shape tests;
* :mod:`~repro.reference.arrival` — the per-element upper staircase of a
  trace from its minimal window lengths (``trace_staircase_brute``),
  behind :func:`repro.curves.arrival.from_trace_upper`;
* :mod:`~repro.reference.stream` — the chunked envelope fold one window
  length at a time (``streaming_envelope_brute``), behind
  :func:`repro.util.staircase.streaming_envelope_minmax`;
* :mod:`~repro.reference.scheduling` — the Lehoczky RMS scan
  (``rms_test_brute``);
* :mod:`~repro.reference.server` — the work-conserving single-server
  recursion (``completion_times_brute``) behind the synthetic clips' PE1
  output times.

Never call these from production code paths.
"""

from repro.reference.arrival import trace_staircase_brute
from repro.reference.envelope import (
    pseudo_inverse_brute,
    window_sums_brute,
    workload_eval_brute,
    workload_values_brute,
)
from repro.reference.minplus import (
    convolve_at_brute,
    deconvolve_at_brute,
    eval_pwl_brute,
    is_concave_brute,
    is_convex_brute,
)
from repro.reference.scheduling import rms_test_brute
from repro.reference.server import completion_times_brute
from repro.reference.stream import streaming_envelope_brute

__all__ = [
    "convolve_at_brute",
    "deconvolve_at_brute",
    "eval_pwl_brute",
    "is_convex_brute",
    "is_concave_brute",
    "window_sums_brute",
    "workload_values_brute",
    "workload_eval_brute",
    "pseudo_inverse_brute",
    "rms_test_brute",
    "completion_times_brute",
    "trace_staircase_brute",
    "streaming_envelope_brute",
]
