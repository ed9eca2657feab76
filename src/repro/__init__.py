"""repro — workload curves for tasks with variable execution demand.

A full reproduction of A. Maxiaguine, S. Künzli, L. Thiele, *Workload
Characterization Model for Tasks with Variable Execution Demand*
(DATE 2004), including every substrate the paper's evaluation rests on:

* :mod:`repro.core` — workload curves ``γ^u``/``γ^l`` (Definition 1),
  typed-event traces, analytical constructions, curve algebra;
* :mod:`repro.curves` — Network Calculus: PWL arrival/service curves,
  min-plus algebra, backlog/delay bounds, shapers;
* :mod:`repro.scheduling` — RMS (Lehoczky) / response-time analysis,
  classic and workload-curve variants, plus a scheduler simulator;
* :mod:`repro.mpeg` — the synthetic MPEG-2 decoder workload substrate;
* :mod:`repro.simulation` — transaction-level two-PE pipeline simulation;
* :mod:`repro.analysis` — eqs. (6)–(10): conversions, backlog, minimum
  frequency, buffer sizing;
* :mod:`repro.experiments` — harnesses regenerating every paper figure
  and table.

Quickstart::

    from repro.core import ExecutionProfile, EventTrace, WorkloadCurvePair
    profile = ExecutionProfile({"a": (2, 4), "b": (1, 3)})
    trace = EventTrace.from_type_names("abab", profile)
    curves = WorkloadCurvePair.from_trace(trace)
    curves.upper(2)   # worst-case cycles of any 2 consecutive activations
"""

__version__ = "1.0.0"

from repro.core import (
    Event,
    ExecutionInterval,
    ExecutionProfile,
    EventTrace,
    WorkloadCurve,
    WorkloadCurvePair,
)

__all__ = [
    "__version__",
    "Event",
    "ExecutionInterval",
    "ExecutionProfile",
    "EventTrace",
    "WorkloadCurve",
    "WorkloadCurvePair",
]
