"""Brute-force Lehoczky RMS test (oracle only; see package docstring).

The definitional scan of paper eqs. (3)–(4): for each task, evaluate
``W_i(t)/t`` point by point over the scheduling points with the scalar
demand functions of :mod:`repro.scheduling.rms`, keeping the first
minimum.  Plain Python loops; the vectorized ``rms_test_classic`` /
``rms_test_curves`` must reproduce its :class:`RMSAnalysis` exactly.
The candidate set, :func:`~repro.scheduling.rms.scheduling_points`, is
the one piece both sides share.
"""

from __future__ import annotations

import math

from repro.scheduling.rms import (
    RMSAnalysis,
    cumulative_demand_classic,
    cumulative_demand_curves,
    scheduling_points,
)
from repro.scheduling.task import TaskSet

__all__ = ["rms_test_brute"]


def rms_test_brute(task_set: TaskSet, method: str) -> RMSAnalysis:
    """Lehoczky's test by scalar scan: ``method`` is ``"classic"``
    (eq. (3)) or ``"workload-curves"`` (eq. (4))."""
    demand = {
        "classic": cumulative_demand_classic,
        "workload-curves": cumulative_demand_curves,
    }[method]
    loads: list[float] = []
    crits: list[float] = []
    for i in range(len(task_set)):
        best = math.inf
        best_t = task_set[i].period
        for t in scheduling_points(task_set, i):
            ratio = demand(task_set, i, t) / t
            if ratio < best:
                best = ratio
                best_t = t
        loads.append(best)
        crits.append(best_t)
    return RMSAnalysis(tuple(loads), tuple(crits), method)
