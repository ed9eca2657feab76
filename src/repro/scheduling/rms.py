"""Rate-monotonic schedulability tests (paper §3.1, eqs. (3)–(5)).

Lehoczky, Sha & Ding's exact RMS condition: with

.. math::

    W_i(t) = \\sum_{j=1}^{i} C_j \\lceil t/T_j \\rceil, \\qquad
    L_i = \\min_{0 < t \\le T_i} W_i(t)/t, \\qquad
    L = \\max_i L_i

task ``τ_i`` is RM-schedulable iff ``L_i <= 1`` and the set iff ``L <= 1``.
The minimum over ``t`` is attained on the finite set of *scheduling points*
``{ l·T_j : j <= i, l = 1..floor(T_i/T_j) }``.

The paper's improvement (eq. (4)) replaces the per-task term
``C_j·⌈t/T_j⌉`` by ``γ^u_j(⌈t/T_j⌉)`` — the workload curve evaluated at the
number of arrivals — which is never larger (eq. (5)), hence
``L̃_i <= L_i`` and the improved test is at least as permissive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.scheduling.task import TaskSet
from repro.util.validation import ValidationError

__all__ = [
    "RMSAnalysis",
    "scheduling_points",
    "cumulative_demand_classic",
    "cumulative_demand_curves",
    "rms_test_classic",
    "rms_test_curves",
    "liu_layland_bound",
    "liu_layland_test",
]


@dataclass(frozen=True)
class RMSAnalysis:
    """Result of an RMS schedulability test.

    Attributes
    ----------
    per_task_load:
        ``L_i`` for each task in priority order.
    load:
        ``L = max_i L_i``.
    schedulable_tasks:
        Per-task verdict ``L_i <= 1``.
    schedulable:
        Whole-set verdict ``L <= 1``.
    critical_points:
        For each task, the scheduling point ``t`` achieving ``L_i``.
    method:
        ``"classic"`` (eq. (3)) or ``"workload-curves"`` (eq. (4)).
    """

    per_task_load: tuple[float, ...]
    critical_points: tuple[float, ...]
    method: str

    @property
    def load(self) -> float:
        """The set-level load factor ``L``."""
        return max(self.per_task_load)

    @property
    def schedulable_tasks(self) -> tuple[bool, ...]:
        """Per-task verdicts ``L_i <= 1``."""
        return tuple(load <= 1.0 + 1e-12 for load in self.per_task_load)

    @property
    def schedulable(self) -> bool:
        """Whole-set verdict ``L <= 1``."""
        return self.load <= 1.0 + 1e-12


def scheduling_points(task_set: TaskSet, i: int) -> list[float]:
    """The Lehoczky scheduling points for task index *i* (0-based):
    ``{ l·T_j : j <= i, l = 1..floor(D_i/T_j) } ∪ {D_i}`` — the finite set
    on which the minimum of ``W_i(t)/t`` over ``(0, D_i]`` is attained
    (``W_i`` is a right-continuous staircase; between arrivals ``W_i(t)/t``
    decreases, so candidates are arrival instants and the deadline itself).
    With implicit deadlines (``D_i = T_i``) this is Lehoczky's original
    set; constrained deadlines simply shorten the horizon."""
    if not 0 <= i < len(task_set):
        raise ValidationError(f"task index {i} out of range")
    d_i = task_set[i].deadline
    points: set[float] = {d_i}
    for j in range(i + 1):
        t_j = task_set[j].period
        for l in range(1, math.floor(d_i / t_j + 1e-9) + 1):
            points.add(l * t_j)
    return sorted(points)


def _arrivals(t: float, period: float) -> int:
    """Number of arrivals of a task with *period* in ``[0, t]`` (critical
    instant convention): ``⌈t/T⌉`` with an epsilon guard for exact
    multiples."""
    return max(1, math.ceil(t / period - 1e-9))


def cumulative_demand_classic(task_set: TaskSet, i: int, t: float) -> float:
    """``W_i(t) = Σ_{j<=i} C_j·⌈t/T_j⌉`` — paper eq. (3)."""
    return sum(
        task_set[j].wcet * _arrivals(t, task_set[j].period) for j in range(i + 1)
    )


def cumulative_demand_curves(task_set: TaskSet, i: int, t: float) -> float:
    """``W̃_i(t) = Σ_{j<=i} γ^u_j(⌈t/T_j⌉)`` — paper eq. (4).

    Tasks without attached curves fall back to the classic term (equivalent
    to a linear curve ``k·C_j``).
    """
    return sum(
        task_set[j].demand_upper(_arrivals(t, task_set[j].period)) for j in range(i + 1)
    )


def _rms_test(task_set: TaskSet, method: str) -> RMSAnalysis:
    """Evaluate ``W_i(t)/t`` at all of task *i*'s scheduling points in one
    array pass per task.  The per-point floats are those of the scalar
    definitions above — the same ``⌈t/T_j⌉`` guard, the same demand term,
    terms summed over ``j = 0..i`` in order — so the loads and critical
    points are bit-identical to a point-by-point scan
    (:func:`repro.reference.rms_test_brute`)."""
    use_curves = method == "workload-curves"
    loads: list[float] = []
    crits: list[float] = []
    for i in range(len(task_set)):
        t = np.array(scheduling_points(task_set, i))
        demand = np.zeros(t.size)
        for task in task_set.tasks[: i + 1]:
            arrivals = np.maximum(1.0, np.ceil(t / task.period - 1e-9))
            if use_curves and task.curves is not None:
                demand = demand + task.curves.upper(arrivals)
            else:
                demand = demand + task.wcet * arrivals
        ratio = demand / t
        best = int(np.argmin(ratio))  # the first minimum, as a scan keeps it
        loads.append(float(ratio[best]))
        crits.append(float(t[best]))
    return RMSAnalysis(tuple(loads), tuple(crits), method)


def rms_test_classic(task_set: TaskSet) -> RMSAnalysis:
    """Lehoczky's exact test with the WCET-only characterization
    (paper eq. (3))."""
    return _rms_test(task_set, "classic")


def rms_test_curves(task_set: TaskSet) -> RMSAnalysis:
    """The workload-curve-improved test (paper eq. (4)).

    By eq. (5) the resulting loads satisfy ``L̃_i <= L_i`` for every task,
    so any set schedulable under :func:`rms_test_classic` stays schedulable
    here, and sets with heavy demand variability may become schedulable
    only here.
    """
    return _rms_test(task_set, "workload-curves")


def liu_layland_bound(n: int) -> float:
    """The Liu & Layland utilization bound ``n·(2^{1/n} − 1)`` — the
    classical sufficient (not necessary) RM condition."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    return n * (2.0 ** (1.0 / n) - 1.0)


def liu_layland_test(task_set: TaskSet) -> bool:
    """Sufficient utilization-based test: ``U <= n(2^{1/n} − 1)``."""
    return task_set.total_utilization <= liu_layland_bound(len(task_set)) + 1e-12
