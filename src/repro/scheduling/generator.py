"""Random task-set generation for evaluation and fuzzing.

The standard experimental methodology of the schedulability literature:

* **UUniFast** (Bini & Buttazzo) draws `n` per-task utilizations summing
  exactly to a target `U` without bias;
* periods are drawn log-uniformly (decades matter, not absolute values);
* optionally, each task gets a two-mode demand profile with workload
  curves, with a configurable heavy/light cost ratio and heavy-activation
  bound — the variable-demand population this paper is about.
"""

from __future__ import annotations

import math
import numpy as np

from repro.core.analytical import _two_mode_pair
from repro.scheduling.task import PeriodicTask, TaskSet
from repro.util.validation import ValidationError, check_integer, check_positive

__all__ = ["uunifast", "random_task_set", "random_variable_task_set"]


def uunifast(n: int, total_utilization: float, rng: np.random.Generator) -> np.ndarray:
    """UUniFast: `n` utilizations summing to *total_utilization*, uniformly
    distributed over the simplex."""
    n = check_integer(n, "n", minimum=1)
    check_positive(total_utilization, "total_utilization")
    utilizations = np.empty(n)
    remaining = total_utilization
    for i in range(n - 1):
        next_remaining = remaining * rng.random() ** (1.0 / (n - 1 - i))
        utilizations[i] = remaining - next_remaining
        remaining = next_remaining
    utilizations[-1] = remaining
    return utilizations


def _log_uniform_periods(
    n: int, rng: np.random.Generator, low: float, high: float
) -> np.ndarray:
    return np.exp(rng.uniform(math.log(low), math.log(high), n))


def random_task_set(
    n: int,
    total_utilization: float,
    rng: np.random.Generator,
    *,
    period_range: tuple[float, float] = (1.0, 100.0),
) -> TaskSet:
    """A random implicit-deadline periodic task set with the given total
    WCET utilization (UUniFast + log-uniform periods)."""
    low, high = period_range
    check_positive(low, "period_range low")
    if high <= low:
        raise ValidationError("period_range must satisfy low < high")
    utils = uunifast(n, total_utilization, rng)
    # periods rounded to a microsecond-like grid so exact hyperperiods exist
    periods = np.round(_log_uniform_periods(n, rng, low, high), 6)
    periods = np.maximum(periods, low)
    tasks = []
    for i, (u, p) in enumerate(zip(utils, periods)):
        wcet = max(u * p, 1e-9)
        if wcet > p:  # a single task may not exceed its period
            wcet = p
        tasks.append(PeriodicTask(f"t{i}", float(p), float(wcet)))
    return TaskSet(tasks)


def random_variable_task_set(
    n: int,
    total_utilization: float,
    rng: np.random.Generator,
    *,
    period_range: tuple[float, float] = (1.0, 100.0),
    heavy_ratio_range: tuple[float, float] = (2.0, 8.0),
    heavy_every_range: tuple[int, int] = (2, 6),
    k_max: int = 256,
    with_metadata: bool = False,
) -> TaskSet | tuple[TaskSet, dict[str, tuple[int, float]]]:
    """Like :func:`random_task_set`, but every task has *variable* demand:
    at most one heavy activation (cost = WCET) in every ``m`` consecutive,
    the rest light, with workload curves attached.

    The declared WCET utilization is the task's *worst-case* utilization;
    the long-run utilization is substantially lower — exactly the
    population on which the paper's tests outperform the classic ones.

    With ``with_metadata=True`` also returns ``{name: (m, e_light)}`` so a
    simulation can replay admissible worst-case demand patterns.
    """
    base = random_task_set(n, total_utilization, rng, period_range=period_range)
    lo_r, hi_r = heavy_ratio_range
    if not (1.0 < lo_r <= hi_r):
        raise ValidationError("heavy_ratio_range must satisfy 1 < low <= high")
    lo_m, hi_m = heavy_every_range
    check_integer(lo_m, "heavy_every low", minimum=2)
    k_max = check_integer(k_max, "k_max", minimum=1)
    ks = np.arange(1, k_max + 1, dtype=np.int64)
    tasks = []
    metadata: dict[str, tuple[int, float]] = {}
    for t in base:
        ratio = rng.uniform(lo_r, hi_r)
        m = int(rng.integers(lo_m, hi_m + 1))
        e_heavy = t.wcet
        e_light = e_heavy / ratio
        # at most one heavy activation in every m consecutive; the bounds
        # are exact integer arrays, so the curves are the floats the
        # callables min(k, 1 + (k-1) // m) and k // m give two_mode_curves
        curves = _two_mode_pair(
            ks, np.minimum(ks, 1 + (ks - 1) // m), ks // m, e_heavy, e_light
        )
        tasks.append(PeriodicTask(t.name, t.period, t.wcet, curves=curves))
        metadata[t.name] = (m, e_light)
    task_set = TaskSet(tasks)
    if with_metadata:
        return task_set, metadata
    return task_set
