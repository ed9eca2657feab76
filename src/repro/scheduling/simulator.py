"""Discrete-event simulator for preemptive uniprocessor scheduling.

Validates the analytic tests: jobs are released periodically, each with a
per-job demand drawn from a caller-supplied generator (so variable execution
demand — the paper's subject — can be replayed or synthesized), and executed
preemptively under rate-monotonic fixed priorities.

The simulator is exact for piecewise-constant demand: between consecutive
events (release or completion) the processor serves the single
highest-priority ready job, so state advances in closed form — no time
quantization is involved.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.obs.metrics import registry
from repro.obs.tracing import tracer
from repro.scheduling.task import TaskSet
from repro.util.validation import ValidationError, check_positive

__all__ = ["CompletedJob", "SimulationResult", "simulate", "wcet_demands"]

DemandGenerator = Callable[[int], float]
"""Maps a job index (0-based per task) to that job's execution demand."""


@dataclass(frozen=True)
class CompletedJob:
    """One executed job: identity, timing, and outcome."""

    task_name: str
    index: int
    release: float
    demand: float
    completion: float
    absolute_deadline: float

    @property
    def response_time(self) -> float:
        """Completion minus release."""
        return self.completion - self.release

    @property
    def met_deadline(self) -> bool:
        """True if the job finished by its absolute deadline."""
        return self.completion <= self.absolute_deadline + 1e-9


@dataclass
class SimulationResult:
    """Outcome of a simulation run."""

    jobs: list[CompletedJob]
    horizon: float
    busy_time: float

    @property
    def utilization(self) -> float:
        """Fraction of the horizon the processor was busy."""
        return self.busy_time / self.horizon

    def jobs_of(self, task_name: str) -> list[CompletedJob]:
        """Completed jobs of one task, in release order."""
        return [j for j in self.jobs if j.task_name == task_name]

    def _decided(self, jobs: list[CompletedJob]) -> list[CompletedJob]:
        """Jobs whose verdict the horizon can decide: finished jobs, plus
        unfinished ones whose absolute deadline lies within the horizon
        (those have certainly missed).  Unfinished jobs with deadlines
        beyond the horizon are boundary artifacts and excluded."""
        return [
            j
            for j in jobs
            if math.isfinite(j.completion) or j.absolute_deadline <= self.horizon + 1e-9
        ]

    def max_response_time(self, task_name: str) -> float:
        """Worst observed response time of *task_name* over decided jobs
        (0 if none)."""
        times = [j.response_time for j in self._decided(self.jobs_of(task_name))]
        return max(times) if times else 0.0

    def deadline_misses(self, task_name: str | None = None) -> int:
        """Number of missed deadlines among decided jobs, optionally
        restricted to one task."""
        jobs = self.jobs if task_name is None else self.jobs_of(task_name)
        return sum(not j.met_deadline for j in self._decided(jobs))


def wcet_demands(task_set: TaskSet) -> dict[str, DemandGenerator]:
    """Demand generators that charge every job its task's WCET — the
    classical worst-case assumption."""
    return {t.name: (lambda _i, c=t.wcet: c) for t in task_set}


@dataclass(order=True)
class _ReadyJob:
    sort_key: tuple
    task_name: str = field(compare=False)
    index: int = field(compare=False)
    release: float = field(compare=False)
    demand: float = field(compare=False)
    remaining: float = field(compare=False)
    absolute_deadline: float = field(compare=False)


def simulate(
    task_set: TaskSet,
    horizon: float,
    *,
    demands: Mapping[str, DemandGenerator] | None = None,
) -> SimulationResult:
    """Simulate *task_set* preemptively over ``[0, horizon)`` under fixed
    priorities in task-set order (rate-monotonic for a
    :class:`~repro.scheduling.task.TaskSet`).

    Parameters
    ----------
    task_set:
        Tasks; each task releases its first job at its offset (0 by
        default — the synchronous critical instant) and re-releases every
        period.
    horizon:
        Simulation length.  Jobs still incomplete at the horizon are
        reported with ``completion = inf``.
    demands:
        Per-task demand generators (job index → demand); defaults to
        :func:`wcet_demands`.  A generated demand must be positive and, for
        a meaningful comparison with analysis, not exceed the task's WCET
        (checked).
    """
    check_positive(horizon, "horizon")
    with tracer.span("sched.simulate", horizon=horizon, tasks=len(list(task_set))):
        result = _simulate(task_set, horizon, demands=demands)
    registry.counter("sched.runs").inc()
    registry.counter("sched.jobs").inc(len(result.jobs))
    registry.counter("sched.deadline_misses").inc(result.deadline_misses())
    registry.counter("sched.busy_seconds").add(result.busy_time)
    return result


def _simulate(
    task_set: TaskSet,
    horizon: float,
    *,
    demands: Mapping[str, DemandGenerator] | None,
) -> SimulationResult:
    gens = dict(wcet_demands(task_set))
    if demands is not None:
        unknown = set(demands) - {t.name for t in task_set}
        if unknown:
            raise ValidationError(f"demand generators for unknown tasks: {sorted(unknown)}")
        gens.update(demands)

    priority_index = {t.name: i for i, t in enumerate(task_set)}

    # pre-compute releases within the horizon (honouring offsets)
    releases: list[tuple[float, str, int]] = []
    for t in task_set:
        k = 0
        r = t.offset
        while r < horizon - 1e-12:
            releases.append((r, t.name, k))
            k += 1
            r = t.offset + k * t.period
    releases.sort()

    ready: list[_ReadyJob] = []
    completed: list[CompletedJob] = []
    busy = 0.0
    now = 0.0
    rel_pos = 0

    def push_release(pos: int) -> int:
        while pos < len(releases) and releases[pos][0] <= now + 1e-12:
            r, name, idx = releases[pos]
            task = task_set.by_name(name)
            demand = float(gens[name](idx))
            if demand <= 0:
                raise ValidationError(f"demand generator for {name!r} returned {demand!r}")
            if demand > task.wcet + 1e-9:
                raise ValidationError(
                    f"generated demand {demand:g} for {name!r} exceeds wcet {task.wcet:g}"
                )
            abs_dl = r + task.deadline
            heapq.heappush(
                ready,
                _ReadyJob((priority_index[name], r, idx), name, idx, r, demand, demand, abs_dl),
            )
            pos += 1
        return pos

    rel_pos = push_release(rel_pos)
    while now < horizon - 1e-12:
        if not ready:
            if rel_pos >= len(releases):
                break
            now = releases[rel_pos][0]
            rel_pos = push_release(rel_pos)
            continue
        job = ready[0]
        next_release = releases[rel_pos][0] if rel_pos < len(releases) else math.inf
        finish = now + job.remaining
        # run the current highest-priority job until it finishes or the next
        # release re-decides the heap top — preemption falls out naturally
        step_end = min(finish, next_release, horizon)
        busy += step_end - now
        job.remaining -= step_end - now
        now = step_end
        if job.remaining <= 1e-12:
            heapq.heappop(ready)
            completed.append(
                CompletedJob(job.task_name, job.index, job.release, job.demand, now, job.absolute_deadline)
            )
        rel_pos = push_release(rel_pos)

    # jobs unfinished at the horizon
    for job in ready:
        completed.append(
            CompletedJob(job.task_name, job.index, job.release, job.demand, math.inf, job.absolute_deadline)
        )
    completed.sort(key=lambda j: (j.release, priority_index[j.task_name]))
    return SimulationResult(completed, horizon, busy)
