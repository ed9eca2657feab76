"""N-stage tandem pipelines: vectorized max-plus replay + event oracle.

A chain of ``S`` processing elements, each clocked at its own frequency
and fed through its own FIFO: departures of stage ``k`` are the arrivals
of stage ``k+1``.  The paper's two-PE testbed is the one-stage case
(:mod:`repro.simulation.pipeline` calls this module with ``S = 1``).
Two independent implementations are provided:

* :func:`replay_chain` — one vectorized max-plus scan per stage
  (``cumsum`` + ``np.maximum.accumulate`` + one ``searchsorted`` for the
  backlog profile), O(S·M) total for ``S`` stages and ``M`` items with
  no Python-level per-item work;
* :func:`simulate_chain` — the event-driven oracle on the
  :class:`~repro.simulation.kernel.Simulator` kernel, one
  :class:`~repro.simulation.fifo.Fifo` and
  :class:`~repro.simulation.pe.ProcessingElement` per stage.

The conformance suite (``tests/simulation/test_chain.py``) checks exact
agreement on random topologies including tie-heavy simultaneous-event
traces; the replay is then trusted for million-event scenario grids
(gated ≥ 20x faster in ``benchmarks/test_bench_sim.py``).

Tie semantics: a slot is freed the instant its consumer finishes,
*before* any simultaneous arrival is admitted — in
the event-driven oracle completions run at priority -1 and inter-stage
hand-offs are re-scheduled as priority-0 arrival events at the same
timestamp, in the replay the backlog count uses a relative tie
tolerance.  Both implementations publish the ``sim.chain.*`` metrics
family (runs/items by implementation, per-stage backlog high-water,
overflow and busy-time series), surfaced by ``python -m repro obs
report``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.metrics import registry
from repro.obs.tracing import tracer
from repro.simulation.fifo import Fifo
from repro.simulation.kernel import Simulator
from repro.simulation.pe import ProcessingElement
from repro.util.validation import ValidationError, check_integer

__all__ = ["StageStats", "ChainResult", "replay_chain", "simulate_chain"]


@dataclass(frozen=True)
class StageStats:
    """Per-stage FIFO and PE statistics of one chain run.

    Attributes
    ----------
    max_backlog:
        Worst-case occupancy of the stage's FIFO in items (queued plus
        in service — a slot is held until the stage *finishes* an item).
    overflow_count:
        Arrivals that found the FIFO already at capacity (0 when the
        stage is unbounded).
    overflowed:
        True iff ``overflow_count > 0`` (equivalently
        ``max_backlog > capacity``).
    busy_seconds:
        Total time the stage's PE spent executing.
    utilization:
        Busy fraction of the stage over ``[0, last completion]``.
    """

    max_backlog: int
    overflow_count: int
    overflowed: bool
    busy_seconds: float
    utilization: float


@dataclass(frozen=True)
class ChainResult:
    """Outcome of one N-stage chain run.

    Attributes
    ----------
    stage_stats:
        One :class:`StageStats` per stage, in flow order.
    departures:
        ``(stages, items)`` array of completion times: row ``k`` holds
        the times items leave stage ``k`` (and, for ``k+1 < stages``,
        enter the next FIFO).
    """

    stage_stats: tuple[StageStats, ...]
    departures: np.ndarray

    @property
    def stages(self) -> int:
        """Number of processing elements in the chain."""
        return len(self.stage_stats)

    @property
    def completion_times(self) -> np.ndarray:
        """Per-item completion times at the last stage (flow order)."""
        return self.departures[-1]

    @property
    def makespan(self) -> float:
        """Completion time of the last item at the last stage."""
        return float(self.departures[-1, -1])

    @property
    def max_backlogs(self) -> tuple[int, ...]:
        """Per-stage worst-case FIFO occupancy, in flow order."""
        return tuple(s.max_backlog for s in self.stage_stats)

    @property
    def overflowed(self) -> bool:
        """True if any stage's FIFO ever exceeded its capacity."""
        return any(s.overflowed for s in self.stage_stats)


def _validate_chain(
    arrivals, demands, frequencies, capacities
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int | None]]:
    arrivals = np.asarray(arrivals, dtype=float)
    demands = np.asarray(demands, dtype=float)
    if demands.ndim == 1:
        demands = demands[np.newaxis, :]
    if arrivals.ndim != 1 or demands.ndim != 2 or demands.shape[1] != arrivals.size:
        raise ValidationError(
            "arrivals must be 1-D and demands (stages, items) with matching items"
        )
    if arrivals.size == 0:
        raise ValidationError("chain needs at least one item")
    if np.any(np.diff(arrivals) < 0):
        raise ValidationError("arrivals must be non-decreasing (in-order stream)")
    if np.any(demands <= 0) or not np.all(np.isfinite(demands)):
        raise ValidationError("demands must be positive and finite")
    stages = demands.shape[0]
    try:
        frequencies = np.broadcast_to(
            np.asarray(frequencies, dtype=float), (stages,)
        ).copy()
    except ValueError as exc:
        raise ValidationError(
            f"frequencies must be a scalar or one per stage ({stages})"
        ) from exc
    if np.any(frequencies <= 0) or not np.all(np.isfinite(frequencies)):
        raise ValidationError("frequencies must be positive and finite")
    if capacities is None:
        caps: list[int | None] = [None] * stages
    elif isinstance(capacities, int):
        caps = [check_integer(capacities, "capacity", minimum=1)] * stages
    else:
        caps = list(capacities)
        if len(caps) != stages:
            raise ValidationError(
                f"capacities must have one entry per stage ({stages}), "
                f"got {len(caps)}"
            )
        caps = [
            None if c is None else check_integer(c, "capacity", minimum=1)
            for c in caps
        ]
    return arrivals, demands, frequencies, caps


def _publish_chain_metrics(
    impl: str, stats: list[StageStats], items: int
) -> None:
    """Report one chain run into the ``sim.chain.*`` metrics family."""
    registry.counter("sim.chain.runs", impl=impl).inc(1)
    registry.counter("sim.chain.items", impl=impl).inc(items * len(stats))
    for k, s in enumerate(stats):
        registry.gauge("sim.chain.high_water", stage=k).set_max(s.max_backlog)
        registry.counter("sim.chain.overflows", stage=k).inc(s.overflow_count)
        registry.counter("sim.chain.busy_seconds", stage=k).add(s.busy_seconds)


def replay_chain(
    arrivals: np.ndarray,
    demands: np.ndarray,
    frequencies,
    *,
    capacities=None,
) -> ChainResult:
    """Vectorized max-plus replay of an N-stage tandem pipeline.

    Parameters
    ----------
    arrivals:
        Times items enter the first stage's FIFO (non-decreasing).
    demands:
        Per-stage cycle demands, shape ``(stages, items)`` (a 1-D array
        is treated as a single stage).
    frequencies:
        Per-stage clock in Hz — a scalar (all stages alike) or a
        length-``stages`` sequence.
    capacities:
        Per-stage FIFO capacities: ``None`` (all unbounded), one int
        (all stages alike), or a per-stage sequence of int-or-``None``.

    Each stage is the single-server recursion
    ``done_i = max(enter_i, done_{i-1}) + demand_i / F``.  Unrolled, that
    is the max-plus scan ``done_i = S_i + max_{j<=i}(enter_j − S_{j-1})``
    with ``S_i`` the cumulative service time — one ``cumsum`` plus one
    ``np.maximum.accumulate``.  The stage's maximal backlog is the
    largest ``i − j + 1`` such that item ``j`` still holds its slot
    (``done_j > enter_i``) when item ``i`` enters; ``done`` is monotone,
    so each count is one ``np.searchsorted``.  The departures of stage
    ``k`` are the arrivals of stage ``k+1``, so the whole chain is ``S``
    scans — O(S·M) with no Python-level per-item work.
    """
    arrivals, demands, frequencies, caps = _validate_chain(
        arrivals, demands, frequencies, capacities
    )
    stages, items = demands.shape
    with tracer.span("sim.chain", impl="replay", stages=stages, items=items):
        departures = np.empty((stages, items))
        stats: list[StageStats] = []
        enter = arrivals
        index = np.arange(items)
        for k in range(stages):
            service = demands[k] / frequencies[k]
            cum = np.cumsum(service)
            done = cum + np.maximum.accumulate(enter - cum + service)
            # ties free the slot before simultaneous arrivals; the
            # tolerance is relative so late arrivals in long traces, where
            # an absolute epsilon would vanish under the float spacing,
            # compare the same way early ones do
            tol = 1e-12 * np.maximum(1.0, np.abs(enter))
            finished = np.searchsorted(done, enter + tol, side="right")
            backlog = index - finished + 1
            max_backlog = max(int(backlog.max()), 0)
            cap = caps[k]
            overflow_count = (
                int(np.count_nonzero(backlog > cap)) if cap is not None else 0
            )
            busy = float(cum[-1])
            horizon = float(done[-1])
            stats.append(
                StageStats(
                    max_backlog=max_backlog,
                    overflow_count=overflow_count,
                    overflowed=overflow_count > 0,
                    busy_seconds=busy,
                    utilization=min(busy, horizon) / horizon if horizon > 0 else 0.0,
                )
            )
            departures[k] = done
            enter = done
        _publish_chain_metrics("replay", stats, items)
    return ChainResult(stage_stats=tuple(stats), departures=departures)


def simulate_chain(
    arrivals: np.ndarray,
    demands: np.ndarray,
    frequencies,
    *,
    capacities=None,
) -> ChainResult:
    """Event-driven oracle for :func:`replay_chain` (same signature).

    Runs the chain on the discrete-event kernel with one FIFO + PE pair
    per stage.  External arrivals are bulk-loaded with
    :meth:`~repro.simulation.kernel.Simulator.schedule_sorted`; stage
    hand-offs are separate priority-0 events so that every completion at
    a timestamp (priority -1) frees its slot before any simultaneous
    arrival is admitted — the tie rule the replay encodes with its
    tolerance.  All handlers are per-*stage* cursor callables: items
    traverse every stage in FIFO order, so no per-item closures are
    needed.
    """
    arrivals, demands, frequencies, caps = _validate_chain(
        arrivals, demands, frequencies, capacities
    )
    stages, items = demands.shape
    sim = Simulator()
    fifos: list[Fifo[int]] = [
        Fifo(caps[k], name=f"chain.stage{k}") for k in range(stages)
    ]
    pes = [
        ProcessingElement(f"chain.stage{k}", float(frequencies[k]))
        for k in range(stages)
    ]
    completions = np.zeros((stages, items))
    done_cursors = [0] * stages  # next item index to complete, per stage
    push_cursors = [0] * stages  # next item index to arrive, per stage

    def try_start(k: int) -> None:
        fifo, pe = fifos[k], pes[k]
        if fifo.queued == 0 or not pe.is_idle_at(sim.now):
            return
        index = fifo.start_service()
        done = pe.start(sim.now, float(demands[k, index]))
        sim.schedule(done, completes[k], priority=-1)

    def arrive(k: int) -> None:
        fifo = fifos[k]
        fifo.push(push_cursors[k])
        push_cursors[k] += 1
        try_start(k)

    def complete(k: int) -> None:
        i = done_cursors[k]
        completions[k, i] = sim.now
        done_cursors[k] = i + 1
        fifos[k].finish_service()
        if k + 1 < stages:
            # hand-off as a fresh priority-0 event: every simultaneous
            # completion (priority -1) runs first and frees its slot
            sim.schedule(sim.now, arrivals_by_stage[k + 1])
        try_start(k)

    arrivals_by_stage = [
        (lambda k=k: arrive(k)) for k in range(stages)
    ]
    completes = [(lambda k=k: complete(k)) for k in range(stages)]

    def external(index: int) -> None:
        arrive(0)

    sim.schedule_sorted(arrivals, external)
    with tracer.span(
        "sim.chain", impl="event-driven", stages=stages, items=items
    ):
        sim.run()
        stats: list[StageStats] = []
        for k in range(stages):
            busy = pes[k].busy_time
            horizon = float(completions[k, -1])
            stats.append(
                StageStats(
                    max_backlog=fifos[k].max_occupancy,
                    overflow_count=fifos[k].overflow_count,
                    overflowed=fifos[k].overflow_count > 0,
                    busy_seconds=busy,
                    utilization=min(busy, horizon) / horizon if horizon > 0 else 0.0,
                )
            )
        _publish_chain_metrics("event-driven", stats, items)
    return ChainResult(stage_stats=tuple(stats), departures=completions)
