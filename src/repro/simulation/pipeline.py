"""The two-PE streaming testbed of the paper's Figure 7, as a one-stage chain.

Macroblocks leave PE1 at known times (the clip generator's front-end
recursion), enter the FIFO of size ``b`` in front of PE2, and PE2 —
clocked at frequency ``F`` — consumes them in order.  A macroblock's slot
is freed when PE2 *finishes* it.

Seen from PE2 this is stage 0 of a tandem chain, so both entry points
are one-stage calls of :mod:`repro.simulation.chain`:

* :func:`simulate_pipeline` runs the event-driven oracle
  :func:`~repro.simulation.chain.simulate_chain`;
* :func:`replay_pipeline` runs the vectorized max-plus replay
  :func:`~repro.simulation.chain.replay_chain`.

Each only unpacks stage 0 into a :class:`PipelineResult`.  Validation,
the tie rule, the overflow definition (an arrival that finds the buffer
already holding ``capacity`` items) and the ``sim.chain.*`` metrics are
the chain's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simulation.chain import ChainResult, replay_chain, simulate_chain
from repro.util.validation import check_integer

__all__ = ["PipelineResult", "simulate_pipeline", "replay_pipeline"]


@dataclass(frozen=True)
class PipelineResult:
    """Outcome of one pipeline run (stage 0 of a one-stage chain).

    Attributes
    ----------
    max_backlog:
        Worst-case FIFO occupancy in items (macroblocks).
    overflowed:
        True if the occupancy ever exceeded the buffer capacity.
    overflow_count:
        Number of arrivals that found the buffer already at capacity
        (0 for unbounded buffers).
    completion_times:
        Per-item completion times at PE2 (decode order).
    consumer_utilization:
        Busy fraction of PE2 over the makespan.
    """

    max_backlog: int
    overflowed: bool
    overflow_count: int
    completion_times: np.ndarray
    consumer_utilization: float

    @property
    def makespan(self) -> float:
        """Completion time of the last item."""
        return float(self.completion_times[-1])

    def normalized_backlog(self, capacity: int) -> float:
        """``max_backlog / capacity`` — the y-axis of the paper's Figure 7."""
        check_integer(capacity, "capacity", minimum=1)
        return self.max_backlog / capacity


def _stage0(result: ChainResult) -> PipelineResult:
    stage = result.stage_stats[0]
    return PipelineResult(
        max_backlog=stage.max_backlog,
        overflowed=stage.overflowed,
        overflow_count=stage.overflow_count,
        completion_times=result.departures[0],
        consumer_utilization=stage.utilization,
    )


def simulate_pipeline(
    arrivals: np.ndarray,
    demands: np.ndarray,
    frequency: float,
    *,
    capacity: int | None = None,
) -> PipelineResult:
    """Event-driven simulation of the FIFO + PE2 stage.

    Parameters
    ----------
    arrivals:
        Times items enter the FIFO (non-decreasing; PE1 output order).
    demands:
        PE2 cycle demand per item (1-D).
    frequency:
        PE2 clock in Hz.
    capacity:
        FIFO capacity in items; ``None`` = unbounded (statistics only).
    """
    # one capacity entry pins the chain to one stage: a 2-D demand
    # matrix with more rows fails the chain's validation
    return _stage0(simulate_chain(arrivals, demands, frequency, capacities=[capacity]))


def replay_pipeline(
    arrivals: np.ndarray,
    demands: np.ndarray,
    frequency: float,
    *,
    capacity: int | None = None,
) -> PipelineResult:
    """Closed-form replay of :func:`simulate_pipeline` (same parameters).

    Completion times follow the single-server recursion
    ``done_i = max(arrive_i, done_{i-1}) + demand_i / F``, solved as one
    max-plus scan by :func:`~repro.simulation.chain.replay_chain`.
    """
    return _stage0(replay_chain(arrivals, demands, frequency, capacities=[capacity]))
