"""Stock task functions for the parallel runner.

:func:`run_many`/:func:`~repro.runner.pool.sweep` ship the task function
to worker processes by pickling it *by reference*, so it must live at
module level in an importable module.  This module collects the functions
the CLI, the benchmarks, and the tests fan out:

* :func:`frequency_backlog_point` — one point of the paper's
  frequency/backlog design-space sweep (§3.2, eqs. (7), (9), (10)),
  harnessed like any experiment so every point carries a run manifest;
* :func:`open_system_point` — one open-system scenario: a seeded
  generated trace run through the vectorized N-stage chain replay with
  the per-stage eq. (7) bounds computed from the *same* trace, so the
  analytic bound and the simulated backlog can be compared point for
  point;
* :func:`sleep_task` / :func:`convolution_workload` — synthetic workloads
  for the runner benchmark gate and the test suite.
"""

from __future__ import annotations

import time
from typing import Any

__all__ = [
    "frequency_backlog_point",
    "open_system_point",
    "sleep_task",
    "convolution_workload",
]


def frequency_backlog_point(
    *,
    buffer_size: int,
    frames: int = 72,
    dense_limit: int = 4096,
    growth: float = 1.015,
    stream_chunk: int | None = None,
    max_segments: int | None = None,
    compact_error: float | None = None,
    bisect: bool = False,
    sim_validate: bool = False,
    sim_items: int = 4096,
    sim_seed: int = 0,
):
    """One sweep point: both frequency bounds and the event backlog at
    ``F^γ_min`` for a given FIFO *buffer_size*.

    Builds (or reuses the worker's cached) case-study context once per
    distinct ``frames`` value — the persistent kernel cache makes the
    heavy curve extraction free for warm workers — then evaluates
    eq. (9)/(10) and the eq. (7) backlog bound at the minimum frequency.
    *stream_chunk* feeds the clip traces to the extraction in chunks of
    that many events (bounded per-worker memory, identical results).

    With the default knobs the point is computed exactly, byte-identical
    to previous releases.  *max_segments*/*compact_error* compact the
    arrival curve conservatively before analysis (see
    :mod:`repro.curves.compact`; bounds can only become more
    pessimistic), and *bisect* replaces the closed-form eq. (9) scan with
    the monotone feasibility bisection of
    :meth:`repro.analysis.frequency.FrequencySweepEvaluator.bisect`.
    Both ride the worker-cached
    :func:`~repro.experiments.common.sweep_frequency_evaluator`, so the
    candidate grid and the compacted operands are shared by every point
    the worker evaluates.  Harnessed: the returned result carries a
    ``repro.run-manifest/1``.

    With *sim_validate* the point additionally cross-checks the analytic
    machinery against the simulation engine: a Poisson open-system trace
    of *sim_items* items is generated (seeded with *sim_seed*, calibrated
    to the case study's long-run arrival and demand rates), the eq. (7)
    bound is computed from that trace's *own* extracted curves at
    ``F^γ_min``, and the vectorized chain replay observes the actual
    backlog on the very same trace — bound, observation, and their gap
    land in the result data and the manifest's ``sim.validate.*`` gauges.
    """
    from repro.experiments.common import (
        ExperimentResult,
        harnessed,
        sweep_frequency_evaluator,
    )

    @harnessed
    def _point(
        *,
        buffer_size: int,
        frames: int,
        dense_limit: int,
        growth: float,
        stream_chunk: int | None,
        max_segments: int | None,
        compact_error: float | None,
        bisect: bool,
        sim_validate: bool,
        sim_items: int,
        sim_seed: int,
    ) -> ExperimentResult:
        """Inner harnessed run so the manifest captures the point params."""
        evaluator = sweep_frequency_evaluator(
            frames=frames,
            dense_limit=dense_limit,
            growth=growth,
            stream_chunk=stream_chunk,
            max_segments=max_segments,
            compact_error=compact_error,
        )
        if bisect:
            f_gamma = evaluator.bisect(buffer_size)
        else:
            f_gamma = evaluator.bound_curves(buffer_size)
        f_wcet = evaluator.bound_wcet(buffer_size)
        backlog_events = evaluator.backlog_events(f_gamma.frequency * (1.0 + 1e-6))
        savings = f_gamma.savings_over(f_wcet)
        report = (
            f"b = {buffer_size} macroblocks\n"
            f"F_gamma = {f_gamma.frequency / 1e6:.1f} MHz   "
            f"F_wcet = {f_wcet.frequency / 1e6:.1f} MHz   "
            f"savings = {savings * 100:.1f}%\n"
            f"event backlog at F_gamma: {backlog_events:.1f} "
            f"(cap {buffer_size})"
        )
        data = {
            "buffer_size": buffer_size,
            "f_gamma_hz": f_gamma.frequency,
            "f_wcet_hz": f_wcet.frequency,
            "savings": savings,
            "backlog_events": backlog_events,
        }
        if f_gamma.method != "workload-curves":
            data["f_gamma_method"] = f_gamma.method
        if evaluator.compaction is not None:
            data["compaction_abs_error"] = evaluator.compaction.max_abs_error
            data["compaction_segments"] = evaluator.compaction.output_segments
        if sim_validate:
            validation = _validate_against_simulation(
                frequency=f_gamma.frequency,
                arrival_rate=evaluator.alpha.final_slope,
                demand_mean=evaluator.gamma_u.long_run_rate,
                items=sim_items,
                seed=sim_seed,
            )
            data.update(validation)
            bound = validation["sim_bound_events"]
            report += (
                f"\nsim-validate ({sim_items} items, seed {sim_seed}): "
                f"bound {'unbounded' if bound is None else f'{bound:.1f}'} "
                f">= observed {validation['sim_observed_backlog']} events"
            )
        return ExperimentResult(
            experiment_id=f"SWEEP-b{buffer_size}",
            title=f"Frequency/backlog sweep point (b={buffer_size})",
            paper_reference="Equations (7), (9), (10)",
            report=report,
            data=data,
        )

    return _point(
        buffer_size=buffer_size,
        frames=frames,
        dense_limit=dense_limit,
        growth=growth,
        stream_chunk=stream_chunk,
        max_segments=max_segments,
        compact_error=compact_error,
        bisect=bisect,
        sim_validate=sim_validate,
        sim_items=sim_items,
        sim_seed=sim_seed,
    )


def _validate_against_simulation(
    *,
    frequency: float,
    arrival_rate: float,
    demand_mean: float,
    items: int,
    seed: int,
) -> dict[str, Any]:
    """Analytic bound vs. simulated backlog on one generated trace.

    Draws a Poisson open-system trace calibrated to the given long-run
    *arrival_rate* (events/s) and *demand_mean* (cycles/event), extracts
    the trace's own arrival and workload curves, evaluates the eq. (7)
    backlog bound against the ``β(Δ) = F·Δ`` processor at *frequency*,
    and replays the very same trace through the vectorized chain — so
    any bound/observation inversion is a real soundness bug, not a
    modelling mismatch.  The bound is ``None`` when the generated
    trace's empirical demand rate exceeds the service rate (the bound is
    then unbounded by eq. (7)'s feasibility condition).  Results are
    also published as ``sim.validate.*`` gauges so they land in run
    manifests.

    What does not depend on the frequency is computed once per trace,
    under the kernel-cache op ``sim.validate.trace`` keyed by the scalars
    that fix the trace: its read-only arrivals and demands, and a
    :class:`~repro.analysis.frequency.FrequencySweepEvaluator` over its
    own curves with the eq. (7) grid and ``ᾱ`` on it hoisted.
    """
    from repro.analysis.frequency import FrequencySweepEvaluator
    from repro.core.workload import WorkloadCurve
    from repro.curves.arrival import from_trace_upper
    from repro.curves.minplus import UnboundedCurveError
    from repro.obs.metrics import registry
    from repro.perf.cache import kernel_cache
    from repro.simulation import WorkloadSpec, replay_chain
    from repro.util.staircase import make_k_grid

    def characterize():
        spec = WorkloadSpec(
            model="poisson",
            items=items,
            mean_interarrival=1.0 / arrival_rate,
            demand_mean=demand_mean,
        )
        workload = spec.generate(seed)
        grid = make_k_grid(workload.items)
        evaluator = FrequencySweepEvaluator(
            from_trace_upper(workload.arrivals, n_values=grid),
            WorkloadCurve.from_demand_array(
                workload.stage_demands(0), "upper", k_values=grid
            ),
        )
        for array in (workload.arrivals, workload.demands, *evaluator.backlog_grid()):
            array.flags.writeable = False
        return workload.arrivals, workload.demands, evaluator

    key = ("sim.validate.trace", items, arrival_rate, demand_mean, seed)
    arrivals, demands, evaluator = kernel_cache.get_or_compute(key, characterize)
    try:
        bound: float | None = evaluator.backlog_events(frequency)
    except UnboundedCurveError:
        bound = None
    result = replay_chain(arrivals, demands, frequency)
    observed = result.max_backlogs[0]
    registry.gauge("sim.validate.observed").set_max(observed)
    if bound is not None:
        registry.gauge("sim.validate.bound").set_max(bound)
    return {
        "sim_bound_events": bound,
        "sim_observed_backlog": observed,
        "sim_bound_gap": None if bound is None else bound - observed,
        "sim_items": items,
        "sim_seed": seed,
    }


def open_system_point(
    *,
    model: str = "poisson",
    items: int = 4096,
    mean_interarrival: float = 1.0,
    demand_mean: float = 1.0,
    demand_spread: float = 0.0,
    long_task_fraction: float = 0.0,
    long_task_factor: float = 10.0,
    stage_scales: tuple[float, ...] = (1.0,),
    frequencies=None,
    capacities=None,
    seed: int = 0,
):
    """One open-system scenario: generated trace → chain replay → bounds.

    Draws the scenario's trace with
    :meth:`~repro.simulation.workloads.WorkloadSpec.generate` (seeded,
    fully vectorized), runs it through the N-stage vectorized replay
    (:func:`~repro.simulation.chain.replay_chain`), and computes the
    per-stage eq. (7) backlog bound from the *same* trace: stage ``k``'s
    arrival curve is extracted from its actual entry times (external
    arrivals for stage 0, the upstream departures otherwise) and its
    workload curve from its demand row, so bound and observation describe
    one and the same run.  *frequencies* defaults to twice each stage's
    offered demand rate (comfortably stable); *capacities* follows
    :func:`~repro.simulation.chain.replay_chain`.  Harnessed: the result
    carries a run manifest whose metrics snapshot includes the
    ``sim.chain.*`` family, and per-stage
    ``{bound, observed backlog, gap}`` triples land in the result data —
    the scenario-grid form of the paper's bound-vs-simulation story.
    """
    import numpy as np

    from repro.analysis.backlog import backlog_bound_events
    from repro.core.workload import WorkloadCurve
    from repro.curves.arrival import from_trace_upper
    from repro.curves.minplus import UnboundedCurveError
    from repro.curves.service import rate_latency
    from repro.experiments.common import ExperimentResult, harnessed
    from repro.simulation import WorkloadSpec, replay_chain
    from repro.util.staircase import make_k_grid

    @harnessed
    def _point(
        *,
        model: str,
        items: int,
        mean_interarrival: float,
        demand_mean: float,
        demand_spread: float,
        long_task_fraction: float,
        long_task_factor: float,
        stage_scales: tuple[float, ...],
        frequencies,
        capacities,
        seed: int,
    ) -> ExperimentResult:
        """Inner harnessed run so the manifest captures the scenario."""
        spec = WorkloadSpec(
            model=model,
            items=items,
            mean_interarrival=mean_interarrival,
            demand_mean=demand_mean,
            demand_spread=demand_spread,
            long_task_fraction=long_task_fraction,
            long_task_factor=long_task_factor,
            stage_scales=tuple(stage_scales),
        )
        workload = spec.generate(seed)
        if frequencies is None:
            freqs = [
                2.0 * spec.arrival_rate * float(np.mean(workload.demands[k]))
                for k in range(spec.stages)
            ]
        else:
            freqs = list(np.broadcast_to(np.asarray(frequencies, float), (spec.stages,)))
        result = replay_chain(
            workload.arrivals, workload.demands, freqs, capacities=capacities
        )
        grid = make_k_grid(workload.items)
        stages_data = []
        lines = []
        entries = workload.arrivals
        for k in range(spec.stages):
            alpha = from_trace_upper(entries, n_values=grid)
            gamma_u = WorkloadCurve.from_demand_array(
                workload.stage_demands(k), "upper", k_values=grid
            )
            try:
                bound: float | None = backlog_bound_events(
                    alpha, rate_latency(float(freqs[k]), 0.0), gamma_u
                )
            except UnboundedCurveError:
                bound = None
            observed = result.max_backlogs[k]
            stages_data.append(
                {
                    "stage": k,
                    "frequency_hz": float(freqs[k]),
                    "bound_events": bound,
                    "observed_backlog": observed,
                    "gap": None if bound is None else bound - observed,
                    "overflow_count": result.stage_stats[k].overflow_count,
                }
            )
            lines.append(
                f"stage {k}: bound "
                + ("unbounded" if bound is None else f"{bound:.1f}")
                + f" >= observed {observed} events @ {float(freqs[k]):g} Hz"
            )
            entries = result.departures[k]
        report = (
            f"open system: {model}, {items} items, seed {seed}, "
            f"{spec.stages} stage(s)\n" + "\n".join(lines)
        )
        return ExperimentResult(
            experiment_id=f"OPEN-{model}-s{seed}",
            title=f"Open-system bound-vs-simulation point ({model})",
            paper_reference="Equation (7) vs. N-stage replay",
            report=report,
            data={
                "model": model,
                "items": items,
                "seed": seed,
                "stages": stages_data,
                "makespan_s": result.makespan,
            },
        )

    return _point(
        model=model,
        items=items,
        mean_interarrival=mean_interarrival,
        demand_mean=demand_mean,
        demand_spread=demand_spread,
        long_task_fraction=long_task_fraction,
        long_task_factor=long_task_factor,
        stage_scales=tuple(stage_scales),
        frequencies=frequencies,
        capacities=capacities,
        seed=seed,
    )


def sleep_task(seconds: float) -> float:
    """Block for *seconds* and return it — a pure-latency task whose fan-out
    speedup measures pool concurrency without needing spare CPU cores."""
    time.sleep(float(seconds))
    return float(seconds)


def convolution_workload(spec: tuple[int, int]) -> float:
    """A kernel-bound task: ``spec = (variants, repeats)`` distinct
    arrival/service pairs, each convolved ``repeats`` times.

    Every distinct pair is one expensive min-plus convolution that the
    kernel cache (memory level within a process, disk level across
    processes and runs) collapses to a single computation.
    """
    from repro.curves.arrival import periodic_upper
    from repro.curves.minplus import convolve
    from repro.curves.service import rate_latency

    variants, repeats = spec
    total = 0.0
    for _ in range(int(repeats)):
        for i in range(int(variants)):
            alpha = periodic_upper(
                1.0 + 0.25 * i, jitter=0.4 * i, horizon_periods=24
            )
            beta = rate_latency(30.0 + 2.0 * i, 0.5 + 0.1 * i)
            total += convolve(alpha, beta)(5.0)
    return total
