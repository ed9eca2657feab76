"""Executable operations of the analysis service.

The daemon runs every attempt through the runner's
:func:`~repro.runner.pool.run_attempt` on a process-pool executor, which
pickles the function *by reference* — so the single entry point
(:func:`execute_op`) and every op implementation live here at module
level, exactly like :mod:`repro.runner.tasks` does for the batch runner.

Ops (the ``op`` field of a ``submit`` request):

``curve``
    Extract workload curves from a posted per-event demand array via the
    bounded-memory streaming fold
    (:meth:`~repro.core.workload.WorkloadCurvePair.from_demand_stream`).
``frequency``
    One frequency/backlog design-space point (paper eqs. (7), (9), (10))
    over the case-study context — the op behind ``sweep --service``.
    Rides the warm evaluator pool, so repeated queries with the same
    parameterization skip the context build entirely.
``backlog``
    Eq. (7) event backlog at a given frequency over the same context.
``sleep``
    Synthetic latency (tests and benchmarks of queueing/timeout paths).

Every op returns a JSON-serializable dict — results travel over the JSONL
protocol unchanged.  The daemon's attempts run :func:`execute_op_json`,
which encodes the result in the worker, so the event loop only splices
the text into the response.  :func:`estimate_demand` gives the static
per-op demand estimates (in milliseconds of nominal work) that seed the
admission controller before measured costs take over.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.service.protocol import RawJSON, encode_value
from repro.util.validation import ValidationError, check_integer, check_positive

__all__ = ["OPS", "execute_op", "execute_op_json", "estimate_demand", "UnknownOperation"]


class UnknownOperation(ValidationError):
    """Raised when a request names an op that is not registered."""


def _op_sleep(params: dict[str, Any]) -> dict[str, Any]:
    """Block for ``seconds`` and return it (synthetic latency)."""
    seconds = float(params.get("seconds", 0.0))
    if seconds < 0:
        raise ValidationError("seconds must be >= 0")
    time.sleep(seconds)
    return {"slept_s": seconds}


def _op_curve(params: dict[str, Any]) -> dict[str, Any]:
    """Workload-curve extraction from a posted demand array.

    ``params``: ``demands`` (list of positive numbers), optional
    ``chunk`` (streaming fold chunk size, default 4096).
    """
    import numpy as np

    from repro.core.workload import WorkloadCurvePair

    demands = np.asarray(params.get("demands", ()), dtype=float)
    if demands.size == 0:
        raise ValidationError("curve op needs a non-empty 'demands' array")
    chunk = check_integer(params.get("chunk", 4096), "chunk", minimum=1)
    chunks = (
        demands[start : start + chunk] for start in range(0, demands.size, chunk)
    )
    pair = WorkloadCurvePair.from_demand_stream(chunks, total=int(demands.size))
    return {
        "events": int(demands.size),
        "wcet": pair.wcet,
        "bcet": pair.bcet,
        "k": pair.upper.k_values.tolist(),
        "gamma_u": pair.upper.values.tolist(),
        "gamma_l": pair.lower.values.tolist(),
    }


def _context_kwargs(params: dict[str, Any]) -> dict[str, Any]:
    """The case-study-context portion of an op's parameters."""
    return {
        "frames": int(params.get("frames", 72)),
        "dense_limit": int(params.get("dense_limit", 4096)),
        "growth": float(params.get("growth", 1.015)),
        "stream_chunk": params.get("stream_chunk"),
        "max_segments": params.get("max_segments"),
        "compact_error": params.get("compact_error"),
    }


def _op_frequency(params: dict[str, Any]) -> dict[str, Any]:
    """One frequency/backlog sweep point, serialized for the protocol.

    Same computation and manifest as
    :func:`repro.runner.tasks.frequency_backlog_point` (the batch
    runner's op), so a sweep through the service is byte-comparable to a
    local one.
    """
    from repro.runner.tasks import frequency_backlog_point

    result = frequency_backlog_point(
        buffer_size=check_integer(params.get("buffer_size"), "buffer_size", minimum=1),
        bisect=bool(params.get("bisect", False)),
        sim_validate=bool(params.get("sim_validate", False)),
        sim_items=int(params.get("sim_items", 4096)),
        sim_seed=int(params.get("sim_seed", 0)),
        **_context_kwargs(params),
    )
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "paper_reference": result.paper_reference,
        "report": result.report,
        "data": result.data,
        "manifest": result.manifest,
    }


def _op_backlog(params: dict[str, Any]) -> dict[str, Any]:
    """Eq. (7) event backlog at ``frequency`` over the warm evaluator."""
    from repro.experiments.common import sweep_frequency_evaluator

    frequency = check_positive(float(params.get("frequency", 0.0)), "frequency")
    evaluator = sweep_frequency_evaluator(**_context_kwargs(params))
    return {
        "frequency": frequency,
        "backlog_events": float(evaluator.backlog_events(frequency)),
    }


#: Registered operations: op name -> implementation.
OPS: dict[str, Callable[[dict[str, Any]], dict[str, Any]]] = {
    "sleep": _op_sleep,
    "curve": _op_curve,
    "frequency": _op_frequency,
    "backlog": _op_backlog,
}

#: Static demand estimates (milliseconds of nominal work) seeding the
#: admission controller until measured costs take over.
_STATIC_DEMAND_MS = {
    "sleep": 1.0,
    "curve": 5.0,
    "frequency": 200.0,
    "backlog": 50.0,
}


def estimate_demand(op: str, params: dict[str, Any]) -> float:
    """Static demand estimate of one request, in milliseconds of work.

    ``sleep`` scales with the requested duration, ``curve`` with the
    posted trace length; the context-bound ops use flat priors (the
    admission controller's measured EMA replaces them after the first
    few completions — see
    :meth:`repro.service.admission.AdmissionController.record_cost`).
    """
    base = _STATIC_DEMAND_MS.get(op, 10.0)
    if op == "sleep":
        return max(base, float(params.get("seconds", 0.0)) * 1000.0)
    if op == "curve":
        return max(base, 0.01 * len(params.get("demands", ())))
    return base


def execute_op(op: str, params: dict[str, Any]) -> dict[str, Any]:
    """Execute one op in the current process and return its result."""
    impl = OPS.get(op)
    if impl is None:
        raise UnknownOperation(f"unknown op {op!r} (known: {', '.join(sorted(OPS))})")
    return impl(dict(params or {}))


def execute_op_json(op: str, params: dict[str, Any]) -> RawJSON:
    """:func:`execute_op`, its result encoded as the protocol's JSON text
    (the function each daemon attempt runs, in its worker;
    :func:`~repro.runner.pool.run_attempt` reseeds the global RNGs with
    the job's derived seed first, so a job's result is independent of
    which worker runs it)."""
    return encode_value(execute_op(op, params))
