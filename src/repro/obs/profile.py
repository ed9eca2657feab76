"""Deterministic low-overhead profiling over collected spans and metrics.

This module is a pure *aggregation* layer: it never times anything
itself.  The instrumented kernels already report spans (``repro.obs
.tracing``) and labeled series (``repro.obs.metrics``); the profiler
folds those records into answers to the questions a performance
investigation actually asks:

* **Where did the time go?** — :func:`aggregate_spans` computes per-span
  -name *self time* (duration minus direct children), call counts, and
  min/max, plus breakdowns by the ``backend`` and ``shape`` span
  attributes the min-plus kernels attach;
* **Which dispatch regime ran?** — :func:`dispatch_breakdown` reads the
  ``minplus.dispatch{op, regime}`` counters (convex/concave closed
  forms vs the generic kernel), the compaction counters, and the
  min-plus memo traffic out of a metrics snapshot;
* **How much did the window kernel prune?** — :func:`window_breakdown`
  splits the window lengths of ``staircase.window_lengths{op, path}``
  into anchor passes, pruned lengths and fallback passes, and the
  streaming fold's ``staircase.stream_lengths{path}`` into blocked,
  single and re-passed lengths;
* **How healthy is the cache?** — :func:`cache_tiers` splits every
  memoized lookup into the ``memory`` / ``disk`` / ``miss`` tiers, which
  by construction sum to the total lookups;
* **What are the tails?** — :func:`histogram_quantile` interpolates
  p50/p95/p99-style quantiles from the fixed-bucket timing histograms;
* **Exports** — :func:`profile_report` assembles everything into one
  JSON document (schema ``repro.profile/1``), :func:`collapsed_stacks`
  renders flamegraph-compatible collapsed stacks (``a;b;c <µs>``), and
  :func:`prometheus_text` renders a metrics snapshot in the Prometheus
  text exposition format for scrape-based collection.

Because the profiler runs *after* the fact on exported artifacts, its
runtime overhead on the measured workload is exactly the tracing
overhead — gated below 5 % by ``benchmarks/test_bench_obs.py``.

Everything here is standard-library only, like the rest of
:mod:`repro.obs`.
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable

__all__ = [
    "PROFILE_SCHEMA",
    "aggregate_spans",
    "collapsed_stacks",
    "write_collapsed",
    "histogram_quantile",
    "histogram_quantiles",
    "dispatch_breakdown",
    "cache_tiers",
    "service_breakdown",
    "simulation_breakdown",
    "window_breakdown",
    "profile_report",
    "write_profile",
    "prometheus_text",
    "read_trace_jsonl",
]

#: Version tag written into every profile report.
PROFILE_SCHEMA = "repro.profile/1"

#: Quantiles reported for every histogram series by default.
DEFAULT_QUANTILES = (0.50, 0.95, 0.99)


def read_trace_jsonl(path: str | os.PathLike) -> list[dict[str, Any]]:
    """Load the span records of a ``repro.trace/1`` JSONL file."""
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _new_row() -> dict[str, Any]:
    return {
        "calls": 0,
        "total_s": 0.0,
        "self_s": 0.0,
        "min_s": None,
        "max_s": None,
        "unfinished": 0,
    }


def _fold(row: dict[str, Any], dur: float, self_s: float, unfinished: bool) -> None:
    row["calls"] += 1
    row["total_s"] += dur
    row["self_s"] += self_s
    row["min_s"] = dur if row["min_s"] is None else min(row["min_s"], dur)
    row["max_s"] = dur if row["max_s"] is None else max(row["max_s"], dur)
    if unfinished:
        row["unfinished"] += 1


def aggregate_spans(records: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Fold span *records* into per-name / per-backend / per-shape rows.

    *Self time* of a span is its duration minus the summed durations of
    its **direct** children, clamped at zero (an ``unfinished`` parent
    can report less wall time than its finished children).  Rows carry
    ``calls``, ``total_s``, ``self_s``, ``min_s``/``max_s`` per call, and
    the count of ``unfinished`` spans folded in.  Returns::

        {"spans": {name: row}, "backends": {backend: row},
         "shapes": {shape: row}, "total_self_s": float, "span_count": int}

    The ``backends``/``shapes`` breakdowns group the same rows by the
    ``backend`` / ``shape`` span attributes (spans without the attribute
    are skipped), so "how much self time went to the SoA kernel" falls
    out without re-instrumenting anything.
    """
    records = list(records)
    child_time: dict[Any, float] = {}
    for r in records:
        parent = r.get("parent")
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + float(r["dur"])
    by_name: dict[str, dict[str, Any]] = {}
    by_backend: dict[str, dict[str, Any]] = {}
    by_shape: dict[str, dict[str, Any]] = {}
    total_self = 0.0
    for r in records:
        dur = float(r["dur"])
        self_s = max(0.0, dur - child_time.get(r["id"], 0.0))
        unfinished = bool(r.get("unfinished"))
        total_self += self_s
        _fold(by_name.setdefault(r["name"], _new_row()), dur, self_s, unfinished)
        attrs = r.get("attrs") or {}
        backend = attrs.get("backend")
        if backend is not None:
            _fold(
                by_backend.setdefault(str(backend), _new_row()),
                dur,
                self_s,
                unfinished,
            )
        shape = attrs.get("shape")
        if shape is not None:
            _fold(
                by_shape.setdefault(str(shape), _new_row()), dur, self_s, unfinished
            )
    return {
        "spans": dict(sorted(by_name.items())),
        "backends": dict(sorted(by_backend.items())),
        "shapes": dict(sorted(by_shape.items())),
        "total_self_s": total_self,
        "span_count": len(records),
    }


def collapsed_stacks(records: Iterable[dict[str, Any]]) -> dict[str, int]:
    """Span records as collapsed stacks: ``{"root;child;leaf": self µs}``.

    The output is the input format of Brendan Gregg's ``flamegraph.pl``
    and of speedscope's "collapsed" importer: one semicolon-joined stack
    per entry, weighted by the stack's *self* time in integer
    microseconds (entries that round to zero are dropped).  Stacks are
    reconstructed through the ``parent`` links, so merged multi-worker
    traces collapse correctly under their ingesting parent span.
    """
    records = list(records)
    by_id = {r["id"]: r for r in records}
    child_time: dict[Any, float] = {}
    for r in records:
        parent = r.get("parent")
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + float(r["dur"])
    stacks: dict[str, int] = {}
    for r in records:
        self_s = max(0.0, float(r["dur"]) - child_time.get(r["id"], 0.0))
        micros = int(round(self_s * 1e6))
        if micros <= 0:
            continue
        names = [r["name"]]
        seen = {r["id"]}
        parent = r.get("parent")
        while parent is not None and parent in by_id and parent not in seen:
            seen.add(parent)
            names.append(by_id[parent]["name"])
            parent = by_id[parent].get("parent")
        stack = ";".join(reversed(names))
        stacks[stack] = stacks.get(stack, 0) + micros
    return dict(sorted(stacks.items()))


def write_collapsed(
    records: Iterable[dict[str, Any]], path: str | os.PathLike
) -> int:
    """Write the collapsed stacks of *records* to *path*, one
    ``stack count`` line each; returns the number of stacks written."""
    stacks = collapsed_stacks(records)
    with open(path, "w", encoding="utf-8") as fh:
        for stack, micros in stacks.items():
            fh.write(f"{stack} {micros}\n")
    return len(stacks)


def histogram_quantile(entry: dict[str, Any], q: float) -> float | None:
    """Bucket-interpolated quantile of one histogram snapshot *entry*.

    Walks the cumulative bucket counts to the bucket containing rank
    ``q·count`` and interpolates linearly inside it, clamped to the
    observed ``min``/``max`` so a quantile never leaves the data range.
    The overflow bucket has no upper bound, so quantiles landing there
    report the observed ``max``.  Returns ``None`` for an empty
    histogram or ``q`` outside ``[0, 1]``.
    """
    count = entry.get("count", 0)
    if not count or not 0.0 <= q <= 1.0:
        return None
    bounds = list(entry["buckets"])
    counts = list(entry["counts"])
    lo = entry.get("min")
    hi = entry.get("max")
    rank = q * count
    cum = 0.0
    for i, c in enumerate(counts):
        if not c:
            cum += c
            continue
        if cum + c >= rank:
            lower = bounds[i - 1] if i > 0 else (lo if lo is not None else 0.0)
            if i >= len(bounds):  # overflow bucket: no finite upper bound
                return hi
            upper = bounds[i]
            frac = (rank - cum) / c
            value = lower + frac * (upper - lower)
            if lo is not None:
                value = max(value, lo)
            if hi is not None:
                value = min(value, hi)
            return value
        cum += c
    return hi


def histogram_quantiles(
    snapshot: dict[str, Any], *, quantiles: tuple[float, ...] = DEFAULT_QUANTILES
) -> list[dict[str, Any]]:
    """Interpolated quantiles of every histogram series in *snapshot*.

    Returns one entry per series: its name, (key-sorted) labels, count,
    mean, and a ``{"p50": ..., "p95": ..., "p99": ...}`` mapping keyed by
    the requested *quantiles*.
    """
    out = []
    for entry in snapshot.get("histograms", ()):
        if not entry.get("count"):
            continue
        qs = {
            f"p{round(q * 100):d}": histogram_quantile(entry, q) for q in quantiles
        }
        out.append(
            {
                "name": entry["name"],
                "labels": dict(sorted(entry["labels"].items())),
                "count": entry["count"],
                "mean": entry["sum"] / entry["count"],
                "quantiles": qs,
            }
        )
    return out


def _sum_counters(
    snapshot: dict[str, Any], name: str, **match: Any
) -> int | float:
    """Sum every counter series called *name* whose labels include
    *match* — worker-merged series (``origin="worker"``) fold in with the
    parent's own, which is exactly what a whole-run profile wants."""
    total: int | float = 0
    for entry in snapshot.get("counters", ()):
        if entry["name"] != name:
            continue
        labels = entry["labels"]
        if all(labels.get(k) == v for k, v in match.items()):
            total += entry["value"]
    return total


def _group_counters(
    snapshot: dict[str, Any], name: str, label: str
) -> dict[str, int | float]:
    """Sum the series of counter *name* grouped by one *label* value."""
    groups: dict[str, int | float] = {}
    for entry in snapshot.get("counters", ()):
        if entry["name"] != name:
            continue
        key = str(entry["labels"].get(label))
        groups[key] = groups.get(key, 0) + entry["value"]
    return dict(sorted(groups.items()))


def dispatch_breakdown(snapshot: dict[str, Any]) -> dict[str, Any]:
    """Kernel dispatch-regime accounting out of a metrics *snapshot*.

    Returns, per curve operator, how many cache-missed dispatches took
    each regime (``minplus.dispatch{op, regime}``), compaction activity,
    and the memo hit/miss/bypass totals of the two ops that dispatch.
    """
    regimes: dict[str, dict[str, int | float]] = {}
    for entry in snapshot.get("counters", ()):
        if entry["name"] != "minplus.dispatch":
            continue
        op = str(entry["labels"].get("op"))
        regime = str(entry["labels"].get("regime"))
        per_op = regimes.setdefault(op, {})
        per_op[regime] = per_op.get(regime, 0) + entry["value"]
    memo: dict[str, int | float] = dict.fromkeys(_CACHE_OP_FIELDS, 0)
    for op, row in _cache_per_op(snapshot).items():
        if op in _DISPATCHING_OPS:
            for field in _CACHE_OP_FIELDS:
                memo[field] += row[field]
    return {
        "regimes": {op: dict(sorted(r.items())) for op, r in sorted(regimes.items())},
        "compaction": {
            "calls": _sum_counters(snapshot, "compact.calls"),
            "noops": _sum_counters(snapshot, "compact.noop"),
            "segments_dropped": _sum_counters(snapshot, "compact.segments_dropped"),
        },
        # cache traffic scoped to the dispatching min-plus kernels
        # (``cache.op.*`` of ``minplus.convolve``/``minplus.deconvolve``;
        # ``minplus.self_fixpoint`` dispatches only through its inner
        # convolutions): absent disk promotions, every memo miss and every
        # bypass (a lookup with the cache disabled) runs exactly one
        # dispatch, so regime counts sum to ``misses + bypasses``
        "memo": {"lookups": memo["hits"] + memo["misses"], **memo},
    }


def cache_tiers(snapshot: dict[str, Any]) -> dict[str, Any]:
    """Memoization health out of a metrics *snapshot*, split into tiers.

    Every enabled-cache lookup lands in exactly one tier: ``memory``
    (in-process LRU hit), ``disk`` (persistent-store hit promoted into
    memory), or ``miss`` (computed fresh), so
    ``memory + disk + miss == lookups`` holds by construction — the
    consistency line ``obs report`` prints.  ``bypasses`` counts
    lookups made while the cache was disabled (not part of the sum).
    ``per_op`` splits the traffic by operation name
    (``cache.op.{hits,misses,bypasses}{op}``): ``{op: {hits, misses,
    bypasses}}``, the table ``obs report`` prints under "Cache tiers".
    """
    memory = _sum_counters(snapshot, "cache.hits")
    lookups = _sum_counters(snapshot, "cache.calls")
    raw_misses = _sum_counters(snapshot, "cache.misses")
    disk = _sum_counters(snapshot, "diskcache.hits")
    disk = min(disk, raw_misses)  # a disk hit is first counted as a memory miss
    miss = raw_misses - disk
    return {
        "lookups": lookups,
        "memory": memory,
        "disk": disk,
        "miss": miss,
        "bypasses": _sum_counters(snapshot, "cache.bypasses"),
        "hit_ratio": ((memory + disk) / lookups) if lookups else 0.0,
        "consistent": memory + disk + miss == lookups,
        "per_op": _cache_per_op(snapshot),
    }


#: The per-operation memo counters, ``cache.op.<field>{op}``.
_CACHE_OP_FIELDS = ("hits", "misses", "bypasses")
#: The memoized ops whose every computation counts one ``minplus.dispatch``.
_DISPATCHING_OPS = ("minplus.convolve", "minplus.deconvolve")


def _cache_per_op(snapshot: dict[str, Any]) -> dict[str, dict[str, int | float]]:
    """``{op: {hits, misses, bypasses}}`` out of the ``cache.op.*`` series."""
    per_op: dict[str, dict[str, int | float]] = {}
    for field in _CACHE_OP_FIELDS:
        for op, value in _group_counters(snapshot, f"cache.op.{field}", "op").items():
            per_op.setdefault(op, dict.fromkeys(_CACHE_OP_FIELDS, 0))[field] = value
    return dict(sorted(per_op.items()))


def service_breakdown(snapshot: dict[str, Any]) -> dict[str, Any]:
    """Analysis-service accounting out of a metrics *snapshot*.

    Summarizes the job daemon's admission decisions and outcomes:
    submissions, eq. (8) accepts vs. rejects split by reason
    (``service.rejected{reason=...}`` — ``infeasible`` is the
    feasibility test saying no, ``queue-full`` the bounded queue
    shedding), completions by terminal state, retries, executor
    fallbacks, and the warm evaluator pool's hit accounting.  The
    ``admission`` gauges carry the last characterized required capacity
    against the configured one.  All zeros when no service ran.
    """
    rejected: dict[str, int | float] = {}
    for entry in snapshot.get("counters", ()):
        if entry["name"] != "service.rejected":
            continue
        reason = str(entry["labels"].get("reason", "unknown"))
        rejected[reason] = rejected.get(reason, 0) + entry["value"]
    completed: dict[str, int | float] = {}
    for entry in snapshot.get("counters", ()):
        if entry["name"] != "service.completed":
            continue
        state = str(entry["labels"].get("state", "unknown"))
        completed[state] = completed.get(state, 0) + entry["value"]
    gauges = {
        entry["name"]: entry["value"] for entry in snapshot.get("gauges", ())
    }
    return {
        "submitted": _sum_counters(snapshot, "service.submitted"),
        "accepted": _sum_counters(snapshot, "service.accepted"),
        "rejected": dict(sorted(rejected.items())),
        "completed": dict(sorted(completed.items())),
        "retries": _sum_counters(snapshot, "service.retries"),
        "pool_fallbacks": _sum_counters(snapshot, "service.pool_fallbacks"),
        "admission": {
            "required": gauges.get("service.admission.required"),
            "capacity": gauges.get("service.admission.capacity"),
        },
        "evalpool": {
            "hits": _sum_counters(snapshot, "service.evalpool.hits"),
            "misses": _sum_counters(snapshot, "service.evalpool.misses"),
            "evictions": _sum_counters(snapshot, "service.evalpool.evictions"),
        },
    }


def simulation_breakdown(snapshot: dict[str, Any]) -> dict[str, Any]:
    """Simulation-engine accounting out of a metrics *snapshot*.

    Summarizes the ``sim.*`` metrics family: chain runs and item-stage
    throughput split by implementation (``sim.chain.runs{impl=...}`` —
    the vectorized replay vs. the event-driven oracle), per-stage FIFO
    high-water marks, overflow counts, and PE busy time
    (``sim.chain.high_water{stage=k}`` etc.; the two-PE pipeline is a
    one-stage chain, so it reports as stage 0), and workload-generator
    output by arrival model (``sim.workload.items{model=...}``), and the
    synthetic clips' PE1 recursion items by path
    (``mpeg.front_end.items{path=vectorized|loop}`` under ``front_end``).
    All empty when no simulation ran — ``obs report`` skips the section
    then.
    """
    stages: dict[str, dict[str, int | float]] = {}
    for entry in snapshot.get("gauges", ()):
        if entry["name"] != "sim.chain.high_water":
            continue
        key = str(entry["labels"].get("stage"))
        row = stages.setdefault(key, {})
        row["high_water"] = max(row.get("high_water", 0), entry["value"])
    for name, field in (
        ("sim.chain.overflows", "overflows"),
        ("sim.chain.busy_seconds", "busy_seconds"),
    ):
        for key, value in _group_counters(snapshot, name, "stage").items():
            if key == "None":
                continue
            stages.setdefault(key, {})[field] = value
    return {
        "chain": {
            "runs": _group_counters(snapshot, "sim.chain.runs", "impl"),
            "item_stages": _group_counters(snapshot, "sim.chain.items", "impl"),
            "stages": dict(sorted(stages.items())),
        },
        "workload_items": _group_counters(snapshot, "sim.workload.items", "model"),
        "front_end": _group_counters(snapshot, "mpeg.front_end.items", "path"),
    }


def window_breakdown(snapshot: dict[str, Any]) -> dict[str, Any]:
    """Window-kernel accounting out of a metrics *snapshot*.

    Reads ``staircase.window_lengths{op, path}``: every window length the
    one-shot kernel (:func:`repro.util.staircase._window_extrema`)
    evaluated is counted once, as an ``anchor`` (a planned full pass,
    which may seed the pruning of the lengths after it), ``pruned`` (only
    the candidate starts were evaluated) or ``fallback`` (a full pass
    after the exactness check declined the candidates).  Returns the totals over all ops,
    ``lengths = anchor + pruned + fallback`` and the per-op split; all
    zeros when no one-shot extraction ran.

    ``stream`` reads ``staircase.stream_lengths{path}``: every (chunk,
    window length) the streaming fold
    (:func:`repro.util.staircase.streaming_envelope_minmax`) evaluated,
    as ``blocked`` (formed in a block of consecutive lengths), ``single``
    (folded alone) or ``repass`` (formed in a block, then folded alone
    after a zero extremum), with ``lengths`` their sum.
    """
    by_op: dict[str, dict[str, int | float]] = {}
    for entry in snapshot.get("counters", ()):
        if entry["name"] != "staircase.window_lengths":
            continue
        row = by_op.setdefault(str(entry["labels"].get("op")), {})
        path = str(entry["labels"].get("path"))
        row[path] = row.get(path, 0) + entry["value"]
    totals = {
        path: sum(row.get(path, 0) for row in by_op.values())
        for path in ("anchor", "pruned", "fallback")
    }
    stream_paths = _group_counters(snapshot, "staircase.stream_lengths", "path")
    stream = {path: stream_paths.get(path, 0) for path in ("blocked", "single", "repass")}
    return {
        "lengths": sum(totals.values()),
        **totals,
        "by_op": {op: dict(sorted(row.items())) for op, row in sorted(by_op.items())},
        "stream": {"lengths": sum(stream.values()), **stream},
    }


def profile_report(
    trace_records: Iterable[dict[str, Any]] | None = None,
    metrics_snapshot: dict[str, Any] | None = None,
    *,
    quantiles: tuple[float, ...] = DEFAULT_QUANTILES,
) -> dict[str, Any]:
    """Assemble the full profile document (schema ``repro.profile/1``).

    Either input may be omitted: a trace-only profile carries the span
    aggregation and collapsed stacks, a metrics-only profile the
    dispatch/cache/quantile sections.  The output is deterministic for
    deterministic inputs — every mapping is emitted key-sorted.
    """
    report: dict[str, Any] = {"schema": PROFILE_SCHEMA}
    if trace_records is not None:
        records = list(trace_records)
        report["trace"] = aggregate_spans(records)
        report["stacks"] = collapsed_stacks(records)
    if metrics_snapshot is not None:
        report["dispatch"] = dispatch_breakdown(metrics_snapshot)
        report["cache"] = cache_tiers(metrics_snapshot)
        report["service"] = service_breakdown(metrics_snapshot)
        report["simulation"] = simulation_breakdown(metrics_snapshot)
        report["window"] = window_breakdown(metrics_snapshot)
        report["quantiles"] = histogram_quantiles(
            metrics_snapshot, quantiles=quantiles
        )
    return report


def write_profile(report: dict[str, Any], path: str | os.PathLike) -> None:
    """Write a profile *report* as pretty-printed, key-sorted JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

def _prom_name(name: str) -> str:
    """A metric name sanitized to the Prometheus grammar
    (``[a-zA-Z_:][a-zA-Z0-9_:]*``); the registry's dotted names map
    dots to underscores."""
    out = []
    for i, ch in enumerate(name):
        if ch.isalnum() or ch in "_:":
            out.append(ch)
        else:
            out.append("_")
    if out and out[0].isdigit():
        out.insert(0, "_")
    return "".join(out) or "_"


def _prom_labels(labels: dict[str, Any], extra: dict[str, str] | None = None) -> str:
    pairs = {**{str(k): str(v) for k, v in labels.items()}, **(extra or {})}
    if not pairs:
        return ""
    rendered = ",".join(
        f'{_prom_name(k)}="{v.replace(chr(92), chr(92) * 2).replace(chr(34), chr(92) + chr(34))}"'
        for k, v in sorted(pairs.items())
    )
    return "{" + rendered + "}"


def _prom_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def prometheus_text(snapshot: dict[str, Any]) -> str:
    """Render a ``repro.metrics/1`` *snapshot* in the Prometheus text
    exposition format (version 0.0.4).

    Counters and gauges map directly; histograms become the conventional
    ``_bucket{le=...}`` cumulative series (with the implicit overflow
    bucket as ``le="+Inf"``) plus ``_sum`` and ``_count``.  Series order
    follows the snapshot, so the output is deterministic; the result is
    what a ``/metrics`` scrape endpoint would serve.
    """
    lines: list[str] = []
    typed: set[str] = set()

    def head(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for entry in snapshot.get("counters", ()):
        name = _prom_name(entry["name"]) + "_total"
        head(name, "counter")
        lines.append(
            f"{name}{_prom_labels(entry['labels'])} {_prom_value(entry['value'])}"
        )
    for entry in snapshot.get("gauges", ()):
        name = _prom_name(entry["name"])
        head(name, "gauge")
        lines.append(
            f"{name}{_prom_labels(entry['labels'])} {_prom_value(entry['value'])}"
        )
    for entry in snapshot.get("histograms", ()):
        name = _prom_name(entry["name"])
        head(name, "histogram")
        labels = entry["labels"]
        cum = 0
        for bound, count in zip(entry["buckets"], entry["counts"]):
            cum += count
            lines.append(
                f"{name}_bucket{_prom_labels(labels, {'le': repr(float(bound))})} {cum}"
            )
        cum += entry["counts"][-1]
        lines.append(f"{name}_bucket{_prom_labels(labels, {'le': '+Inf'})} {cum}")
        lines.append(f"{name}_sum{_prom_labels(labels)} {_prom_value(entry['sum'])}")
        lines.append(f"{name}_count{_prom_labels(labels)} {entry['count']}")
    return "\n".join(lines) + ("\n" if lines else "")
