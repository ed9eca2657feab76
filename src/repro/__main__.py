"""Command-line entry point: regenerate paper experiments.

Usage::

    python -m repro                 # run the light experiments (E1-E3)
    python -m repro all             # run everything (case study: ~1 min)
    python -m repro E5 E6           # run specific experiments
    python -m repro --list          # show available experiment ids
    python -m repro all --frames 24 # faster, lower-fidelity case study

Parallelism and caching (see ``docs/performance.md``)::

    python -m repro all --cache-dir .repro-cache  # persistent kernel cache
    python -m repro sweep --buffers 810,1620,3240 --parallel 4
                                                  # frequency/backlog sweep
    python -m repro E5 --max-segments 64 --bisect # budgeted + bisection

Analysis as a service (see ``docs/service.md``)::

    python -m repro serve --socket /tmp/repro.sock --capacity 4000
                                                  # start the job daemon
    python -m repro sweep --service /tmp/repro.sock --buffers 810,1620
                                                  # sweep through the daemon

Observability (see ``docs/observability.md``)::

    python -m repro E1 --trace trace.jsonl        # span timeline (JSONL)
    python -m repro E1 --trace t.json --trace-format chrome   # Perfetto
    python -m repro E1 --metrics-out metrics.json # counters/gauges/histograms
    python -m repro E1 --out-dir out/             # E1.txt + E1.manifest.json

Profiling collected runs (the ``obs`` subcommand family)::

    python -m repro obs report --trace t.jsonl --metrics m.json
                                                  # hottest kernels, dispatch
                                                  # regimes, cache health
    python -m repro obs diff runA.json runB.json  # metric deltas (A/B)
    python -m repro obs flame t.jsonl -o out.folded   # collapsed stacks
"""

from __future__ import annotations

import argparse
import atexit
import inspect
import json
import sys
import time
from pathlib import Path

from repro import obs
from repro.experiments import ALL_EXPERIMENTS
from repro.obs.metrics import registry
from repro.obs.tracing import tracer
from repro.util.validation import ValidationError

#: Experiments that run in well under a second (the no-argument default).
LIGHT = ("E1", "E2", "E3")


def _accepts(run, name: str) -> bool:
    """True if *run* takes keyword *name* (harness wrappers are
    transparent to :func:`inspect.signature`)."""
    return name in inspect.signature(run).parameters


def _add_compact_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared curve-compaction / bisection options."""
    parser.add_argument(
        "--max-segments",
        type=int,
        default=None,
        metavar="N",
        help="conservatively compact analysis curves to at most N segments "
        "(bounds stay valid, only pessimism grows; see docs/performance.md)",
    )
    parser.add_argument(
        "--compact-error",
        type=float,
        default=None,
        metavar="E",
        help="cap the absolute error the compaction may introduce (can be "
        "combined with --max-segments; the error cap always wins)",
    )
    parser.add_argument(
        "--bisect",
        action="store_true",
        help="compute F_gamma_min by monotone feasibility bisection "
        "(eq. (8)) instead of the closed-form eq. (9) scan",
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the shared observability options (trace/metrics/out-dir)."""
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="enable tracing and write the span timeline to PATH",
    )
    parser.add_argument(
        "--trace-format",
        choices=("jsonl", "chrome"),
        default="jsonl",
        help="trace file format: 'jsonl' (one span per line) or 'chrome' "
        "(trace_event JSON for Perfetto / about:tracing)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write a metrics snapshot (counters/gauges/histograms) to PATH",
    )
    parser.add_argument(
        "--out-dir",
        metavar="DIR",
        default=None,
        help="write each experiment's text report and run manifest into DIR",
    )


def _add_cache_dir_argument(parser: argparse.ArgumentParser) -> None:
    """Attach the persistent kernel cache option."""
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="attach the persistent kernel cache at PATH (shared by all "
        "workers and reused by future runs)",
    )


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the sweep's parallel-runner options."""
    parser.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="fan the work out over N worker processes (default: 1, serial)",
    )
    _add_cache_dir_argument(parser)
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="base seed for deterministic per-task reseeding of the global "
        "RNGs in every worker (default: no reseeding)",
    )


def _export_obs(args: argparse.Namespace) -> None:
    """Write the trace and metrics files requested on the command line."""
    if args.trace:
        if args.trace_format == "chrome":
            tracer.export_chrome(args.trace)
        else:
            tracer.export_jsonl(args.trace)
        tracer.disable()
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(registry.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _arm_atexit_export(args: argparse.Namespace) -> None:
    """Best-effort trace export on abnormal exit while ``--trace`` is on.

    The normal path (:func:`_export_obs`) disables the tracer right after
    writing, so the handler fires only when the process dies before
    reaching it (unhandled exception, ``sys.exit`` from a harness, ...) —
    the partial trace lands at the requested path, open spans marked
    ``unfinished``, instead of vanishing with the process."""

    def _flush() -> None:
        if not tracer.enabled:
            return
        try:
            _export_obs(args)
        except Exception:  # noqa: BLE001 - never mask the real exit reason
            pass

    atexit.register(_flush)


def main(argv: list[str] | None = None) -> int:
    """CLI dispatch: ``sweep``/``obs``/``serve`` subcommands or the
    experiment runner."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "sweep":
        return _sweep_main(argv[1:])
    if argv and argv[0] == "obs":
        return _obs_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.service.server import main as serve_main

        return serve_main(argv[1:])
    return _experiments_main(argv)


def _experiments_main(argv: list[str]) -> int:
    """Run the requested experiments one after another."""
    ids = ", ".join(ALL_EXPERIMENTS)
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the figures/tables of Maxiaguine et al., DATE 2004. "
        "The 'sweep' subcommand (python -m repro sweep --help) fans a "
        "frequency/backlog grid out across workers.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help=f"experiment ids ({ids}), 'all', or empty for the light set "
        f"({', '.join(LIGHT)})",
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument(
        "--frames",
        type=int,
        default=None,
        help="frames per clip for experiments that take a frames parameter "
        "(default: each experiment's own default, typically 72)",
    )
    _add_compact_arguments(parser)
    _add_cache_dir_argument(parser)
    _add_obs_arguments(parser)
    args = parser.parse_args(argv)

    if args.list:
        for exp_id in ALL_EXPERIMENTS:
            print(exp_id)
        return 0

    requested = args.experiments or list(LIGHT)
    if any(e.lower() == "all" for e in requested):
        requested = list(ALL_EXPERIMENTS)
    unknown = [e for e in requested if e not in ALL_EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment ids: {', '.join(unknown)} (known: {ids})")

    if args.trace:
        tracer.enable()
        tracer.reset()
        _arm_atexit_export(args)

    def kwargs_for(exp_id: str) -> dict:
        run = ALL_EXPERIMENTS[exp_id]
        kwargs: dict = {}
        if args.frames is not None and _accepts(run, "frames"):
            kwargs["frames"] = args.frames
        if args.max_segments is not None and _accepts(run, "max_segments"):
            kwargs["max_segments"] = args.max_segments
        if args.compact_error is not None and _accepts(run, "compact_error"):
            kwargs["compact_error"] = args.compact_error
        if args.bisect and _accepts(run, "bisect"):
            kwargs["bisect"] = True
        return kwargs

    failures: list[str] = []
    with tracer.span("cli", experiments=",".join(requested)):
        if args.cache_dir:
            from repro.perf.cache import attach_disk_cache

            attach_disk_cache(args.cache_dir)
        results = []
        for exp_id in requested:
            try:
                results.append(ALL_EXPERIMENTS[exp_id](**kwargs_for(exp_id)))
            except ValidationError as exc:  # bad input: report it, run the rest
                failures.append(f"{exp_id}: {exc}")

        for result in results:
            print(result)
            print()
            if args.out_dir:
                result.write(args.out_dir)

    _export_obs(args)
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _sweep_main(argv: list[str]) -> int:
    """The ``sweep`` subcommand: fan a frequency/backlog grid out."""
    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Sweep the paper's frequency/backlog design space "
        "(eqs. (7), (9), (10)) over a FIFO-size grid, fanned out across "
        "worker processes.",
    )
    parser.add_argument(
        "--buffers",
        default="810,1620,3240",
        metavar="B1,B2,...",
        help="comma-separated FIFO sizes in macroblocks (default: "
        "810,1620,3240 — half/one/two frames)",
    )
    parser.add_argument(
        "--frames",
        type=int,
        default=72,
        help="frames per clip for the case-study context (default: 72)",
    )
    parser.add_argument(
        "--dense-limit",
        type=int,
        default=4096,
        help="dense k-grid limit of the curve extraction (fidelity knob)",
    )
    parser.add_argument(
        "--growth",
        type=float,
        default=1.015,
        help="k-grid geometric growth factor (fidelity knob)",
    )
    parser.add_argument(
        "--stream-chunk",
        type=int,
        default=None,
        metavar="N",
        help="extract workload curves from the clip traces in chunks of N "
        "events (bounded-memory streaming fold; identical results)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-point timeout in seconds (enforced inside the worker)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="resubmissions of failed/timed-out points (default: 0)",
    )
    parser.add_argument(
        "--service",
        metavar="SOCKET",
        default=None,
        help="submit the sweep points to a running analysis daemon at "
        "SOCKET (python -m repro serve) instead of a local worker pool; "
        "--parallel/--cache-dir/--seed are then the daemon's concern",
    )
    parser.add_argument(
        "--sim-validate",
        action="store_true",
        help="cross-check each point against the simulation engine: "
        "generate a seeded open-system trace calibrated to the case "
        "study's rates, compute the eq. (7) bound from that trace's own "
        "curves at F_gamma, and replay the same trace through the "
        "vectorized chain — the bound/observed gap lands in the point "
        "data and manifest",
    )
    parser.add_argument(
        "--sim-items",
        type=int,
        default=4096,
        metavar="N",
        help="items per generated validation trace (default: 4096)",
    )
    _add_compact_arguments(parser)
    _add_runner_arguments(parser)
    _add_obs_arguments(parser)
    args = parser.parse_args(argv)

    try:
        buffers = [int(b) for b in args.buffers.split(",") if b.strip()]
    except ValueError:
        parser.error(f"--buffers must be comma-separated integers: {args.buffers!r}")
    if not buffers:
        parser.error("--buffers must name at least one FIFO size")
    if args.parallel < 1:
        parser.error("--parallel must be >= 1")

    if args.trace:
        tracer.enable()
        tracer.reset()
        _arm_atexit_export(args)

    from repro.experiments.common import sweep_frequency_evaluator
    from repro.runner import sweep
    from repro.runner.tasks import frequency_backlog_point
    from repro.util.report import TextTable

    t0 = time.perf_counter()
    if args.service:
        with tracer.span("cli", command="sweep-service", points=len(buffers)):
            outcomes = _sweep_via_service(args, buffers)
    else:
        context = {
            "frames": args.frames,
            "dense_limit": args.dense_limit,
            "growth": args.growth,
            "stream_chunk": args.stream_chunk,
            "max_segments": args.max_segments,
            "compact_error": args.compact_error,
        }
        with tracer.span("cli", command="sweep", points=len(buffers)):
            if args.cache_dir:
                from repro.perf.cache import attach_disk_cache

                attach_disk_cache(args.cache_dir)
            # build the context and the evaluator once, here: the workers
            # sweep() forks inherit them instead of each building its own
            try:
                sweep_frequency_evaluator(**context)
            except ValidationError:
                pass  # every point fails on the same input and reports it
            swept = sweep(
                frequency_backlog_point,
                {"buffer_size": buffers},
                fixed={
                    **context,
                    "bisect": args.bisect,
                    "sim_validate": args.sim_validate,
                    "sim_items": args.sim_items,
                    "sim_seed": args.seed or 0,
                },
                max_workers=args.parallel,
                cache_dir=args.cache_dir,
                seed=args.seed,
                timeout_s=args.timeout,
                retries=args.retries,
            )
        outcomes = [
            (
                point["buffer_size"],
                task.ok,
                None if task.ok else str(task.error),
                task.value if task.ok else None,
            )
            for point, task in zip(swept.points, swept.results)
        ]
    wall = time.perf_counter() - t0

    failures = []
    columns = ["b (MB)", "F_gamma (MHz)", "F_wcet (MHz)", "savings", "backlog (events)"]
    if args.sim_validate:
        columns.append("sim bound/observed")
    table = TextTable(
        columns,
        title=f"Frequency/backlog sweep, frames={args.frames}, "
        + (f"service={args.service}" if args.service else f"workers={args.parallel}"),
    )
    results = []
    for buffer_size, ok, error, result in outcomes:
        if not ok:
            failures.append(f"b={buffer_size}: {error}")
            continue
        results.append(result)
        data = result.data
        row = [
            str(data["buffer_size"]),
            f"{data['f_gamma_hz'] / 1e6:.1f}",
            f"{data['f_wcet_hz'] / 1e6:.1f}",
            f"{data['savings'] * 100:.1f}%",
            f"{data['backlog_events']:.1f}",
        ]
        if args.sim_validate:
            bound = data.get("sim_bound_events")
            row.append(
                ("unbounded" if bound is None else f"{bound:.1f}")
                + f"/{data.get('sim_observed_backlog', '-')}"
            )
        table.add_row(row)
    print(table.render())
    print(f"\n{len(results)}/{len(buffers)} points in {wall:.2f}s")

    if args.out_dir:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for result in results:
            result.write(out_dir)
        combined = obs.combine_manifests(
            [r.manifest for r in results if r.manifest is not None],
            experiment_id="SWEEP",
            title="Frequency/backlog sweep",
            parameters={
                "buffers": buffers,
                "frames": args.frames,
                "dense_limit": args.dense_limit,
                "growth": args.growth,
                "stream_chunk": args.stream_chunk,
                "max_segments": args.max_segments,
                "compact_error": args.compact_error,
                "bisect": args.bisect,
                "parallel": args.parallel,
                "seed": args.seed,
                "sim_validate": args.sim_validate,
                "sim_items": args.sim_items,
            },
            wall_time_s=wall,
            metrics=registry.snapshot(),
        )
        obs.write_manifest(combined, out_dir / "SWEEP.manifest.json")

    _export_obs(args)
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _sweep_via_service(args: argparse.Namespace, buffers: list[int]) -> list:
    """Run the sweep through a live analysis daemon.

    Submits every point first (so the daemon pipelines them across its
    workers), then collects results in order.  Returns
    ``(buffer_size, ok, error, ExperimentResult | None)`` tuples — the
    same outcome shape the local worker-pool path produces, so the
    reporting below is oblivious to how the points were computed.
    """
    from repro.experiments.common import ExperimentResult
    from repro.service.client import ServiceClient, ServiceError

    base = {
        "frames": args.frames,
        "dense_limit": args.dense_limit,
        "growth": args.growth,
        "stream_chunk": args.stream_chunk,
        "max_segments": args.max_segments,
        "compact_error": args.compact_error,
        "bisect": args.bisect,
        "sim_validate": args.sim_validate,
        "sim_items": args.sim_items,
        "sim_seed": args.seed or 0,
    }
    outcomes: list = []
    with ServiceClient(args.service) as client:
        submitted: list[tuple[int, dict]] = []
        for buffer_size in buffers:
            try:
                job = client.submit(
                    "frequency", {"buffer_size": buffer_size, **base}
                )
            except ServiceError as exc:
                outcomes.append(
                    (buffer_size, False, f"{exc.error_type}: {exc}", None)
                )
                continue
            submitted.append((buffer_size, job))
        for buffer_size, job in submitted:
            if job["state"] in ("rejected", "shed"):
                outcomes.append(
                    (buffer_size, False, f"admission {job['state']}", None)
                )
                continue
            try:
                done = client.result(job["id"], timeout=args.timeout)
            except ServiceError as exc:
                outcomes.append(
                    (buffer_size, False, f"{exc.error_type}: {exc}", None)
                )
                continue
            if done["state"] != "done":
                outcomes.append(
                    (buffer_size, False, f"{done['state']}: {done.get('error')}", None)
                )
                continue
            payload = done["result"]
            outcomes.append(
                (
                    buffer_size,
                    True,
                    None,
                    ExperimentResult(
                        experiment_id=payload["experiment_id"],
                        title=payload["title"],
                        paper_reference=payload["paper_reference"],
                        report=payload["report"],
                        data=payload["data"],
                        manifest=payload["manifest"],
                    ),
                )
            )
    return outcomes


def _load_json(path: str, parser: argparse.ArgumentParser) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read {path}: {exc}")


def _flatten_for_diff(doc: dict) -> dict[str, float]:
    """Flatten any obs artifact into ``{metric key: numeric value}``.

    Understands metrics snapshots (``repro.metrics/1`` — counters and
    gauges keyed ``name{k=v,...}``, histograms as ``.count``/``.mean``),
    run manifests (``repro.run-manifest/1`` — ``wall_time_s`` plus the
    embedded snapshot), trajectory records (``repro.trajectory/1`` — the
    ``metrics`` mapping as-is), and plain BENCH-style section documents.
    """
    from repro.obs.trajectory import flatten_bench

    def series_key(entry: dict) -> str:
        labels = ",".join(f"{k}={v}" for k, v in sorted(entry["labels"].items()))
        return entry["name"] + ("{" + labels + "}" if labels else "")

    def from_snapshot(snap: dict) -> dict[str, float]:
        out: dict[str, float] = {}
        for entry in snap.get("counters", []) + snap.get("gauges", []):
            out[series_key(entry)] = float(entry["value"])
        for entry in snap.get("histograms", []):
            key = series_key(entry)
            out[key + ".count"] = float(entry["count"])
            if entry["count"]:
                out[key + ".mean"] = entry["sum"] / entry["count"]
        return out

    schema = doc.get("schema", "")
    if schema == obs.METRICS_SCHEMA:
        return from_snapshot(doc)
    if schema == obs.MANIFEST_SCHEMA:
        out = {}
        if doc.get("wall_time_s") is not None:
            out["wall_time_s"] = float(doc["wall_time_s"])
        if isinstance(doc.get("metrics"), dict):
            out.update(from_snapshot(doc["metrics"]))
        return out
    if schema == obs.TRAJECTORY_SCHEMA:
        return {k: float(v) for k, v in doc.get("metrics", {}).items()}
    metrics, _ = flatten_bench("bench", doc)
    return metrics


def _fmt(value: float) -> str:
    return f"{value:g}" if value == int(value) else f"{value:.6g}"


def _obs_report(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.util.report import TextTable

    trace_records = obs.read_trace_jsonl(args.trace) if args.trace else None
    snapshot = _load_json(args.metrics, parser) if args.metrics else None
    if trace_records is None and snapshot is None:
        parser.error("obs report needs --trace and/or --metrics")
    if snapshot is not None and snapshot.get("schema") != obs.METRICS_SCHEMA:
        parser.error(
            f"{args.metrics}: not a {obs.METRICS_SCHEMA} snapshot "
            f"(schema: {snapshot.get('schema')!r})"
        )
    report = obs.profile_report(trace_records, snapshot)
    if args.json:
        obs.write_profile(report, args.json)
        print(f"profile report written to {args.json}")
    if args.prometheus:
        if snapshot is None:
            parser.error("--prometheus needs --metrics")
        with open(args.prometheus, "w", encoding="utf-8") as fh:
            fh.write(obs.prometheus_text(snapshot))
        print(f"prometheus exposition written to {args.prometheus}")

    if trace_records is not None:
        agg = report["trace"]
        table = TextTable(
            ["span", "calls", "self (s)", "total (s)", "max (s)"],
            title=f"Hottest spans by self time "
            f"({agg['span_count']} spans, {agg['total_self_s']:.3f}s self total)",
        )
        hottest = sorted(
            agg["spans"].items(), key=lambda kv: kv[1]["self_s"], reverse=True
        )
        for name, row in hottest[: args.top]:
            flag = f" ({row['unfinished']} unfinished)" if row["unfinished"] else ""
            table.add_row(
                [
                    name + flag,
                    str(row["calls"]),
                    f"{row['self_s']:.4f}",
                    f"{row['total_s']:.4f}",
                    f"{row['max_s']:.4f}",
                ]
            )
        print(table.render())
        for title, group in (("backend", agg["backends"]), ("shape", agg["shapes"])):
            if not group:
                continue
            sub = TextTable(
                [title, "calls", "self (s)"], title=f"Self time by {title}"
            )
            for key, row in sorted(
                group.items(), key=lambda kv: kv[1]["self_s"], reverse=True
            ):
                sub.add_row([key, str(row["calls"]), f"{row['self_s']:.4f}"])
            print()
            print(sub.render())

    if snapshot is not None:
        dispatch = report["dispatch"]
        if trace_records is not None:
            print()
        table = TextTable(
            ["op", "regime", "dispatches"], title="Kernel dispatch regimes"
        )
        total_dispatches = 0
        for op, regimes in dispatch["regimes"].items():
            for regime, count in regimes.items():
                total_dispatches += count
                table.add_row([op, regime, str(count)])
        print(table.render())
        cache = report["cache"]
        print()
        table = TextTable(["tier", "count"], title="Cache tiers")
        for tier in ("memory", "disk", "miss"):
            table.add_row([tier, str(cache[tier])])
        print(table.render())
        tiers_total = cache["memory"] + cache["disk"] + cache["miss"]
        print(
            f"lookups={cache['lookups']} hit_ratio={cache['hit_ratio']:.1%} "
            f"bypasses={cache['bypasses']}"
        )
        if cache["per_op"]:
            print()
            table = TextTable(
                ["op", "hits", "misses", "bypasses"], title="Cache traffic per op"
            )
            for op, row in cache["per_op"].items():
                table.add_row(
                    [op] + [_fmt(float(row[f])) for f in ("hits", "misses", "bypasses")]
                )
            print(table.render())
        memo = dispatch["memo"]
        dispatch_ok = (
            total_dispatches == memo["misses"] - cache["disk"] + memo["bypasses"]
        )
        print(
            f"consistency: memory+disk+miss = {tiers_total} "
            f"{'==' if cache['consistent'] else '!='} {cache['lookups']} lookups; "
            f"minplus dispatches = {total_dispatches} "
            f"{'==' if dispatch_ok else '!='} "
            f"{memo['misses']} minplus memo misses"
            + (f" - {cache['disk']} disk promotions" if cache["disk"] else "")
            + (f" + {memo['bypasses']} bypasses" if memo["bypasses"] else "")
        )
        window = report["window"]
        if window["lengths"]:
            print(
                f"window lengths {_fmt(float(window['lengths']))}: "
                f"anchors {_fmt(float(window['anchor']))}, "
                f"pruned {_fmt(float(window['pruned']))}, "
                f"fallbacks {_fmt(float(window['fallback']))} "
                f"({window['pruned'] / window['lengths']:.1%} pruned)"
            )
            for op, row in window["by_op"].items():
                paths = [float(row.get(path, 0)) for path in ("anchor", "pruned", "fallback")]
                if sum(paths):
                    print(
                        f"  {op} {_fmt(sum(paths))}: anchors {_fmt(paths[0])}, "
                        f"pruned {_fmt(paths[1])}, fallbacks {_fmt(paths[2])}"
                    )
        stream = {path: int(count) for path, count in window["stream"].items()}
        if stream["lengths"]:
            print(
                f"stream fold lengths {stream['lengths']}: "
                f"blocked {stream['blocked']}, single {stream['single']}, "
                f"re-passes {stream['repass']} "
                f"({stream['blocked'] / stream['lengths']:.1%} blocked)"
            )
        service = report["service"]
        if service["submitted"] or service["evalpool"]["misses"]:
            print()
            table = TextTable(
                ["service", "count"], title="Analysis service (admission/outcomes)"
            )
            table.add_row(["submitted", _fmt(float(service["submitted"]))])
            table.add_row(["accepted", _fmt(float(service["accepted"]))])
            for reason, count in service["rejected"].items():
                table.add_row([f"rejected[{reason}]", _fmt(float(count))])
            for state, count in service["completed"].items():
                table.add_row([f"completed[{state}]", _fmt(float(count))])
            if service["retries"]:
                table.add_row(["retries", _fmt(float(service["retries"]))])
            print(table.render())
            admission = service["admission"]
            if admission["capacity"] is not None:
                required = admission["required"]
                print(
                    "admission: required "
                    + ("-" if required is None else f"{required:.1f}")
                    + f" vs capacity {admission['capacity']:.1f} units/s"
                )
            pool = service["evalpool"]
            if pool["hits"] or pool["misses"]:
                print(
                    f"evalpool: {_fmt(float(pool['hits']))} hits, "
                    f"{_fmt(float(pool['misses']))} misses, "
                    f"{_fmt(float(pool['evictions']))} evictions"
                )
        sim = report["simulation"]
        if sim["chain"]["runs"] or sim["workload_items"] or sim["front_end"]:
            print()
            table = TextTable(
                ["simulation", "count"], title="Simulation engine (sim.* family)"
            )
            for impl, count in sim["chain"]["runs"].items():
                table.add_row([f"chain runs[{impl}]", _fmt(float(count))])
            for impl, count in sim["chain"]["item_stages"].items():
                table.add_row([f"chain item-stages[{impl}]", _fmt(float(count))])
            for model, count in sim["workload_items"].items():
                table.add_row([f"workload items[{model}]", _fmt(float(count))])
            if table.rows:
                print(table.render())
            items = int(sum(sim["front_end"].values()))
            if items:
                loop = int(sim["front_end"].get("loop", 0))
                print(
                    f"front-end recursion items {items}: vectorized "
                    f"{items - loop}, loop {loop} ({loop / items:.1%} loop)"
                )
            if sim["chain"]["stages"]:
                sub = TextTable(
                    ["stage", "high water", "overflows", "busy (s)"],
                    title="Chain stages",
                )
                for stage, row in sim["chain"]["stages"].items():
                    sub.add_row(
                        [
                            stage,
                            _fmt(float(row.get("high_water", 0))),
                            _fmt(float(row.get("overflows", 0))),
                            f"{float(row.get('busy_seconds', 0.0)):.4f}",
                        ]
                    )
                print()
                print(sub.render())
        if report["quantiles"]:
            print()
            table = TextTable(
                ["histogram", "count", "mean", "p50", "p95", "p99"],
                title="Histogram quantiles (bucket-interpolated)",
            )
            for entry in report["quantiles"]:
                labels = ",".join(
                    f"{k}={v}" for k, v in entry["labels"].items()
                )
                name = entry["name"] + ("{" + labels + "}" if labels else "")
                qs = entry["quantiles"]
                table.add_row(
                    [
                        name,
                        str(entry["count"]),
                        _fmt(entry["mean"]),
                        _fmt(qs["p50"]),
                        _fmt(qs["p95"]),
                        _fmt(qs["p99"]),
                    ]
                )
            print(table.render())
    return 0


def _obs_diff(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    from repro.util.report import TextTable

    a = _flatten_for_diff(_load_json(args.run_a, parser))
    b = _flatten_for_diff(_load_json(args.run_b, parser))
    keys = sorted(set(a) | set(b))
    table = TextTable(
        ["metric", "A", "B", "delta", "ratio"],
        title=f"obs diff: A={args.run_a}  B={args.run_b}",
    )
    shown = 0
    for key in keys:
        va, vb = a.get(key), b.get(key)
        if va is None or vb is None:
            if args.all:
                table.add_row(
                    [
                        key,
                        "-" if va is None else _fmt(va),
                        "-" if vb is None else _fmt(vb),
                        "-",
                        "-",
                    ]
                )
                shown += 1
            continue
        delta = vb - va
        if not args.all and delta == 0:
            continue
        ratio = f"{vb / va:.3f}x" if va else "-"
        table.add_row([key, _fmt(va), _fmt(vb), f"{delta:+g}", ratio])
        shown += 1
    print(table.render())
    if not shown:
        print("(no differing metrics)")
    return 0


def _obs_flame(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    records = obs.read_trace_jsonl(args.trace)
    if args.out:
        count = obs.write_collapsed(records, args.out)
        print(f"{count} stacks written to {args.out}")
    else:
        for stack, micros in obs.collapsed_stacks(records).items():
            print(f"{stack} {micros}")
    return 0


def _obs_main(argv: list[str]) -> int:
    """The ``obs`` subcommand family: profile collected runs."""
    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description="Profile collected traces and metrics: aggregate "
        "reports, A/B diffs, and flamegraph-compatible collapsed stacks "
        "(see docs/observability.md).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = sub.add_parser(
        "report",
        help="hottest kernels, dispatch regimes, window pruning, cache tiers, quantiles",
    )
    report.add_argument(
        "--trace", metavar="PATH", default=None, help="span trace (JSONL)"
    )
    report.add_argument(
        "--metrics", metavar="PATH", default=None, help="metrics snapshot (JSON)"
    )
    report.add_argument(
        "--top", type=int, default=15, help="span rows to show (default: 15)"
    )
    report.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the full repro.profile/1 report to PATH",
    )
    report.add_argument(
        "--prometheus", metavar="PATH", default=None,
        help="also write the metrics in Prometheus text format to PATH",
    )

    diff = sub.add_parser(
        "diff", help="metric deltas between two runs (snapshots, manifests, "
        "trajectory records, or BENCH files)"
    )
    diff.add_argument("run_a", help="baseline artifact (JSON)")
    diff.add_argument("run_b", help="comparison artifact (JSON)")
    diff.add_argument(
        "--all", action="store_true",
        help="show unchanged and one-sided metrics too",
    )

    flame = sub.add_parser(
        "flame", help="collapsed stacks (flamegraph.pl / speedscope input)"
    )
    flame.add_argument("trace", help="span trace (JSONL)")
    flame.add_argument(
        "-o", "--out", metavar="PATH", default=None,
        help="write to PATH instead of stdout",
    )

    args = parser.parse_args(argv)
    if args.command == "report":
        return _obs_report(args, parser)
    if args.command == "diff":
        return _obs_diff(args, parser)
    return _obs_flame(args, parser)


if __name__ == "__main__":
    sys.exit(main())
