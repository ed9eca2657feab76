#!/usr/bin/env python
"""Validate benchmark reports (``benchmarks/BENCH_*.json``).

Every gate that merges numbers into a ``BENCH_*.json`` report promises a
machine-readable shape: a non-empty JSON object whose values are section
objects, whose leaves are finite numbers, strings, or booleans.  CI runs
this after the benchmark gates so a half-written or NaN-poisoned report
fails loudly instead of silently shipping garbage headline numbers.

``BENCH_compact.json`` additionally carries the acceptance numbers for
the compaction PR, so its sections are checked key-by-key (chain speedup
present and >= 1, eval counts positive, relative gap finite).
``BENCH_minplus.json`` carries the backend-gate numbers: its backend
sections must name the backend that produced them and report a speedup
>= 1 over the reference kernel, and its ``window_pruning`` section must
report both window-kernel speedups at or above the gate's 1.5x, its
``streaming_fold`` section the blocked streaming fold's speedup over
the per-length fold at or above 2x, and its ``one_sided`` section the
one-sided envelope's speedup over the two-sided kernel at or above
1.3x.  ``BENCH_sim.json`` carries the
simulation-engine gates: the N-stage chain replay must cover at least a
million stage-events and beat the event-driven oracle by its gate
factor, the kernel's sorted bulk loader must beat per-event pushes, and
the clips' busy-period PE1 recursion must beat the per-item loop 3x.
``BENCH_runner.json``'s ``sweep_validation`` section must carry its
keys, and its same-seed sweep-validation points must run at least 2x
faster with the kernel memo than without it.  When a trajectory store
exists, every BENCH section naming a backend is additionally
cross-checked against the latest trajectory record's backend claims, so
a BENCH file regenerated under a different backend cannot silently
desynchronize from the history (see ``repro.obs.trajectory``).

Usage::

    python scripts/validate_bench.py [--bench-dir benchmarks]
                                     [--trajectory PATH]

Uses only the standard library.  Exits non-zero on the first violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

#: Required keys per section of BENCH_compact.json — the gates in
#: benchmarks/test_bench_compact.py write exactly these.
COMPACT_SECTIONS = {
    "budgeted_chain": {
        "stages",
        "segments_per_stage",
        "budget",
        "exact_segments",
        "budgeted_segments",
        "exact_seconds",
        "budgeted_seconds",
        "speedup",
    },
    "bisection_vs_dense": {
        "buffer_size",
        "bisect_evals",
        "dense_evals",
        "eval_ratio",
        "bisect_frequency",
        "dense_frequency",
        "rel_gap",
    },
}


#: Required keys per backend-gate section of BENCH_minplus.json — the
#: gates in benchmarks/test_bench_minplus.py write exactly these.
MINPLUS_BACKEND_SECTIONS = {
    "general_backend": {
        "backend",
        "segments",
        "generic_seconds",
        "backend_seconds",
        "speedup",
    },
    "batched_convolve_many": {
        "backend",
        "batch",
        "segments",
        "loop_seconds",
        "batch_seconds",
        "speedup",
    },
}


#: Required keys of the window-kernel section of BENCH_minplus.json
#: (``test_window_pruning_speedup_gate``) and the floor of its speedups.
WINDOW_PRUNING_KEYS = {
    "events",
    "lengths",
    "envelope_loop_seconds",
    "envelope_seconds",
    "envelope_speedup",
    "arrival_loop_seconds",
    "arrival_seconds",
    "arrival_speedup",
    "pruned_share",
}
WINDOW_PRUNING_FLOOR = 1.5


#: Required keys of the streaming-fold section of BENCH_minplus.json
#: (``test_streaming_fold_speedup_gate``) and the floor of its speedup.
STREAMING_FOLD_KEYS = {
    "payloads",
    "events",
    "lengths",
    "brute_ms_per_payload",
    "fold_ms_per_payload",
    "speedup",
    "blocked_share",
}
STREAMING_FOLD_FLOOR = 2.0


#: Required keys of the one-sided envelope section of BENCH_minplus.json
#: (``test_one_sided_envelope_gate``) and the floor of its speedup.
ONE_SIDED_KEYS = {
    "traces",
    "events",
    "lengths",
    "pair_seconds",
    "max_seconds",
    "speedup",
    "pair_pruned_share",
    "max_pruned_share",
}
ONE_SIDED_FLOOR = 1.3

#: The kernel-gate sections of BENCH_minplus.json: required keys, the
#: speedups each reports and their floor.
MINPLUS_GATE_SECTIONS = {
    "window_pruning": (
        WINDOW_PRUNING_KEYS, ("envelope_speedup", "arrival_speedup"), WINDOW_PRUNING_FLOOR
    ),
    "streaming_fold": (STREAMING_FOLD_KEYS, ("speedup",), STREAMING_FOLD_FLOOR),
    "one_sided": (ONE_SIDED_KEYS, ("speedup",), ONE_SIDED_FLOOR),
}


#: Required keys per gate section of BENCH_service.json — the gates in
#: benchmarks/test_bench_service.py write exactly these.  The speedup
#: floors mirror the in-test asserts so a hand-edited report cannot
#: understate a regression.
SERVICE_SECTIONS = {
    "warm_evaluator": {
        "cold_builds",
        "warm_queries",
        "cold_seconds_per_query",
        "warm_seconds_per_query",
        "speedup",
        "pool_hits",
        "pool_misses",
    },
    "sharded_cache": {
        "threads",
        "puts_per_thread",
        "payload_bytes",
        "shards",
        "flat_puts_per_second",
        "sharded_puts_per_second",
        "flat_evictions",
        "sharded_evictions",
        "speedup",
    },
    "admission_control": {
        "storm_requests",
        "storm_accepted",
        "storm_rejected",
        "required_capacity",
        "configured_capacity",
        "trickle_requests",
        "trickle_accepted",
    },
}

#: Speedup floors of the service gates (same numbers the tests assert).
SERVICE_SPEEDUP_FLOORS = {"warm_evaluator": 3.0, "sharded_cache": 2.0}


#: Required keys per gate section of BENCH_sim.json — the gates in
#: benchmarks/test_bench_sim.py write exactly these.
SIM_SECTIONS = {
    "chain_replay": {
        "stages",
        "items",
        "stage_events",
        "event_driven_seconds",
        "replay_seconds",
        "speedup",
        "max_backlogs",
    },
    "schedule_sorted": {
        "events",
        "per_event_seconds",
        "bulk_seconds",
        "speedup",
    },
    "front_end_recursion": {
        "clips",
        "frames",
        "items",
        "loop_items",
        "oracle_seconds",
        "kernel_seconds",
        "speedup",
    },
}

#: Speedup floors of the simulation gates (same numbers the tests assert).
SIM_SPEEDUP_FLOORS = {
    "chain_replay": 20.0,
    "schedule_sorted": 1.5,
    "front_end_recursion": 3.0,
}


#: Required keys of the sweep-validation section of BENCH_runner.json
#: (``test_sweep_validation_memo_speedup``) and the floor of its speedup.
SWEEP_VALIDATION_KEYS = {
    "points",
    "sim_items",
    "memo_on_ms_per_point",
    "memo_off_ms_per_point",
    "speedup",
    "trace_hits",
    "trace_misses",
}
SWEEP_VALIDATION_FLOOR = 2.0


def fail(message: str) -> None:
    sys.exit(f"validate_bench: {message}")


def _reject_constant(token: str) -> None:
    # json.loads would otherwise happily parse NaN/Infinity literals
    raise ValueError(f"non-finite constant {token!r}")


def _check_leaf(path: Path, where: str, value: object) -> None:
    if isinstance(value, bool) or isinstance(value, str):
        return
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            fail(f"{path}: {where}: non-finite number {value!r}")
        return
    if isinstance(value, list):
        for i, item in enumerate(value):
            _check_leaf(path, f"{where}[{i}]", item)
        return
    if isinstance(value, dict):
        for key, item in value.items():
            _check_leaf(path, f"{where}.{key}", item)
        return
    fail(f"{path}: {where}: unsupported leaf type {type(value).__name__}")


def validate_report(path: Path) -> int:
    try:
        report = json.loads(
            path.read_text(encoding="utf-8"), parse_constant=_reject_constant
        )
    except (json.JSONDecodeError, ValueError) as exc:
        fail(f"{path}: invalid JSON: {exc}")
    if not isinstance(report, dict) or not report:
        fail(f"{path}: report must be a non-empty JSON object")
    for section, payload in report.items():
        if not isinstance(payload, dict) or not payload:
            fail(f"{path}: section {section!r} must be a non-empty object")
        _check_leaf(path, section, payload)
    return len(report)


def validate_compact(path: Path) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    for section, required in COMPACT_SECTIONS.items():
        payload = report.get(section)
        if payload is None:
            fail(f"{path}: missing acceptance section {section!r}")
        missing = required - payload.keys()
        if missing:
            fail(f"{path}: {section}: missing keys {sorted(missing)}")
    chain = report["budgeted_chain"]
    if chain["speedup"] < 1.0:
        fail(f"{path}: budgeted chain slower than exact ({chain['speedup']:.2f}x)")
    if chain["budgeted_segments"] > chain["budget"]:
        fail(f"{path}: budgeted chain blew its segment budget")
    bis = report["bisection_vs_dense"]
    if bis["bisect_evals"] <= 0 or bis["dense_evals"] <= 0:
        fail(f"{path}: bisection_vs_dense: eval counts must be positive")
    if bis["rel_gap"] < 0.0:
        fail(f"{path}: bisection_vs_dense: negative relative gap")


def validate_minplus(path: Path) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    for section, required in MINPLUS_BACKEND_SECTIONS.items():
        payload = report.get(section)
        if payload is None:
            fail(f"{path}: missing backend-gate section {section!r}")
        missing = required - payload.keys()
        if missing:
            fail(f"{path}: {section}: missing keys {sorted(missing)}")
        if not isinstance(payload["backend"], str) or not payload["backend"]:
            fail(f"{path}: {section}: backend must name the kernel backend")
        if payload["speedup"] < 1.0:
            fail(
                f"{path}: {section}: backend slower than the reference "
                f"({payload['speedup']:.2f}x)"
            )
    for section, (required, speedups, floor) in MINPLUS_GATE_SECTIONS.items():
        payload = report.get(section)
        if payload is None:
            fail(f"{path}: missing gate section {section!r}")
        missing = required - payload.keys()
        if missing:
            fail(f"{path}: {section}: missing keys {sorted(missing)}")
        for key in speedups:
            if payload[key] < floor:
                fail(f"{path}: {section}: {key} {payload[key]:.2f}x below the {floor}x gate")


def validate_service(path: Path) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    for section, required in SERVICE_SECTIONS.items():
        payload = report.get(section)
        if payload is None:
            fail(f"{path}: missing service-gate section {section!r}")
        missing = required - payload.keys()
        if missing:
            fail(f"{path}: {section}: missing keys {sorted(missing)}")
    for section, floor in SERVICE_SPEEDUP_FLOORS.items():
        speedup = report[section]["speedup"]
        if speedup < floor:
            fail(
                f"{path}: {section}: speedup {speedup:.2f}x below the "
                f"{floor}x gate"
            )
    admission = report["admission_control"]
    if admission["storm_rejected"] <= 0:
        fail(f"{path}: admission_control: overload storm shed nothing")
    if admission["required_capacity"] <= admission["configured_capacity"]:
        fail(
            f"{path}: admission_control: storm did not exceed the "
            f"configured capacity — not an overload"
        )
    if admission["trickle_accepted"] != admission["trickle_requests"]:
        fail(f"{path}: admission_control: feasible trickle was shed")


def validate_sim(path: Path) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    for section, required in SIM_SECTIONS.items():
        payload = report.get(section)
        if payload is None:
            fail(f"{path}: missing simulation-gate section {section!r}")
        missing = required - payload.keys()
        if missing:
            fail(f"{path}: {section}: missing keys {sorted(missing)}")
    for section, floor in SIM_SPEEDUP_FLOORS.items():
        speedup = report[section]["speedup"]
        if speedup < floor:
            fail(
                f"{path}: {section}: speedup {speedup:.2f}x below the "
                f"{floor}x gate"
            )
    chain = report["chain_replay"]
    if chain["stage_events"] != chain["stages"] * chain["items"]:
        fail(f"{path}: chain_replay: inconsistent stage-event count")
    if chain["stage_events"] < 1_000_000:
        fail(
            f"{path}: chain_replay: gate must cover at least one million "
            f"stage-events (got {chain['stage_events']})"
        )


def validate_runner(path: Path) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    section = report.get("sweep_validation")
    if section is None:
        fail(f"{path}: missing gate section 'sweep_validation'")
    missing = SWEEP_VALIDATION_KEYS - section.keys()
    if missing:
        fail(f"{path}: sweep_validation: missing keys {sorted(missing)}")
    if section["speedup"] < SWEEP_VALIDATION_FLOOR:
        fail(
            f"{path}: sweep_validation: speedup {section['speedup']:.2f}x "
            f"below the {SWEEP_VALIDATION_FLOOR}x gate"
        )


def validate_trajectory_backends(bench_dir: Path, trajectory_path: Path) -> int:
    """Cross-check BENCH backends against the latest trajectory record.

    The trajectory record a benchmark session appends claims which
    backend produced each BENCH section (``benchmarks/conftest.py``); if
    a BENCH file was later regenerated under a different backend without
    appending a new record, the store's latest claim is stale and the
    history would attribute the numbers to the wrong kernel.  Returns the
    number of sections cross-checked (0 when no store exists yet).
    """
    if not trajectory_path.exists():
        return 0
    latest = None
    for lineno, line in enumerate(
        trajectory_path.read_text(encoding="utf-8").splitlines(), 1
    ):
        if not line.strip():
            continue
        try:
            latest = json.loads(line)
        except json.JSONDecodeError as exc:
            fail(f"{trajectory_path}:{lineno}: invalid JSON: {exc}")
    if latest is None:
        return 0
    recorded = latest.get("backends", {})
    checked = 0
    for path in sorted(bench_dir.glob("BENCH_*.json")):
        name = path.name[len("BENCH_") : -len(".json")]
        report = json.loads(path.read_text(encoding="utf-8"))
        for section, payload in report.items():
            if not isinstance(payload, dict):
                continue
            backend = payload.get("backend")
            if not isinstance(backend, str):
                continue
            claimed = recorded.get(f"{name}.{section}")
            if claimed is None:
                fail(
                    f"{path}: section {section!r} names backend "
                    f"{backend!r} but the latest trajectory record has no "
                    f"backend entry for it — rerun the benchmark session "
                    f"so the store catches up"
                )
            if claimed != backend:
                fail(
                    f"{path}: section {section!r} was produced by backend "
                    f"{backend!r} but the latest trajectory record claims "
                    f"{claimed!r}"
                )
            checked += 1
    return checked


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--bench-dir",
        type=Path,
        default=Path("benchmarks"),
        help="directory holding BENCH_*.json reports (default: benchmarks)",
    )
    parser.add_argument(
        "--trajectory",
        type=Path,
        default=None,
        help="trajectory store to cross-check backend names against "
        "(default: <bench-dir>/TRAJECTORY.jsonl when present)",
    )
    args = parser.parse_args(argv)

    reports = sorted(args.bench_dir.glob("BENCH_*.json"))
    if not reports:
        fail(f"{args.bench_dir}: no BENCH_*.json reports found")
    for path in reports:
        sections = validate_report(path)
        if path.name == "BENCH_compact.json":
            validate_compact(path)
        if path.name == "BENCH_minplus.json":
            validate_minplus(path)
        if path.name == "BENCH_service.json":
            validate_service(path)
        if path.name == "BENCH_sim.json":
            validate_sim(path)
        if path.name == "BENCH_runner.json":
            validate_runner(path)
        print(f"{path}: {sections} sections ok")
    trajectory_path = args.trajectory or args.bench_dir / "TRAJECTORY.jsonl"
    checked = validate_trajectory_backends(args.bench_dir, trajectory_path)
    if checked:
        print(
            f"{trajectory_path}: {checked} backend claims match the BENCH files"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
