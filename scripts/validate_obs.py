#!/usr/bin/env python
"""Validate observability artifacts emitted by ``python -m repro``.

Checks a trace JSONL file, a metrics snapshot, run manifests, a
``repro.profile/1`` report (``obs report --json``), and the trajectory
store (``benchmarks/TRAJECTORY.jsonl``) against the ``repro.obs``
schemas, using only the standard library so CI can run it without the
package installed.

Usage::

    python scripts/validate_obs.py --trace trace.jsonl \
        --metrics metrics.json --manifest-dir obs-out \
        --profile profile.json --trajectory benchmarks/TRAJECTORY.jsonl

Exits non-zero with a message on the first violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

TRACE_KEYS = {"name", "ts", "dur", "id", "parent", "thread", "attrs"}
METRIC_SECTIONS = ("counters", "gauges", "histograms")
#: Child spans a traced span must attribute its time to, by span name:
#: every span of that name needs each of these among its descendants.
#: The case-study build has its phases; A2 and A6 run one task span per
#: clip under their own fan-out.
REQUIRED_DESCENDANTS = {
    "case_study.build": (
        "case_study.clip",
        "case_study.generate",
        "case_study.workload",
        "case_study.arrival",
        "case_study.envelopes",
        "case_study.alpha_max",
    ),
    "experiment:A2": ("runner.run_many", "A2.clip"),
    "experiment:A6": ("runner.run_many", "A6.clip"),
}
MANIFEST_KEYS = {
    "schema",
    "experiment_id",
    "title",
    "paper_reference",
    "parameters",
    "inputs",
    "seed",
    "version",
    "wall_time_s",
    "metrics",
    "data_digest",
}


def fail(message: str) -> None:
    sys.exit(f"validate_obs: {message}")


def validate_trace(path: Path) -> int:
    ids = set()
    count = 0
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            fail(f"{path}:{lineno}: invalid JSON: {exc}")
        missing = TRACE_KEYS - record.keys()
        if missing:
            fail(f"{path}:{lineno}: span missing keys {sorted(missing)}")
        if not isinstance(record["name"], str) or not record["name"]:
            fail(f"{path}:{lineno}: span name must be a non-empty string")
        if record["dur"] < 0 or record["ts"] < 0:
            fail(f"{path}:{lineno}: negative timestamp/duration")
        if not isinstance(record["attrs"], dict):
            fail(f"{path}:{lineno}: attrs must be an object")
        if "unfinished" in record and record["unfinished"] is not True:
            fail(f"{path}:{lineno}: unfinished marker must be true when present")
        ids.add(record["id"])
        count += 1
    if count == 0:
        fail(f"{path}: no spans recorded")
    # every non-null parent must reference a recorded span
    names: dict[object, str] = {}
    children: dict[object, list[object]] = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        record = json.loads(line)
        parent = record["parent"]
        if parent is not None and parent not in ids:
            fail(f"{path}:{lineno}: dangling parent id {parent}")
        names[record["id"]] = record["name"]
        children.setdefault(parent, []).append(record["id"])
    for span_id, name in names.items():
        if name in REQUIRED_DESCENDANTS:
            _require_descendants(
                path, span_id, names, children, REQUIRED_DESCENDANTS[name]
            )
    return count


def _require_descendants(
    path: Path,
    root: object,
    names: dict[object, str],
    children: dict[object, list[object]],
    required: tuple[str, ...],
) -> None:
    found = set()
    stack = list(children.get(root, ()))
    while stack:
        span_id = stack.pop()
        found.add(names[span_id])
        stack.extend(children.get(span_id, ()))
    missing = [name for name in required if name not in found]
    if missing:
        fail(f"{path}: {names[root]} span {root} lacks child spans {missing}")


def validate_metrics(path: Path) -> int:
    try:
        snapshot = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        fail(f"{path}: invalid JSON: {exc}")
    if snapshot.get("schema") != "repro.metrics/1":
        fail(f"{path}: unexpected schema {snapshot.get('schema')!r}")
    total = 0
    for section in METRIC_SECTIONS:
        series = snapshot.get(section)
        if not isinstance(series, list):
            fail(f"{path}: section {section!r} must be a list")
        for entry in series:
            if not isinstance(entry.get("name"), str):
                fail(f"{path}: {section} entry without a name")
            if not isinstance(entry.get("labels"), dict):
                fail(f"{path}: {entry.get('name')}: labels must be an object")
            if section == "counters" and entry.get("value", -1) < 0:
                fail(f"{path}: counter {entry['name']} is negative")
            if section == "histograms":
                if len(entry["counts"]) != len(entry["buckets"]) + 1:
                    fail(f"{path}: histogram {entry['name']} bucket/count mismatch")
                if sum(entry["counts"]) != entry["count"]:
                    fail(f"{path}: histogram {entry['name']} count mismatch")
        total += len(series)
    if total == 0:
        fail(f"{path}: snapshot has no series at all")
    return total


def validate_manifest(path: Path) -> None:
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        fail(f"{path}: invalid JSON: {exc}")
    if manifest.get("schema") != "repro.run-manifest/1":
        fail(f"{path}: unexpected schema {manifest.get('schema')!r}")
    missing = MANIFEST_KEYS - manifest.keys()
    if missing:
        fail(f"{path}: manifest missing keys {sorted(missing)}")
    if manifest["wall_time_s"] < 0:
        fail(f"{path}: negative wall time")
    if not isinstance(manifest["parameters"], dict):
        fail(f"{path}: parameters must be an object")
    for name, digest in manifest["inputs"].items():
        if not isinstance(digest, str) or not digest:
            fail(f"{path}: input {name!r} has no digest")


def _check_row(path: Path, name: str, row: object) -> None:
    if not isinstance(row, dict):
        fail(f"{path}: profile row {name!r} must be an object")
    for key in ("calls", "total_s", "self_s"):
        value = row.get(key)
        if not isinstance(value, (int, float)) or value < 0:
            fail(f"{path}: profile row {name!r} has bad {key!r}: {value!r}")
    if row["self_s"] > row["total_s"] * (1 + 1e-9) + 1e-12:
        fail(f"{path}: profile row {name!r} self time exceeds total")


def validate_profile(path: Path) -> None:
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        fail(f"{path}: invalid JSON: {exc}")
    if report.get("schema") != "repro.profile/1":
        fail(f"{path}: unexpected schema {report.get('schema')!r}")
    if "trace" not in report and "dispatch" not in report:
        fail(f"{path}: profile carries neither a trace nor a metrics section")
    if "trace" in report:
        agg = report["trace"]
        for section in ("spans", "backends", "shapes"):
            group = agg.get(section)
            if not isinstance(group, dict):
                fail(f"{path}: trace section {section!r} must be an object")
            for name, row in group.items():
                _check_row(path, f"{section}.{name}", row)
        if agg.get("span_count", -1) < 0:
            fail(f"{path}: negative span_count")
        for stack, micros in report.get("stacks", {}).items():
            if ";" in stack.strip(";") and not stack:
                fail(f"{path}: empty collapsed stack")
            if not isinstance(micros, int) or micros <= 0:
                fail(f"{path}: stack {stack!r} weight must be a positive int")
    if "dispatch" in report:
        cache = report.get("cache")
        if not isinstance(cache, dict):
            fail(f"{path}: metrics-backed profile must carry a cache section")
        tiers = cache["memory"] + cache["disk"] + cache["miss"]
        if tiers != cache["lookups"]:
            fail(
                f"{path}: cache tiers sum {tiers} != lookups {cache['lookups']}"
            )
        for entry in report.get("quantiles", ()):
            qs = entry.get("quantiles", {})
            ordered = [qs.get(k) for k in ("p50", "p95", "p99") if k in qs]
            if any(q is None for q in ordered):
                fail(f"{path}: {entry.get('name')}: null quantile")
            if ordered != sorted(ordered):
                fail(f"{path}: {entry.get('name')}: quantiles not monotone")


def validate_trajectory(path: Path) -> int:
    count = 0
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            fail(f"{path}:{lineno}: invalid JSON: {exc}")
        if record.get("schema") != "repro.trajectory/1":
            fail(f"{path}:{lineno}: unexpected schema {record.get('schema')!r}")
        metrics = record.get("metrics")
        if not isinstance(metrics, dict) or not metrics:
            fail(f"{path}:{lineno}: record without metrics")
        for name, value in metrics.items():
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                fail(f"{path}:{lineno}: metric {name!r} is not finite: {value!r}")
        backends = record.get("backends")
        if not isinstance(backends, dict) or not all(
            isinstance(v, str) and v for v in backends.values()
        ):
            fail(f"{path}:{lineno}: backends must map sections to names")
        env = record.get("env")
        if not isinstance(env, dict) or not env.get("python"):
            fail(f"{path}:{lineno}: env fingerprint missing python version")
        count += 1
    if count == 0:
        fail(f"{path}: no trajectory records")
    return count


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=Path, help="trace JSONL file to validate")
    parser.add_argument("--metrics", type=Path, help="metrics snapshot to validate")
    parser.add_argument(
        "--manifest-dir", type=Path, help="directory of *.manifest.json files"
    )
    parser.add_argument(
        "--profile", type=Path, help="repro.profile/1 report to validate"
    )
    parser.add_argument(
        "--trajectory", type=Path, help="TRAJECTORY.jsonl store to validate"
    )
    args = parser.parse_args(argv)
    if not (
        args.trace
        or args.metrics
        or args.manifest_dir
        or args.profile
        or args.trajectory
    ):
        parser.error("nothing to validate")

    if args.trace:
        spans = validate_trace(args.trace)
        print(f"{args.trace}: {spans} spans ok")
    if args.metrics:
        series = validate_metrics(args.metrics)
        print(f"{args.metrics}: {series} series ok")
    if args.manifest_dir:
        manifests = sorted(args.manifest_dir.glob("*.manifest.json"))
        if not manifests:
            fail(f"{args.manifest_dir}: no *.manifest.json files found")
        for path in manifests:
            validate_manifest(path)
        print(f"{args.manifest_dir}: {len(manifests)} manifests ok")
    if args.profile:
        validate_profile(args.profile)
        print(f"{args.profile}: profile report ok")
    if args.trajectory:
        records = validate_trajectory(args.trajectory)
        print(f"{args.trajectory}: {records} trajectory records ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
