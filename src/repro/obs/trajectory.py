"""Append-only benchmark trajectory store with rolling-baseline gates.

The ``BENCH_*.json`` files are point-in-time snapshots: each benchmark
run overwrites its section, so the performance *history* of the repo is
invisible and a slow drift (or a step regression that still clears a
generous fixed threshold) goes unnoticed.  This module gives every
benchmark run a durable footprint:

* :func:`build_record` flattens the current ``BENCH_*.json`` documents
  into one flat ``metrics`` mapping (``minplus.general_backend.speedup``
  style dotted keys), adds ``code.src_lines`` (:func:`source_lines`),
  records which backend produced each section, and stamps an environment
  fingerprint (:func:`env_fingerprint`: python / numpy versions, CPU
  count, platform, best-effort git sha);
* :func:`append_record` appends it to ``benchmarks/TRAJECTORY.jsonl``
  (schema ``repro.trajectory/1``, one JSON object per line, append-only
  — history is never rewritten);
* :func:`check_records` is the regression detector: for every gated
  metric it compares the latest record against the **median of the
  previous K records** and flags a violation when the value degrades by
  more than the threshold fraction.  Medians of a rolling window track
  legitimate re-baselining (new hardware, algorithmic wins) while still
  catching a 2× step, which fixed absolute thresholds alone cannot.

Direction is inferred from the metric name: ``*.speedup`` and
``*.eval_ratio`` are higher-is-better, ``*.peak_bytes`` and
``code.src_lines`` lower-is-better (growing the package should be a
deliberate choice).
Raw ``*seconds`` timings are excluded from gating by default — they vary
with host hardware, unlike ratios — but remain in the records for
inspection and for ``obs diff``.

``scripts/check_trajectory.py`` is the CLI wrapper CI runs after the
benchmark job; ``benchmarks/conftest.py`` appends a record per benchmark
session automatically.
"""

from __future__ import annotations

import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path
from typing import Any, Iterable

__all__ = [
    "TRAJECTORY_SCHEMA",
    "TRAJECTORY_PATH",
    "env_fingerprint",
    "source_lines",
    "flatten_bench",
    "build_record",
    "append_record",
    "read_records",
    "metric_direction",
    "check_records",
]

#: Version tag stamped into every trajectory record.
TRAJECTORY_SCHEMA = "repro.trajectory/1"

#: Default store location, relative to the repo root.
TRAJECTORY_PATH = os.path.join("benchmarks", "TRAJECTORY.jsonl")

#: Default regression gate: fail when a metric degrades by more than
#: this fraction against the rolling baseline (0.4 tolerates the ±20 %
#: run-to-run noise of speedup ratios while a 2× regression — a 50 %
#: drop — still trips it).
DEFAULT_THRESHOLD = 0.4

#: Default rolling-baseline window (number of prior records).
DEFAULT_WINDOW = 5

#: Metric-name patterns gated as higher-is-better.
HIGHER_BETTER = (re.compile(r"\.speedup$"), re.compile(r"\.eval_ratio$"))

#: Metric-name patterns gated as lower-is-better.
LOWER_BETTER = (re.compile(r"\.peak_bytes$"), re.compile(r"^code\.src_lines$"))


def env_fingerprint() -> dict[str, Any]:
    """Versions and host facts that explain cross-record variance.

    Best-effort by design: missing optional packages record ``None`` and
    a missing git checkout records ``None`` for the sha — a record from a
    source tarball is still a valid record.
    """
    def _version(module: str) -> str | None:
        try:
            return __import__(module).__version__
        except Exception:
            return None

    sha = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            sha = out.stdout.strip() or None
    except Exception:
        pass
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": sha,
    }


def source_lines() -> int:
    """Non-blank lines of the ``repro`` package's Python sources."""
    package = Path(__file__).resolve().parents[1]
    return sum(
        1
        for path in package.rglob("*.py")
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


def flatten_bench(
    name: str, report: dict[str, Any]
) -> tuple[dict[str, float], dict[str, str]]:
    """Flatten one BENCH document into ``(metrics, backends)``.

    ``BENCH_minplus.json``'s ``{"general_backend": {"speedup": 7.8,
    "backend": "soa"}}`` becomes the metric
    ``minplus.general_backend.speedup = 7.8`` and the backend entry
    ``minplus.general_backend = "soa"``.  Only numeric leaves become
    metrics (booleans excluded); the ``backend`` field of a section is
    lifted into the backends mapping instead.
    """
    metrics: dict[str, float] = {}
    backends: dict[str, str] = {}
    for section, payload in report.items():
        if not isinstance(payload, dict):
            continue
        for key, value in payload.items():
            if key == "backend" and isinstance(value, str):
                backends[f"{name}.{section}"] = value
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                metrics[f"{name}.{section}.{key}"] = float(value)
    return metrics, backends


def build_record(
    bench_dir: str | os.PathLike,
    *,
    run_id: str | None = None,
    timestamp: str | None = None,
) -> dict[str, Any]:
    """One trajectory record from every ``BENCH_*.json`` under *bench_dir*.

    The record carries the schema tag, an optional *run_id* (CI job id,
    PR number, ...), an optional ISO *timestamp* (callers stamp it; this
    module never reads the clock so record-building stays deterministic
    under test), the flat ``metrics`` and per-section ``backends``
    mappings, and the :func:`env_fingerprint`.  ``metrics`` always holds
    ``code.src_lines``, the package size at record time.
    """
    metrics: dict[str, float] = {"code.src_lines": float(source_lines())}
    backends: dict[str, str] = {}
    for entry in sorted(os.listdir(bench_dir)):
        if not (entry.startswith("BENCH_") and entry.endswith(".json")):
            continue
        with open(os.path.join(bench_dir, entry), "r", encoding="utf-8") as fh:
            report = json.load(fh)
        name = entry[len("BENCH_") : -len(".json")]
        m, b = flatten_bench(name, report)
        metrics.update(m)
        backends.update(b)
    return {
        "schema": TRAJECTORY_SCHEMA,
        "run_id": run_id,
        "timestamp": timestamp,
        "metrics": dict(sorted(metrics.items())),
        "backends": dict(sorted(backends.items())),
        "env": env_fingerprint(),
    }


def append_record(record: dict[str, Any], path: str | os.PathLike) -> None:
    """Append *record* as one JSONL line (the store is append-only)."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True, default=str))
        fh.write("\n")


def read_records(path: str | os.PathLike) -> list[dict[str, Any]]:
    """All records of a trajectory store, oldest first; missing file is
    an empty history, malformed lines raise."""
    if not os.path.exists(path):
        return []
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: malformed record: {exc}") from exc
    return records


def metric_direction(name: str) -> str | None:
    """``"higher"`` / ``"lower"`` if *name* matches a gated pattern,
    else ``None`` (metric is recorded but not gated)."""
    for pat in HIGHER_BETTER:
        if pat.search(name):
            return "higher"
    for pat in LOWER_BETTER:
        if pat.search(name):
            return "lower"
    return None


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def check_records(
    records: list[dict[str, Any]],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    window: int = DEFAULT_WINDOW,
) -> dict[str, Any]:
    """Gate the latest record against the rolling baseline.

    For every gated metric present in the latest record, the baseline is
    the median of that metric over the up-to-*window* immediately
    preceding records that carry it.  A higher-is-better metric violates
    when ``latest < baseline * (1 - threshold)``; lower-is-better when
    ``latest > baseline * (1 + threshold)``.  Metrics with no history
    yet are reported as ``new`` — a gate needs a baseline before it can
    fail, so the first record always passes.

    Returns ``{"ok": bool, "checked": int, "new": [...], "violations":
    [{"metric", "value", "baseline", "ratio", "direction", "window"}]}``.
    """
    if not records:
        return {"ok": True, "checked": 0, "new": [], "violations": []}
    latest = records[-1]
    history = records[:-1]
    violations: list[dict[str, Any]] = []
    fresh: list[str] = []
    checked = 0
    for name, value in sorted(latest.get("metrics", {}).items()):
        direction = metric_direction(name)
        if direction is None:
            continue
        prior = [
            r["metrics"][name]
            for r in history
            if name in r.get("metrics", {})
        ][-window:]
        if not prior:
            fresh.append(name)
            continue
        checked += 1
        baseline = _median(prior)
        if baseline == 0:
            continue
        ratio = value / baseline
        bad = (
            ratio < 1.0 - threshold
            if direction == "higher"
            else ratio > 1.0 + threshold
        )
        if bad:
            violations.append(
                {
                    "metric": name,
                    "value": value,
                    "baseline": baseline,
                    "ratio": ratio,
                    "direction": direction,
                    "window": len(prior),
                }
            )
    return {
        "ok": not violations,
        "checked": checked,
        "new": fresh,
        "violations": violations,
    }
