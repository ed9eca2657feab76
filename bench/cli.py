"""The benchmark command: runs workloads in child processes and reports.

Usage (from the repository root)::

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py compare BASE.json NEW.json

``PYTHONPATH=src python -m bench ...`` is the same command.  Each
workload runs in fresh child processes (:mod:`bench.child`): two that
only set up, then one that sets up and measures, so ``setup_s`` is the
median of three set-ups.  Timings are scaled to a reference host speed
by short probes taken around each measured segment (:mod:`bench.stats`),
and a longer calibration loop runs before and after each workload to
flag a host that changed speed during it.  Every metric is
printed by name with its unit, the runs are appended to
``bench/out/results.json``, and the last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of ``BENCHMARK.json``;
with ``--trace 1`` they are its per-layer metrics, and the spans are
written to ``bench/out/<workload>.trace.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench import OUT
from bench.layers import LAYER_METRICS
from bench.stats import REFERENCE_PROBE_S, calibrate_ms, latency_summary, probe_s
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RESULTS = OUT / "results.json"

DEFAULT_SEED = 2004

#: Set-ups per workload run; ``setup_s`` is their median.
SETUPS = 3

#: Workloads whose set-up is long enough to be timed once per run: the
#: design_sweep context build takes about 17 s at the reference host
#: speed, and three per run would put the benchmark over its time cap.
SINGLE_SETUP = ("design_sweep",)

#: Calibration readings further apart than this mark the run as drifted.
DRIFT = 0.10

#: Each invocation must finish within this budget per workload.
BUDGET_S = 170.0


class BenchError(RuntimeError):
    """A workload process failed; no result can be reported."""


def load_spec() -> dict:
    """The parsed ``BENCHMARK.json``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _descendants(pid: int) -> list[int]:
    """Every live process below *pid*, read from ``/proc`` (none without it)."""
    try:
        entries = os.listdir("/proc")
    except OSError:
        return []
    children: dict[int, list[int]] = {}
    for entry in entries:
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            # the fields after the parenthesised command: state, ppid, ...
            children.setdefault(int(stat.rsplit(")", 1)[1].split()[1]), []).append(int(entry))
    found, todo = [], [pid]
    while todo:
        below = children.get(todo.pop(), [])
        found += below
        todo += below
    return found


def _running(pid: int) -> bool:
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def _kill_tree(proc: subprocess.Popen) -> None:
    """Kill *proc* and every process below it (a pass, sweep workers, the
    daemon and its workers would outlive it), and wait until all have ended."""
    below = _descendants(proc.pid)
    for pid in (proc.pid, *below):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.communicate()
    deadline = time.monotonic() + 10.0
    while any(map(_running, below)) and time.monotonic() < deadline:
        time.sleep(0.05)


def _spawn(job: dict, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    reading = probe_s()
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "bench.child", json.dumps(job)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        _kill_tree(proc)
        raise BenchError(f"{job['workload']} ({job['mode']}) timed out") from exc
    lines = stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{job['workload']} ({job['mode']}) exited with {proc.returncode}")
    out = json.loads(lines[-1])
    out["setup_raw_s"] = out["ready_at"] - spawned
    factor = (reading + out["setup_probe_s"]) / 2.0 / REFERENCE_PROBE_S
    out["setup_s"] = out["setup_raw_s"] / factor
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up and measure one workload; returns its results record."""
    deadline = time.monotonic() + BUDGET_S
    calib_before = calibrate_ms()
    job = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    # a traced run reports per-layer metrics only, so it skips the extra set-ups
    extra = 0 if trace or name in SINGLE_SETUP else SETUPS - 1
    runs = [_spawn({**job, "mode": "setup"}, deadline) for _ in range(extra)]
    out = _spawn({**job, "mode": "measure"}, deadline)
    runs.append(out)
    setups = [run["setup_s"] for run in runs]
    calib_after = calibrate_ms()

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "error_rate": out["failed"] / max(out["attempted"], 1),
        "failures": out["failures"],
        "host_drift": abs(calib_after / calib_before - 1.0) > DRIFT,
        "calib_before_ms": calib_before,
        "calib_after_ms": calib_after,
        "setup_samples_s": setups,
        "setup_raw_s": [run["setup_raw_s"] for run in runs],
        "host_speed": statistics.median(out["speed_factors"]) if out["speed_factors"] else None,
    }
    if trace:
        layer = {
            **out["layer"],
            "host.calib_before_ms": calib_before,
            "host.calib_after_ms": calib_after,
        }
        record["metrics"] = {
            metric: {"value": float(layer.get(metric, 0.0)), "unit": unit}
            for metric, unit in LAYER_METRICS.items()
        }
        record["trace_file"] = out["trace_file"]
    else:
        latency = latency_summary(out["latencies_s"])
        record["latency_n"] = latency["n"]
        record["latency_tail"] = latency["tail"]
        values = {
            "setup_s": statistics.median(setups),
            "throughput_ops_s": out["throughput"],
            "latency_p50_ms": latency["p50_ms"],
            "latency_tail_ms": latency["tail_ms"],
            "peak_rss_mb": out["peak_rss_mb"],
        }
        record["metrics"] = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in load_spec()["end_to_end"]
        }
    return record


def _print_record(record: dict) -> None:
    name = record["workload"]
    notes = {
        "setup_s": f"median of {len(record['setup_samples_s'])} set-ups",
        "latency_p50_ms": f"n={record.get('latency_n')}",
        "latency_tail_ms": f"{record.get('latency_tail')} of n={record.get('latency_n')}",
    }
    for metric, entry in record["metrics"].items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"{name:<13} {metric:<32} {entry['value']:>14.6g} {entry['unit']}{note}")
    print(
        f"{name:<13} correct={record['correct']} attempted={record['attempted']} "
        f"failed={record['failed']} error_rate={record['error_rate']:.4g}"
    )
    for message in record["failures"]:
        print(f"{name:<13} FAILED: {message}")
    drift = " (host drift)" if record["host_drift"] else ""
    print(
        f"{name:<13} host calibration {record['calib_before_ms']:.1f} ms before, "
        f"{record['calib_after_ms']:.1f} ms after{drift}"
    )
    if "trace_file" in record:
        print(f"{name:<13} spans written to {os.path.relpath(record['trace_file'], ROOT)}")


def append_results(records: list[dict], path: Path = RESULTS) -> None:
    """Add *records* to the runs kept in *path* (created if missing)."""
    try:
        runs = json.loads(path.read_text())["runs"]
    except (OSError, ValueError, KeyError):
        runs = []
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"runs": runs + records}, indent=1) + "\n")
    os.replace(tmp, path)


def summary(records: list[dict]) -> dict:
    """The final stdout object; metrics are prefixed by workload when
    more than one workload ran."""
    prefix = len(records) > 1
    metrics = {}
    for record in records:
        for metric, entry in record["metrics"].items():
            metrics[f"{record['workload']}.{metric}" if prefix else metric] = entry
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["compare"]:
        from bench.compare import main as compare_main

        return compare_main(argv[1:])
    spec = load_spec()
    parser = argparse.ArgumentParser(
        prog="python3 bench/run.py", description="Run the repository benchmark."
    )
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS, help="repeatable (default: all)"
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help=f"input seed (default: {DEFAULT_SEED})"
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(spec["run_seconds"]),
        help="work per run, in seconds at the reference host speed "
        f"(default: {spec['run_seconds']})",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1: report per-layer metrics from a run with the layers wrapped",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    records = []
    try:
        for name in args.workload or WORKLOADS:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace))
            _print_record(record)
            records.append(record)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    append_results(records)
    print(json.dumps(summary(records)))
    return 0
