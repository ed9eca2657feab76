"""One workload in a fresh interpreter: ``python -m bench.child '<job json>'``.

Spawned by :mod:`bench.cli`.  The job names the workload, seed, run
length, trace flag and mode: ``setup`` sets the workload up and tears it
down again (a set-up time sample), ``measure`` then also runs the
measured section and the correctness check.  The last line of stdout is
the outcome as JSON; ``ready_at`` (``time.monotonic()`` when set-up
finished) lets the parent time set-up from the moment it spawned us, and
``setup_probe_s``, a host-speed probe taken right after, lets it scale
that time to the reference host speed.

A traced measure run installs the layer wrappers for the whole run.
Its ``obs.trace_overhead_pct`` is the wrappers' own cost: the spans
recorded times the measured cost of one wrapped call, as a share of the
untraced time that leaves.  (The operation rates of a traced and an
untraced run differ by this plus run-to-run noise, which is usually the
larger part.)
"""

from __future__ import annotations

import json
import multiprocessing
import resource
import sys
import time
from pathlib import Path

from bench import OUT
from bench.layers import span_metrics
from bench.spans import wrapper_cost_s
from bench.stats import probe_s
from bench.workloads import load

EXPECTED = Path(__file__).resolve().parent / "expected.json"

#: How long to wait for worker processes still shutting down.
REAP_TIMEOUT_S = 30.0


def measure(name: str, module, state, seconds: float, trace: bool) -> dict:
    """Run the measured section of one workload and check its outputs."""
    expected = json.loads(EXPECTED.read_text())[name]
    m = module.measure(state, seconds, traced=trace)
    failures = module.check(state, m, expected)
    out = {
        "attempted": m.ops,
        "failed": len({index for index, _ in failures}),
        "failures": [message for _, message in failures][:20],
        "throughput": m.throughput,
        "latencies_s": m.latencies_s,
        "speed_factors": m.speed_factors,
        "layer": m.layer,
    }
    if trace:
        spans = m.trace.records()
        cost = len(spans) * wrapper_cost_s() if module.WRAPPED else 0.0
        out["layer"] = {
            **span_metrics(spans, m.ops),
            **m.layer,
            "obs.spans": len(spans),
            "obs.trace_overhead_pct": cost / (m.elapsed_s - cost) * 100.0 if cost else 0.0,
        }
        out["trace_file"] = str(OUT / f"{name}.trace.jsonl")
        m.trace.export_jsonl(out["trace_file"])
    return out


def _reap() -> None:
    """Wait for worker processes this interpreter started."""
    deadline = time.monotonic() + REAP_TIMEOUT_S
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    for child in multiprocessing.active_children():
        child.kill()
        child.join()


def main(argv: list[str]) -> int:
    job = json.loads(argv[0])
    OUT.mkdir(parents=True, exist_ok=True)
    module = load(job["workload"])
    state = module.setup(job["seed"])
    out: dict = {"ready_at": time.monotonic(), "setup_probe_s": probe_s()}
    try:
        if job["mode"] == "measure":
            out.update(
                measure(job["workload"], module, state, job["seconds"], bool(job["trace"]))
            )
    finally:
        module.teardown(state)
        _reap()
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out["peak_rss_mb"] = peak_kb / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
