#!/usr/bin/env python
"""Gate the benchmark trajectory: fail on rolling-baseline regressions.

Reads ``benchmarks/TRAJECTORY.jsonl`` (see :mod:`repro.obs.trajectory`)
and compares the latest record's gated metrics — ``*.speedup`` and
``*.eval_ratio`` higher-is-better, ``*.peak_bytes`` and
``code.src_lines`` lower-is-better — against the median of each metric over the previous ``--window`` records.
A metric that degrades by more than ``--threshold`` (fraction) fails the
gate; raw wall-clock seconds are deliberately not gated (they track the
host, not the code — the BENCH files' ratio metrics exist for exactly
this reason).

Usage::

    python scripts/check_trajectory.py [--path benchmarks/TRAJECTORY.jsonl]
                                       [--threshold 0.4] [--window 5]

Exit status: 0 when the latest record passes (or history is too short to
gate anything), 1 on any violation, 2 on a malformed store.

CI appends a record per benchmark session (``benchmarks/conftest.py``)
and runs this right after, so a silent 2x regression in any published
ratio fails the job even when the fixed absolute thresholds still pass.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

try:
    from repro.obs import trajectory
except ImportError:  # pragma: no cover - direct script invocation
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.obs import trajectory


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--path",
        default=trajectory.TRAJECTORY_PATH,
        help="trajectory store (default: benchmarks/TRAJECTORY.jsonl)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=trajectory.DEFAULT_THRESHOLD,
        help="max tolerated degradation as a fraction of the rolling "
        "median (default: %(default)s)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=trajectory.DEFAULT_WINDOW,
        help="rolling-baseline window in records (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    try:
        records = trajectory.read_records(args.path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not records:
        print(f"{args.path}: no records yet; nothing to gate")
        return 0

    verdict = trajectory.check_records(
        records, threshold=args.threshold, window=args.window
    )
    latest = records[-1]
    sha = (latest.get("env") or {}).get("git_sha")
    print(
        f"{args.path}: {len(records)} records; latest"
        f"{' @' + sha[:12] if sha else ''}: "
        f"{verdict['checked']} gated metrics checked, "
        f"{len(verdict['new'])} new (no baseline yet)"
    )
    for name in verdict["new"]:
        print(f"  new: {name} = {latest['metrics'][name]:g}")
    for violation in verdict["violations"]:
        print(
            f"  REGRESSION: {violation['metric']} = {violation['value']:g} "
            f"vs median {violation['baseline']:g} over last "
            f"{violation['window']} ({violation['ratio']:.2f}x, "
            f"{violation['direction']}-is-better, "
            f"threshold ±{args.threshold:.0%})",
            file=sys.stderr,
        )
    if not verdict["ok"]:
        print(
            f"error: {len(verdict['violations'])} metric(s) regressed "
            "beyond the rolling baseline",
            file=sys.stderr,
        )
        return 1
    print("trajectory gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
