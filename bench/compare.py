"""``python3 bench/run.py compare BASE.json NEW.json``: judge a change.

Both files hold runs as ``bench/out/results.json`` keeps them
(``{"runs": [...]}``): run the benchmark on the parent commit and on the
change, alternating which goes first, and keep each side's file.  For
every workload and end-to-end metric of ``BENCHMARK.json`` the untraced
runs of the two sides are paired in the order they ran, and each row
shows both sides' median and quartiles, the share of pairs the change
won (ties count for neither side) and a verdict:

``improved``
    the change won at least 90 % of the pairs and its median beats the
    parent's by more than the parent's inter-quartile range;
``unresolved``
    either side's inter-quartile range, as a share of its median, is
    wider than the metric's bound, and the change did not beat every run
    of the parent;
``worse``
    the change's median is worse than the parent's by more than the
    metric's bound;
``no worse``
    otherwise.

Runs whose host calibration moved by more than 10 % are counted in the
``drift`` column; runs with failed operations are listed below the
table.  The exit status is 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from bench.stats import quartiles

__all__ = ["verdict", "main"]


def verdict(base: list[float], new: list[float], better: str, bound: float) -> tuple[str, float]:
    """``(verdict, share of pairs the new side won)`` for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    pairs = list(zip(base, new))
    won = sum(sign * (n - b) > 0 for b, n in pairs) / max(len(pairs), 1)
    gain = sign * (nmed - bmed)
    if won >= 0.9 and gain > bq3 - bq1:
        return "improved", won
    if min(sign * v for v in new) > max(sign * v for v in base):
        return "no worse", won
    spread = max((bq3 - bq1) / abs(bmed), (nq3 - nq1) / abs(nmed))
    if spread > bound:
        return "unresolved", won
    if -gain / abs(bmed) > bound:
        return "worse", won
    return "no worse", won


def _runs(path: str) -> list[dict]:
    return [r for r in json.loads(Path(path).read_text())["runs"] if not r["trace"]]


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv: list[str]) -> int:
    from bench.cli import load_spec

    parser = argparse.ArgumentParser(
        prog="python3 bench/run.py compare", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("base", help="results file of the parent commit")
    parser.add_argument("new", help="results file of the change")
    args = parser.parse_args(argv)
    try:
        base_runs, new_runs = _runs(args.base), _runs(args.new)
    except (OSError, ValueError, KeyError) as exc:
        parser.error(f"cannot read runs: {exc}")
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    print(
        f"{'workload':<13} {'metric':<17} {'parent median [q1, q3]':<34} "
        f"{'change median [q1, q3]':<34} {'won':>5}  {'verdict':<10} drift"
    )
    any_worse = False
    for workload in workloads:
        base = [r for r in base_runs if r["workload"] == workload]
        new = [r for r in new_runs if r["workload"] == workload]
        if not base or not new:
            continue
        drift = f"{sum(r['host_drift'] for r in base)}/{sum(r['host_drift'] for r in new)}"
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base]
            n = [r["metrics"][name]["value"] for r in new]
            result, won = verdict(b, n, metric["better"], metric["bound"])
            any_worse |= result == "worse"
            print(
                f"{workload:<13} {name:<17} {_fmt(b):<34} {_fmt(n):<34} "
                f"{won:>5.0%}  {result:<10} {drift}"
            )
    for side, runs in (("parent", base_runs), ("change", new_runs)):
        for r in runs:
            if r["failed"]:
                print(
                    f"{side}: {r['workload']} seed {r['seed']}: "
                    f"{r['failed']} of {r['attempted']} failed"
                )
    return 1 if any_worse else 0
