"""Golden determinism: a multi-worker run must be byte-identical to serial.

The guarantee of the parallel runner — fanning tasks (here, whole
experiments) out over 4 worker processes changes wall-clock time and
nothing else.  The comparison is on
:func:`repro.obs.manifest.stable_view` (the manifest minus its timing
fields) serialized to canonical JSON, so any drift in parameters, input
digests, seed, version, or result-data digest fails loudly.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.obs.manifest import stable_view
from repro.runner import run_many

#: Light experiments plus the seeded-random acceptance study (A5) — the one
#: whose determinism actually depends on seeding.
EXPERIMENT_ITEMS = [
    ("E1", {}),
    ("E2", {}),
    ("E3", {}),
    ("A5", {"sets_per_point": 6, "utilizations": (0.6, 1.0, 1.4)}),
]


def run_experiment_task(item: tuple[str, dict]):
    """Worker: run one registered experiment, *item* = ``(id, params)``
    (module level, so workers unpickle it by reference)."""
    exp_id, params = item
    return ALL_EXPERIMENTS[exp_id](**params)


def canonical(manifest: dict) -> str:
    """Byte-comparable rendering of a manifest's stable view."""
    return json.dumps(stable_view(manifest), sort_keys=True, default=str)


@pytest.fixture(scope="module")
def serial_and_parallel():
    """The same experiment batch run serially and across 4 workers."""
    serial = run_many(run_experiment_task, EXPERIMENT_ITEMS, max_workers=1, seed=2004)
    parallel = run_many(
        run_experiment_task, EXPERIMENT_ITEMS, max_workers=4, seed=2004, chunk_size=1
    )
    return serial, parallel


def test_all_tasks_succeed(serial_and_parallel):
    serial, parallel = serial_and_parallel
    assert all(r.ok for r in serial), [r.error for r in serial if not r.ok]
    assert all(r.ok for r in parallel), [r.error for r in parallel if not r.ok]


def test_manifests_byte_identical(serial_and_parallel):
    serial, parallel = serial_and_parallel
    for (exp_id, _), s, p in zip(EXPERIMENT_ITEMS, serial, parallel):
        assert canonical(s.value.manifest) == canonical(p.value.manifest), (
            f"{exp_id}: stable manifest views diverge between serial and "
            f"4-worker runs"
        )


def test_reports_and_data_identical(serial_and_parallel):
    serial, parallel = serial_and_parallel
    for s, p in zip(serial, parallel):
        assert s.value.report == p.value.report
        assert json.dumps(s.value.data, sort_keys=True, default=str) == json.dumps(
            p.value.data, sort_keys=True, default=str
        )


def test_parallel_rerun_is_self_consistent():
    """Two parallel runs agree with each other (not just with serial)."""
    first = run_many(run_experiment_task, EXPERIMENT_ITEMS[:2], max_workers=2, seed=1)
    second = run_many(run_experiment_task, EXPERIMENT_ITEMS[:2], max_workers=2, seed=1)
    for a, b in zip(first, second):
        assert canonical(a.value.manifest) == canonical(b.value.manifest)
