"""Tests for repro.perf.instrument and its obs-registry backing."""

import json

import pytest

import repro.perf as perf
from repro.obs.metrics import registry
from repro.obs.tracing import tracer
from repro.perf import instrument
from repro.perf.instrument import (
    CALLS_METRIC,
    HISTOGRAM_METRIC,
    SECONDS_METRIC,
    instrumented,
    record,
)


@pytest.fixture(autouse=True)
def fresh_state():
    perf.reset()
    yield
    perf.reset()
    tracer.disable()


@instrumented("test.kernel")
def _work(x):
    return x * 2


def _calls(kernel: str):
    return registry.counter(CALLS_METRIC, kernel=kernel).value


def _seconds(kernel: str):
    return registry.counter(SECONDS_METRIC, kernel=kernel).value


def _snapshot_calls(snap: dict, kernel: str):
    (entry,) = [
        c
        for c in snap["counters"]
        if c["name"] == CALLS_METRIC and c["labels"] == {"kernel": kernel}
    ]
    return entry["value"]


class TestInstrumented:
    def test_counts_calls_and_time(self):
        assert _work(3) == 6
        assert _work(4) == 8
        assert _calls("test.kernel") == 2
        assert _seconds("test.kernel") >= 0

    def test_calls_is_int_in_exported_json(self):
        _work(1)
        exported = json.loads(json.dumps(registry.snapshot()))
        calls = _snapshot_calls(exported, "test.kernel")
        assert calls == 1 and isinstance(calls, int)  # not 1.0

    def test_snapshot_without_reset_roundtrips(self):
        _work(1)
        first = registry.snapshot()
        second = registry.snapshot()
        assert first == second
        assert _snapshot_calls(second, "test.kernel") == 1

    def test_snapshot_with_reset_zeroes(self):
        _work(1)
        assert _snapshot_calls(registry.snapshot(), "test.kernel") == 1
        instrument.reset()
        assert _snapshot_calls(registry.snapshot(), "test.kernel") == 0

    def test_registry_series_are_labeled(self):
        _work(1)
        (calls,) = [
            s for s in registry.series(CALLS_METRIC) if s.labels == {"kernel": "test.kernel"}
        ]
        assert calls.value == 1
        (secs,) = [
            s
            for s in registry.series(SECONDS_METRIC)
            if s.labels == {"kernel": "test.kernel"}
        ]
        assert secs.value >= 0
        (hist,) = [
            s
            for s in registry.series(HISTOGRAM_METRIC)
            if s.labels == {"kernel": "test.kernel"}
        ]
        assert hist.count == 1

    def test_emits_span_only_when_tracing(self):
        tracer.reset()
        _work(1)
        assert len(tracer) == 0
        tracer.enable()
        try:
            _work(1)
        finally:
            tracer.disable()
        names = [r["name"] for r in tracer.records()]
        assert "test.kernel" in names
        tracer.reset()

    def test_attrs_callable_runs_only_when_tracing(self):
        calls = []

        @instrumented("test.attrs", attrs=lambda x: calls.append(x) or {"x": x})
        def g(x):
            return x

        g(1)
        assert calls == []  # tracing off: attrs never evaluated
        tracer.enable()
        tracer.reset()
        try:
            g(2)
        finally:
            tracer.disable()
        assert calls == [2]
        (rec,) = [r for r in tracer.records() if r["name"] == "test.attrs"]
        assert rec["attrs"] == {"x": 2}
        tracer.reset()

    def test_record_accumulates(self):
        record("test.manual", 0.5)
        record("test.manual", 0.25)
        assert _calls("test.manual") == 2
        assert _seconds("test.manual") == pytest.approx(0.75)


class TestRegistryView:
    def test_cache_counters_visible_in_registry_snapshot(self):
        snap = registry.snapshot()
        names = {c["name"] for c in snap["counters"]}
        assert {"cache.hits", "cache.misses", "cache.evictions", "cache.bypasses"} <= names
        gauges = {g["name"] for g in snap["gauges"]}
        assert {"cache.entries", "cache.max_entries", "cache.enabled"} <= gauges
