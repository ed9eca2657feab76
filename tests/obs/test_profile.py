"""Tests for repro.obs.profile: span aggregation, stacks, quantiles,
dispatch/cache breakdowns, Prometheus exposition."""

import json

import numpy as np
import pytest

import repro.simulation.chain as chain_module
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    PROFILE_SCHEMA,
    aggregate_spans,
    cache_tiers,
    collapsed_stacks,
    dispatch_breakdown,
    histogram_quantile,
    histogram_quantiles,
    profile_report,
    prometheus_text,
    read_trace_jsonl,
    service_breakdown,
    simulation_breakdown,
    write_collapsed,
    write_profile,
)
from repro.simulation import replay_pipeline


def _span(name, ts, dur, sid, parent=None, attrs=None, **extra):
    return {
        "name": name,
        "ts": ts,
        "dur": dur,
        "id": sid,
        "parent": parent,
        "thread": 1,
        "attrs": attrs or {},
        **extra,
    }


class TestAggregateSpans:
    def test_self_time_subtracts_direct_children(self):
        records = [
            _span("child", 0.1, 0.3, 1, parent=0),
            _span("root", 0.0, 1.0, 0),
        ]
        agg = aggregate_spans(records)
        assert agg["spans"]["root"]["self_s"] == pytest.approx(0.7)
        assert agg["spans"]["root"]["total_s"] == pytest.approx(1.0)
        assert agg["spans"]["child"]["self_s"] == pytest.approx(0.3)
        assert agg["total_self_s"] == pytest.approx(1.0)
        assert agg["span_count"] == 2

    def test_self_time_clamped_for_unfinished_parent(self):
        # an unfinished parent can report less time than finished children
        records = [
            _span("child", 0.0, 1.0, 1, parent=0),
            _span("root", 0.0, 0.2, 0, unfinished=True),
        ]
        agg = aggregate_spans(records)
        assert agg["spans"]["root"]["self_s"] == 0.0
        assert agg["spans"]["root"]["unfinished"] == 1

    def test_grandchildren_only_count_against_direct_parent(self):
        records = [
            _span("a", 0.0, 1.0, 0),
            _span("b", 0.0, 0.6, 1, parent=0),
            _span("c", 0.0, 0.4, 2, parent=1),
        ]
        agg = aggregate_spans(records)
        assert agg["spans"]["a"]["self_s"] == pytest.approx(0.4)
        assert agg["spans"]["b"]["self_s"] == pytest.approx(0.2)

    def test_backend_and_shape_breakdowns(self):
        records = [
            _span("k", 0, 0.5, 0, attrs={"backend": "soa", "shape": "general|convex"}),
            _span("k", 0, 0.25, 1, attrs={"backend": "soa"}),
            _span("k", 0, 1.0, 2, attrs={"backend": "numpy"}),
            _span("other", 0, 1.0, 3),
        ]
        agg = aggregate_spans(records)
        assert agg["backends"]["soa"]["calls"] == 2
        assert agg["backends"]["soa"]["self_s"] == pytest.approx(0.75)
        assert agg["backends"]["numpy"]["min_s"] == pytest.approx(1.0)
        assert agg["shapes"] == {
            "general|convex": agg["shapes"]["general|convex"]
        }
        assert agg["shapes"]["general|convex"]["calls"] == 1

    def test_empty_trace(self):
        agg = aggregate_spans([])
        assert agg["span_count"] == 0
        assert agg["spans"] == {}
        assert agg["total_self_s"] == 0.0


class TestCollapsedStacks:
    def test_stack_reconstruction_and_weights(self):
        records = [
            _span("leaf", 0.0, 0.25, 2, parent=1),
            _span("mid", 0.0, 0.5, 1, parent=0),
            _span("root", 0.0, 1.0, 0),
        ]
        stacks = collapsed_stacks(records)
        assert stacks == {
            "root": 500_000,
            "root;mid": 250_000,
            "root;mid;leaf": 250_000,
        }

    def test_identical_stacks_accumulate(self):
        records = [
            _span("k", 0.0, 0.001, 0),
            _span("k", 0.5, 0.002, 1),
        ]
        assert collapsed_stacks(records) == {"k": 3_000}

    def test_zero_weight_stacks_dropped(self):
        records = [_span("instant", 0.0, 1e-9, 0)]
        assert collapsed_stacks(records) == {}

    def test_dangling_parent_truncates_stack(self):
        # a worker record re-parented onto a span the export didn't keep
        records = [_span("leaf", 0.0, 0.1, 5, parent=999)]
        assert collapsed_stacks(records) == {"leaf": 100_000}

    def test_write_collapsed_format(self, tmp_path):
        records = [_span("a", 0.0, 0.5, 0), _span("b", 0.0, 0.25, 1, parent=0)]
        path = tmp_path / "out.folded"
        assert write_collapsed(records, path) == 2
        lines = path.read_text().splitlines()
        assert lines == ["a 250000", "a;b 250000"]


class TestHistogramQuantile:
    def _entry(self, buckets, counts, **extra):
        total = sum(counts)
        return {
            "name": "h",
            "labels": {},
            "buckets": list(buckets),
            "counts": list(counts),
            "count": total,
            "sum": extra.pop("sum", 1.0),
            "min": extra.pop("min", None),
            "max": extra.pop("max", None),
            **extra,
        }

    def test_interpolates_within_bucket(self):
        # 10 observations uniform in the (1.0, 2.0] bucket
        entry = self._entry([1.0, 2.0], [0, 10, 0])
        assert histogram_quantile(entry, 0.5) == pytest.approx(1.5)
        assert histogram_quantile(entry, 0.95) == pytest.approx(1.95)

    def test_clamps_to_observed_min_max(self):
        entry = self._entry([1.0, 2.0], [0, 10, 0], min=1.4, max=1.6)
        assert histogram_quantile(entry, 0.01) == pytest.approx(1.4)
        assert histogram_quantile(entry, 0.99) == pytest.approx(1.6)

    def test_overflow_bucket_reports_max(self):
        entry = self._entry([1.0], [0, 5], max=7.5)
        assert histogram_quantile(entry, 0.9) == pytest.approx(7.5)

    def test_empty_histogram_is_none(self):
        entry = self._entry([1.0], [0, 0])
        assert histogram_quantile(entry, 0.5) is None

    def test_out_of_range_q_is_none(self):
        entry = self._entry([1.0], [1, 0])
        assert histogram_quantile(entry, 1.5) is None
        assert histogram_quantile(entry, -0.1) is None

    def test_quantiles_are_monotone(self):
        entry = self._entry([0.1, 1.0, 10.0], [3, 17, 9, 1], max=12.0)
        qs = [histogram_quantile(entry, q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert qs == sorted(qs)

    def test_registry_roundtrip(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.2, 0.3, 0.5, 2.0):
            h.observe(v)
        (summary,) = histogram_quantiles(reg.snapshot())
        assert summary["count"] == 5
        assert summary["mean"] == pytest.approx(3.05 / 5)
        assert set(summary["quantiles"]) == {"p50", "p95", "p99"}
        assert summary["quantiles"]["p50"] <= summary["quantiles"]["p95"]


class TestDispatchAndCache:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("minplus.dispatch", op="convolve", regime="convex_fast").inc(5)
        reg.counter("minplus.dispatch", op="convolve", regime="generic").inc(2)
        reg.counter("minplus.dispatch", op="deconvolve", regime="generic").inc(1)
        reg.counter("minplus.backend.calls", backend="soa", op="convolve").inc(2)
        reg.counter("minplus.backend.calls", backend="soa", op="convolve_batch").inc(4)
        reg.counter("minplus.batch.fallback", backend="soa").inc(1)
        reg.counter("cache.calls").inc(20)
        reg.counter("cache.hits").inc(8)
        reg.counter("cache.misses").inc(12)
        reg.counter("diskcache.hits").inc(4)
        reg.counter("cache.op.hits", op="minplus.convolve").inc(8)
        reg.counter("cache.op.misses", op="minplus.convolve").inc(12)
        return reg

    def test_dispatch_regimes_and_batch_rate(self):
        dispatch = dispatch_breakdown(self._registry().snapshot())
        assert dispatch["regimes"]["convolve"] == {
            "convex_fast": 5,
            "generic": 2,
        }
        assert dispatch["regimes"]["deconvolve"] == {"generic": 1}
        assert dispatch["batch"]["calls"] == 4
        assert dispatch["batch"]["fallback_rate"] == pytest.approx(0.25)
        assert dispatch["memo"] == {"lookups": 20, "hits": 8, "misses": 12}

    def test_cache_tiers_sum_to_lookups(self):
        cache = cache_tiers(self._registry().snapshot())
        assert cache["memory"] == 8
        assert cache["disk"] == 4
        assert cache["miss"] == 8
        assert cache["memory"] + cache["disk"] + cache["miss"] == cache["lookups"]
        assert cache["consistent"] is True
        assert cache["hit_ratio"] == pytest.approx(12 / 20)

    def test_worker_origin_series_fold_in(self):
        reg = self._registry()
        reg.counter("cache.calls", origin="worker").inc(10)
        reg.counter("cache.hits", origin="worker").inc(10)
        cache = cache_tiers(reg.snapshot())
        assert cache["lookups"] == 30
        assert cache["memory"] == 18
        assert cache["consistent"] is True

    def test_empty_snapshot(self):
        cache = cache_tiers(MetricsRegistry().snapshot())
        assert cache["lookups"] == 0
        assert cache["hit_ratio"] == 0.0
        assert cache["consistent"] is True


class TestServiceBreakdown:
    def test_admission_and_outcomes(self):
        reg = MetricsRegistry()
        reg.counter("service.submitted").inc(10)
        reg.counter("service.accepted").inc(6)
        reg.counter("service.rejected", reason="infeasible").inc(3)
        reg.counter("service.rejected", reason="queue-full").inc(1)
        reg.counter("service.completed", state="done").inc(5)
        reg.counter("service.completed", state="failed").inc(1)
        reg.counter("service.retries").inc(2)
        reg.gauge("service.admission.required").set(4200.0)
        reg.gauge("service.admission.capacity").set(1000.0)
        reg.counter("service.evalpool.hits").inc(7)
        reg.counter("service.evalpool.misses").inc(2)
        service = service_breakdown(reg.snapshot())
        assert service["submitted"] == 10
        assert service["accepted"] == 6
        assert service["rejected"] == {"infeasible": 3, "queue-full": 1}
        assert service["completed"] == {"done": 5, "failed": 1}
        assert service["retries"] == 2
        assert service["admission"]["required"] == 4200.0
        assert service["admission"]["capacity"] == 1000.0
        assert service["evalpool"]["hits"] == 7

    def test_empty_snapshot_is_all_zeros(self):
        service = service_breakdown(MetricsRegistry().snapshot())
        assert service["submitted"] == 0
        assert service["rejected"] == {}
        assert service["admission"]["capacity"] is None


class TestSimulationBreakdown:
    def test_groups_chain_fifo_and_workload_series(self, monkeypatch):
        """Chain series group by implementation and stage; a two-PE
        pipeline run reports its FIFO and PE2 as chain stage 0."""
        reg = MetricsRegistry()
        monkeypatch.setattr(chain_module, "registry", reg)
        reg.counter("sim.chain.runs", impl="event-driven").inc(1)
        reg.counter("sim.chain.items", impl="replay").inc(600)
        reg.gauge("sim.chain.high_water", stage=1).set_max(3)
        reg.counter("sim.chain.busy_seconds", stage=1).add(2.5)
        reg.counter("sim.workload.items", model="poisson").inc(512)
        # nine simultaneous arrivals into a 4-slot FIFO: five overflow
        replay_pipeline(np.zeros(9), np.ones(9), 1.0, capacity=4)
        sim = simulation_breakdown(reg.snapshot())
        assert sim["chain"]["runs"] == {"replay": 1, "event-driven": 1}
        assert sim["chain"]["item_stages"] == {"replay": 609}
        assert sim["chain"]["stages"]["0"] == {
            "high_water": 9,
            "overflows": 5,
            "busy_seconds": 9.0,
        }
        assert sim["chain"]["stages"]["1"] == {"high_water": 3, "busy_seconds": 2.5}
        assert sim["workload_items"] == {"poisson": 512}
        assert set(sim) == {"chain", "workload_items"}

    def test_empty_snapshot_is_empty(self):
        sim = simulation_breakdown(MetricsRegistry().snapshot())
        assert sim["chain"]["runs"] == {}
        assert sim["chain"]["stages"] == {}
        assert sim["workload_items"] == {}
        assert set(sim) == {"chain", "workload_items"}


class TestProfileReport:
    def test_schema_and_sections(self, tmp_path):
        records = [_span("k", 0.0, 0.5, 0)]
        reg = MetricsRegistry()
        reg.counter("cache.calls").inc()
        report = profile_report(records, reg.snapshot())
        assert report["schema"] == PROFILE_SCHEMA
        assert set(report) == {
            "schema", "trace", "stacks", "dispatch", "cache", "service",
            "simulation", "quantiles",
        }
        path = tmp_path / "profile.json"
        write_profile(report, path)
        assert json.loads(path.read_text())["schema"] == PROFILE_SCHEMA

    def test_trace_only_and_metrics_only(self):
        trace_only = profile_report([_span("k", 0.0, 0.5, 0)], None)
        assert "dispatch" not in trace_only and "trace" in trace_only
        metrics_only = profile_report(None, MetricsRegistry().snapshot())
        assert "trace" not in metrics_only and "cache" in metrics_only

    def test_read_trace_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        records = [_span("a", 0.0, 0.1, 0), _span("b", 0.1, 0.2, 1)]
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n\n")
        assert read_trace_jsonl(path) == records


class TestPrometheusText:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.counter("cache.hits", op="minplus.convolve").inc(3)
        reg.gauge("cache.entries").set(7)
        h = reg.histogram("kernel.seconds", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        text = prometheus_text(reg.snapshot())
        lines = text.splitlines()
        assert "# TYPE cache_hits_total counter" in lines
        assert 'cache_hits_total{op="minplus.convolve"} 3' in lines
        assert "# TYPE cache_entries gauge" in lines
        assert "cache_entries 7" in lines
        assert "# TYPE kernel_seconds histogram" in lines
        assert 'kernel_seconds_bucket{le="0.1"} 1' in lines
        assert 'kernel_seconds_bucket{le="1.0"} 2' in lines
        assert 'kernel_seconds_bucket{le="+Inf"} 3' in lines
        assert "kernel_seconds_count 3" in lines
        assert any(line.startswith("kernel_seconds_sum ") for line in lines)

    def test_bucket_series_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 2.0, 3.0))
        for v in (0.5, 1.5, 1.6, 2.5, 10.0):
            h.observe(v)
        text = prometheus_text(reg.snapshot())
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("h_bucket")
        ]
        assert counts == [1, 3, 4, 5]
        assert counts == sorted(counts)

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c", tag='say "hi"').inc()
        text = prometheus_text(reg.snapshot())
        assert 'c_total{tag="say \\"hi\\""} 1' in text

    def test_empty_snapshot_renders_empty(self):
        assert prometheus_text(MetricsRegistry().snapshot()) == ""

    def test_deterministic(self):
        reg = MetricsRegistry()
        reg.counter("a.b", x=1).inc()
        reg.counter("a.b", x=2).inc()
        assert prometheus_text(reg.snapshot()) == prometheus_text(reg.snapshot())
