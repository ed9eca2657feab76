"""Cache-correctness suite: counter accounting, opt-out parity, mutation
safety, eviction, and configuration of the kernel memo cache."""

from __future__ import annotations

import numpy as np
import pytest

import repro.perf as perf
from repro.core.workload import WorkloadCurve, WorkloadCurvePair
from repro.curves.arrival import leaky_bucket
from repro.curves.curve import PiecewiseLinearCurve, step_curve
from repro.curves.minplus import convolve, deconvolve, self_convolution_fixpoint
from repro.curves.service import rate_latency
from repro.obs.metrics import registry
from repro.perf.cache import KernelCache, digest_of, kernel_cache
from repro.util.staircase import (
    cumulative_envelope_max,
    cumulative_envelope_min,
    cumulative_envelope_minmax,
)


@pytest.fixture(autouse=True)
def fresh_perf_state():
    """Each test starts and ends with an empty, enabled cache."""
    perf.reset()
    perf.configure(enabled=True, max_entries=4096)
    yield
    perf.reset()
    perf.configure(enabled=True, max_entries=4096)


def _curves():
    return leaky_bucket(10.0, 2.0), rate_latency(5.0, 1.5)


class TestCounterAccounting:
    def test_hits_plus_misses_equals_calls(self):
        f, g = _curves()
        for _ in range(5):
            convolve(f, g)
        stats = perf.cache_stats()
        assert stats["hits"] + stats["misses"] == stats["calls"]
        per_op = stats["per_op"]["minplus.convolve"]
        assert per_op["misses"] == 1
        assert per_op["hits"] == 4

    def test_per_op_counters_are_separate(self):
        f, g = _curves()
        convolve(f, g)
        convolve(f, g)
        deconvolve(f, g)
        per_op = perf.cache_stats()["per_op"]
        assert per_op["minplus.convolve"] == {"hits": 1, "misses": 1}
        assert per_op["minplus.deconvolve"] == {"hits": 0, "misses": 1}

    def test_disabled_counts_bypasses_not_calls(self):
        f, g = _curves()
        perf.configure(enabled=False)
        convolve(f, g)
        convolve(f, g)
        stats = perf.cache_stats()
        assert stats["calls"] == 0
        assert stats["bypasses"] == 2

    def test_bypasses_are_counted_per_op(self):
        f, g = _curves()
        perf.configure(enabled=False)
        convolve(f, g)
        convolve(f, g)
        deconvolve(f, g)
        stats = perf.cache_stats()
        assert stats["per_op_bypasses"] == {"minplus.convolve": 2, "minplus.deconvolve": 1}
        assert stats["per_op"] == {}  # the two-key hit/miss rows stay untouched
        snapshot = registry.snapshot()
        published = {
            c["labels"]["op"]: c["value"]
            for c in snapshot["counters"]
            if c["name"] == "cache.op.bypasses"
        }
        assert published["minplus.convolve"] == 2
        assert published["minplus.deconvolve"] == 1
        perf.reset()
        assert perf.cache_stats()["per_op_bypasses"] == {}

    def test_reset_zeroes_the_published_per_op_series(self):
        """After ``perf.reset()`` the per-op series of ops not used since
        read 0, like the cache totals; an op used again reads its new count."""
        f, _ = _curves()
        self_convolution_fixpoint(f, iterations=2)
        before = registry.snapshot()
        assert any(
            c["name"] == "cache.op.misses" and c["value"] for c in before["counters"]
        )
        perf.reset()
        convolve(*_curves())
        after = {
            (c["name"], c["labels"].get("op")): c["value"]
            for c in registry.snapshot()["counters"]
            if c["name"].startswith("cache.") and set(c["labels"]) <= {"op"}
        }
        assert after[("cache.misses", None)] == 1
        assert after.pop(("cache.op.misses", "minplus.convolve")) == 1
        stale = {key: value for key, value in after.items() if key[1] is not None}
        assert stale and stale == dict.fromkeys(stale, 0)

    def test_instrumentation_counts_only_real_computes(self):
        f, g = _curves()
        convolve(f, g)
        convolve(f, g)  # hit: the kernel body must not run again
        assert registry.counter("kernel.calls", kernel="minplus.convolve").value == 1
        assert registry.counter("kernel.seconds", kernel="minplus.convolve").value >= 0.0


class TestDisabledParity:
    """Cache off must produce values identical to cache on (purity)."""

    @pytest.mark.parametrize(
        "op",
        [
            lambda f, g: convolve(f, g),
            lambda f, g: deconvolve(f, g),
            lambda f, g: self_convolution_fixpoint(f),
        ],
    )
    def test_minplus_identical_outputs(self, op):
        f, g = _curves()
        cached = op(f, g)
        perf.configure(enabled=False)
        plain = op(f, g)
        assert np.array_equal(cached.breakpoints, plain.breakpoints)
        assert np.array_equal(cached.values_at_breakpoints, plain.values_at_breakpoints)
        assert np.array_equal(cached.slopes, plain.slopes)

    def test_envelope_identical_outputs(self):
        rng = np.random.default_rng(7)
        demands = rng.uniform(1.0, 9.0, 200)
        ks = np.arange(1, 201)
        lo1, hi1 = cumulative_envelope_minmax(demands, ks)
        perf.configure(enabled=False)
        lo2, hi2 = cumulative_envelope_minmax(demands, ks)
        assert np.array_equal(lo1, lo2)
        assert np.array_equal(hi1, hi2)

    def test_workload_combine_and_inverse_identical(self):
        rng = np.random.default_rng(11)
        a = WorkloadCurve.from_demand_array(rng.uniform(1, 5, 60), "upper")
        b = WorkloadCurve.from_demand_array(rng.uniform(1, 5, 60), "upper")
        budgets = np.linspace(0.0, float(a(120)), 37)
        combined = a.max_with(b)
        inverted = a.pseudo_inverse(budgets)
        perf.configure(enabled=False)
        assert a.max_with(b) == combined
        assert np.array_equal(a.pseudo_inverse(budgets), inverted)


class TestMutationSafety:
    def test_curve_results_expose_only_copies(self):
        f, g = _curves()
        first = convolve(f, g)
        # the accessors hand out copies: scribbling over them must not
        # poison the cached master
        first.breakpoints[:] = -1.0
        first.values_at_breakpoints[:] = -1.0
        first.slopes[:] = -1.0
        second = convolve(f, g)
        assert np.all(second.breakpoints >= 0.0)
        assert np.all(second.values_at_breakpoints >= 0.0)

    def test_envelope_arrays_are_defensive_copies(self):
        demands = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        ks = np.array([1, 2, 3])
        out = cumulative_envelope_max(demands, ks)
        out[:] = -999.0
        again = cumulative_envelope_max(demands, ks)
        assert np.array_equal(again, np.array([5.0, 6.0, 10.0]))

    def test_pseudo_inverse_array_is_defensive_copy(self):
        curve = WorkloadCurve("upper", [1, 2, 3], [2.0, 4.0, 6.0])
        budgets = np.array([0.0, 2.0, 5.0])
        out = curve.pseudo_inverse(budgets)
        out[:] = -7
        assert np.array_equal(curve.pseudo_inverse(budgets), np.array([0, 1, 2]))

    def test_input_mutation_cannot_alias_cache(self):
        # step_curve copies its inputs into the immutable curve, and the
        # digest is taken from the curve's own arrays — mutating the
        # original input array afterwards must not change what is cached
        positions = np.array([1.0, 2.0, 3.0])
        alpha = step_curve(positions)
        beta = rate_latency(4.0, 0.5)
        first = convolve(alpha, beta)
        positions[:] = 99.0
        assert convolve(alpha, beta) == first


class TestEvictionAndConfig:
    def test_lru_eviction_counts(self):
        cache = KernelCache(max_entries=2)
        for i in range(4):
            cache.get_or_compute(("op", i), lambda i=i: i * 10)
        assert cache.evictions == 2
        assert len(cache) == 2
        # oldest entries are gone: recompute is a miss
        cache.get_or_compute(("op", 0), lambda: 0)
        assert cache.misses == 5

    def test_lru_order_refreshed_by_hits(self):
        cache = KernelCache(max_entries=2)
        cache.get_or_compute(("op", "a"), lambda: 1)
        cache.get_or_compute(("op", "b"), lambda: 2)
        cache.get_or_compute(("op", "a"), lambda: 1)  # refresh a
        cache.get_or_compute(("op", "c"), lambda: 3)  # evicts b, not a
        assert cache.get_or_compute(("op", "a"), lambda: -1) == 1
        assert cache.hits == 2

    def test_clear_drops_entries_keeps_counters(self):
        f, g = _curves()
        convolve(f, g)
        perf.clear_cache()
        stats = perf.cache_stats()
        assert stats["entries"] == 0
        assert stats["misses"] == 1
        convolve(f, g)
        assert perf.cache_stats()["misses"] == 2

    def test_configure_rejects_bad_size(self):
        with pytest.raises(ValueError):
            perf.configure(max_entries=0)


class TestDigests:
    def test_digest_distinguishes_dtype_and_shape(self):
        a = np.array([1.0, 2.0])
        assert digest_of(a) != digest_of(a.astype(np.int64))
        assert digest_of(np.zeros(4)) != digest_of(np.zeros((2, 2)))

    def test_digest_distinguishes_operand_order(self):
        f, g = _curves()
        assert digest_of(f.content_digest(), g.content_digest()) != digest_of(
            g.content_digest(), f.content_digest()
        )

    def test_allclose_curves_do_not_collide(self):
        a = PiecewiseLinearCurve([0.0], [1.0], [2.0])
        b = PiecewiseLinearCurve([0.0], [1.0 + 1e-12], [2.0])
        assert a == b  # approximate equality...
        assert a.content_digest() != b.content_digest()  # ...exact digests

    def test_envelope_cache_keys_per_side(self):
        """A pair is one two-sided entry; a single curve is an entry of its
        own side and counts its window lengths under that side's op only."""
        demands = np.arange(1.0, 41.0)
        ks = np.arange(1, 41)
        ops = ("envelope_minmax", "envelope_max", "envelope_min")

        def per_op():
            stats = perf.cache_stats()["per_op"]
            return {op: stats.get(f"staircase.{op}") for op in ops}

        def lengths():
            return {
                op: sum(
                    registry.counter("staircase.window_lengths", op=op, path=path).value
                    for path in ("anchor", "pruned", "fallback")
                )
                for op in ops
            }

        WorkloadCurvePair.from_demand_array(demands, k_values=ks)
        assert per_op() == {
            "envelope_minmax": {"hits": 0, "misses": 1}, "envelope_max": None, "envelope_min": None
        }
        WorkloadCurvePair.from_demand_array(demands, k_values=ks)
        pair = {"hits": 1, "misses": 1}
        assert per_op()["envelope_minmax"] == pair
        sides = {"envelope_max": cumulative_envelope_max, "envelope_min": cumulative_envelope_min}
        for op, extract in sides.items():
            before = lengths()
            extract(demands, ks)
            after = lengths()
            assert per_op()[op] == {"hits": 0, "misses": 1}
            assert per_op()["envelope_minmax"] == pair
            assert {o: after[o] - before[o] for o in ops} == {
                o: ks.size if o == op else 0 for o in ops
            }
