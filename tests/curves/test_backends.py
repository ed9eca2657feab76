"""Backend registry semantics: selection, env-var inheritance, cache
compatibility tags, and the batched ``convolve_many`` partition/fallback
logic (tail-homogeneous partitions, per-partition generic fallback)."""

from __future__ import annotations

import os

import numpy as np
import pytest

import repro.perf as perf
from repro.curves import backends as backends_mod
from repro.curves.backends import (
    BACKEND_ENV_VAR,
    KernelBackend,
    active_backend,
    get_backend,
    register_backend,
    registered_backends,
    set_backend,
    use_backend,
)
from repro.curves.curve import PiecewiseLinearCurve
from repro.curves.minplus import _convolve_key, convolve
from repro.obs.metrics import registry as metrics_registry
from repro.perf.batch import convolve_many, convolve_reduce
from repro.perf.cache import kernel_cache
from repro.util.validation import ValidationError


@pytest.fixture(autouse=True)
def fresh_perf_state():
    perf.reset()
    perf.configure(enabled=True)
    yield
    perf.reset()


def general_curve(seed: float = 0.0):
    """A curve with an interior jump and non-monotone slopes: no fast
    path applies, so dispatch must route through the active backend."""
    return PiecewiseLinearCurve(
        [0.0, 1.0 + seed, 2.0 + seed],
        [0.0, 4.0 + 3.0 * seed, 5.0 + 3.0 * seed],
        [3.0, 0.25, 1.0],
    )


def saturating_curve(seed: float = 0.0):
    """General curve with a zero asymptotic slope (saturating tail)."""
    return PiecewiseLinearCurve(
        [0.0, 1.0 + seed, 2.0 + seed],
        [0.0, 3.0 + seed, 3.5 + seed],
        [2.0, 0.5, 0.0],
    )


class TestRegistry:
    def test_builtins_registered(self):
        names = set(registered_backends())
        assert {"numpy", "soa"} <= names

    def test_numpy_and_soa_always_available(self):
        for name in ("numpy", "soa"):
            with use_backend(name):
                assert active_backend().name == name

    def test_unknown_backend_lists_known_names(self):
        with pytest.raises(ValidationError, match="numpy"):
            get_backend("does-not-exist")

    def test_abstract_name_rejected(self):
        with pytest.raises(ValidationError):
            register_backend(KernelBackend())

    def test_use_backend_restores_active_and_env(self):
        before = active_backend().name
        prev_env = os.environ.get(BACKEND_ENV_VAR)
        with use_backend("soa"):
            assert active_backend().name == "soa"
            assert os.environ[BACKEND_ENV_VAR] == "soa"
        assert active_backend().name == before
        assert os.environ.get(BACKEND_ENV_VAR) == prev_env

    def test_use_backend_none_is_noop(self):
        before = active_backend().name
        with use_backend(None) as backend:
            assert backend.name == before
        assert active_backend().name == before

    def test_configure_selects_backend(self):
        before = active_backend().name
        try:
            perf.configure(backend="soa")
            assert active_backend().name == "soa"
        finally:
            set_backend(before)

    def test_backend_calls_are_counted(self):
        f, g = general_curve(), general_curve(0.3)
        with use_backend("soa"):
            convolve(f, g)
        counter = metrics_registry.counter(
            "minplus.backend.calls", backend="soa", op="convolve"
        )
        assert counter.value >= 1


class TestCacheCompatTags:
    def test_generic_keys_differ_across_backends(self):
        f, g = general_curve(), general_curve(0.3)
        with use_backend("numpy"):
            key_np = _convolve_key(f, g)
        with use_backend("soa"):
            key_soa = _convolve_key(f, g)
        assert key_np != key_soa
        assert any("backend:" in str(part) for part in key_np)

    def test_fast_path_keys_are_backend_free(self):
        f = PiecewiseLinearCurve([0.0], [1.0], [2.0])
        g = PiecewiseLinearCurve([0.0], [0.5], [3.0])
        with use_backend("numpy"):
            key_np = _convolve_key(f, g)
        with use_backend("soa"):
            key_soa = _convolve_key(f, g)
        assert key_np == key_soa

    def test_lookup_put_roundtrip_and_accounting(self):
        key = ("test.lookup", "x")
        found, value = kernel_cache.lookup(key)
        assert not found and value is None
        kernel_cache.put(key, 42)
        found, value = kernel_cache.lookup(key)
        assert found and value == 42
        stats = perf.cache_stats()
        assert stats["per_op"]["test.lookup"]["hits"] == 1
        assert stats["per_op"]["test.lookup"]["misses"] == 1


class _RefusingBackend(KernelBackend):
    """Batched backend that always refuses its batch entry point;
    delegates per-pair work to the reference kernel so results stay
    comparable (and shares its compat tag: same numerical contract)."""

    name = "refusing-test"
    compat_tag = "numpy"
    supports_batch = True

    def _convolve(self, f, g):
        from repro.curves import minplus

        return minplus._convolve_impl(f, g)

    def _deconvolve(self, f, g):
        from repro.curves import minplus

        return minplus._deconvolve_impl(f, g)

    def _convolve_batch(self, pairs):
        raise ValidationError("refusing batch on purpose")


@pytest.fixture
def refusing_backend():
    backend = register_backend(_RefusingBackend())
    try:
        yield backend
    finally:
        backends_mod._REGISTRY.pop(backend.name, None)


class TestConvolveManyPartitions:
    def _mixed_pairs(self):
        # two tail regimes in one batch: the SoA kernel only accepts
        # tail-homogeneous batches, so convolve_many must partition
        return [
            (general_curve(), general_curve(0.3)),
            (saturating_curve(), general_curve(0.1)),
            (saturating_curve(0.2), saturating_curve(0.5)),
            (general_curve(0.7), general_curve(0.9)),
        ]

    def test_mixed_tails_match_per_pair_reference(self):
        pairs = self._mixed_pairs()
        with use_backend("numpy"):
            expected = [convolve(f, g) for f, g in pairs]
        perf.reset()
        perf.configure(enabled=True)
        with use_backend("soa"):
            got = convolve_many(pairs)
        pts = np.linspace(0.0, 8.0, 33)
        for e, o in zip(expected, got):
            np.testing.assert_allclose(o(pts), e(pts), rtol=1e-12, atol=1e-12)

    def test_soa_refuses_mixed_batch_directly(self):
        from repro.curves import soa

        with pytest.raises(ValidationError):
            soa.convolve_batch_soa(self._mixed_pairs())

    def test_refused_partition_falls_back_per_partition(self, refusing_backend):
        pairs = self._mixed_pairs()
        with use_backend("numpy"):
            expected = [convolve(f, g) for f, g in pairs]
        perf.reset()
        perf.configure(enabled=True)
        with use_backend(refusing_backend.name):
            got = convolve_many(pairs)
        pts = np.linspace(0.0, 8.0, 33)
        for e, o in zip(expected, got):
            np.testing.assert_allclose(o(pts), e(pts), rtol=1e-12, atol=1e-12)
        fallback = metrics_registry.counter(
            "minplus.batch.fallback", backend=refusing_backend.name
        )
        # one fallback per tail-regime partition, not one global bailout
        assert fallback.value == 2

    def test_duplicate_pairs_share_one_kernel_call(self):
        f, g = general_curve(), general_curve(0.3)
        batch_calls = metrics_registry.counter(
            "minplus.backend.calls", backend="soa", op="convolve_batch"
        )
        before = batch_calls.value
        with use_backend("soa"):
            got = convolve_many([(f, g)] * 5)
        # every duplicate probes the cache (5 recorded misses) but the
        # kernel itself runs once, in a single batched call
        per_op = perf.cache_stats()["per_op"]["minplus.convolve"]
        assert per_op["misses"] == 5
        assert batch_calls.value == before + 1
        pts = np.linspace(0.0, 8.0, 17)
        for o in got[1:]:
            np.testing.assert_allclose(o(pts), got[0](pts), rtol=0, atol=0)

    def test_convolve_reduce_mixed_tails_across_backends(self):
        curves = [
            general_curve(),
            saturating_curve(0.1),
            general_curve(0.4),
            saturating_curve(0.6),
            general_curve(0.8),
        ]
        with use_backend("numpy"):
            expected = convolve_reduce(curves)
        perf.reset()
        perf.configure(enabled=True)
        with use_backend("soa"):
            got = convolve_reduce(curves)
        pts = np.linspace(0.0, 10.0, 41)
        np.testing.assert_allclose(got(pts), expected(pts), rtol=1e-9, atol=1e-9)
