"""``convolve_many`` and ``convolve_reduce`` on generic pairs: mixed tail
regimes against the oracle, duplicate-pair accounting, and the SoA
kernel's tail-homogeneity check on multi-pair lists."""

from __future__ import annotations

import numpy as np
import pytest

import repro.perf as perf
from repro.curves.curve import PiecewiseLinearCurve
from repro.curves.minplus import convolve_generic
from repro.obs.metrics import registry as metrics_registry
from repro.obs.profile import profile_report
from repro.perf.batch import convolve_many, convolve_reduce
from repro.util.validation import ValidationError


@pytest.fixture(autouse=True)
def fresh_perf_state():
    perf.reset()
    perf.configure(enabled=True)
    yield
    perf.reset()


def general_curve(seed: float = 0.0):
    """A curve with an interior jump and non-monotone slopes: no fast
    path applies, so dispatch must route through the generic kernel."""
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


class TestConvolveManyPartitions:
    def _mixed_pairs(self):
        # two tail regimes in one list: the SoA kernel only accepts
        # tail-homogeneous multi-pair lists, convolve_many any list
        return [
            (general_curve(), general_curve(0.3)),
            (saturating_curve(), general_curve(0.1)),
            (saturating_curve(0.2), saturating_curve(0.5)),
            (general_curve(0.7), general_curve(0.9)),
        ]

    def test_mixed_tails_match_per_pair_reference(self):
        pairs = self._mixed_pairs()
        expected = [convolve_generic(f, g) for f, g in pairs]
        got = convolve_many(pairs)
        pts = np.linspace(0.0, 8.0, 33)
        for e, o in zip(expected, got):
            np.testing.assert_allclose(o(pts), e(pts), rtol=1e-12, atol=1e-12)

    def test_soa_refuses_mixed_batch_directly(self):
        from repro.curves import soa

        with pytest.raises(ValidationError):
            soa.convolve_batch_soa(self._mixed_pairs())

    def test_duplicate_pairs_share_one_kernel_call(self):
        f, g = general_curve(), general_curve(0.3)
        metrics_registry.reset("minplus.")
        got = convolve_many([(f, g)] * 6)
        # the first pair computes, the five duplicates hit the memo cache
        per_op = perf.cache_stats()["per_op"]["minplus.convolve"]
        assert per_op == {"hits": 5, "misses": 1}
        calls = metrics_registry.counter("kernel.calls", kernel="minplus.convolve")
        assert calls.value == 1
        generic = metrics_registry.counter(
            "minplus.dispatch", op="convolve", regime="generic"
        )
        assert generic.value == 1
        for o in got[1:]:
            assert o is got[0]
        # the consistency line of ``obs report``: dispatches == memo misses
        dispatch = profile_report(metrics_snapshot=metrics_registry.snapshot())[
            "dispatch"
        ]
        total = sum(sum(r.values()) for r in dispatch["regimes"].values())
        assert total == dispatch["memo"]["misses"] == 1

    def test_convolve_reduce_mixed_tails_across_backends(self):
        curves = [
            general_curve(),
            saturating_curve(0.1),
            general_curve(0.4),
            saturating_curve(0.6),
            general_curve(0.8),
        ]
        expected = curves[0]
        for c in curves[1:]:
            expected = convolve_generic(expected, c)
        got = convolve_reduce(curves)
        pts = np.linspace(0.0, 10.0, 41)
        np.testing.assert_allclose(got(pts), expected(pts), rtol=1e-9, atol=1e-9)
