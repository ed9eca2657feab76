"""Unit tests for repro.core.operations (closures and envelopes)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.operations import (
    envelope_lower,
    envelope_upper,
    subadditive_closure,
    superadditive_closure,
)
from repro.core.validation import check_subadditive, check_superadditive
from repro.core.workload import WorkloadCurve
from repro.util.validation import ValidationError

demands_lists = st.lists(st.floats(min_value=0.5, max_value=20.0), min_size=2, max_size=40)


class TestSubadditiveClosure:
    def test_trace_curve_is_fixpoint(self):
        up = WorkloadCurve.from_demand_array([3, 1, 4, 1, 5], "upper")
        closed = subadditive_closure(up)
        ks = np.arange(1, 6)
        assert np.allclose(closed(ks), up(ks))

    def test_tightens_violations(self):
        # γ(2) = 10 > 2·γ(1): not sub-additive, closure caps it at 8
        raw = WorkloadCurve("upper", [1, 2, 3], [4.0, 10.0, 11.0])
        closed = subadditive_closure(raw)
        assert closed(2) == 8.0
        assert check_subadditive(closed).ok

    def test_never_increases(self):
        raw = WorkloadCurve("upper", [1, 2, 3, 4], [4.0, 9.0, 13.0, 18.0])
        closed = subadditive_closure(raw)
        ks = np.arange(1, 5)
        assert np.all(closed(ks) <= raw(ks) + 1e-12)

    def test_kind_enforced(self):
        lo = WorkloadCurve("lower", [1], [1.0])
        with pytest.raises(ValidationError):
            subadditive_closure(lo)

    @given(demands_lists)
    def test_result_always_subadditive(self, demands):
        raw = WorkloadCurve("upper", np.arange(1, len(demands) + 1),
                            np.cumsum(np.abs(demands)) + np.arange(len(demands)) * 0.1 + 1)
        closed = subadditive_closure(raw)
        assert check_subadditive(closed).ok


class TestSuperadditiveClosure:
    def test_raises_violations(self):
        raw = WorkloadCurve("lower", [1, 2, 3], [3.0, 4.0, 5.0])
        closed = superadditive_closure(raw)
        assert closed(2) == 6.0  # lifted to γ(1)+γ(1)
        assert check_superadditive(closed).ok

    def test_never_decreases(self):
        raw = WorkloadCurve("lower", [1, 2, 3], [1.0, 2.5, 3.5])
        closed = superadditive_closure(raw)
        ks = np.arange(1, 4)
        assert np.all(closed(ks) >= raw(ks) - 1e-12)

    def test_kind_enforced(self):
        up = WorkloadCurve("upper", [1], [1.0])
        with pytest.raises(ValidationError):
            superadditive_closure(up)


class TestEnvelopes:
    def test_upper_envelope(self):
        a = WorkloadCurve("upper", [1, 2], [4.0, 6.0])
        b = WorkloadCurve("upper", [1, 2], [3.0, 7.0])
        env = envelope_upper([a, b])
        assert env(1) == 4.0 and env(2) == 7.0

    def test_lower_envelope(self):
        a = WorkloadCurve("lower", [1, 2], [2.0, 5.0])
        b = WorkloadCurve("lower", [1, 2], [1.0, 6.0])
        env = envelope_lower([a, b])
        assert env(1) == 1.0 and env(2) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            envelope_upper([])

    def test_kind_mismatch(self):
        lo = WorkloadCurve("lower", [1], [1.0])
        with pytest.raises(ValidationError):
            envelope_upper([lo])
