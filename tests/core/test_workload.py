"""Unit tests for repro.core.workload (Definition 1 and §2.1 properties)."""

import numpy as np
import pytest

from repro.core.events import ExecutionProfile
from repro.core.trace import EventTrace
from repro.core.workload import WorkloadCurve, WorkloadCurvePair
from repro.util.validation import ValidationError

PROFILE = ExecutionProfile({"a": (2, 4), "b": (1, 3), "c": (1, 3)})


@pytest.fixture
def fig1_pair():
    trace = EventTrace.from_type_names("ababccaac", PROFILE)
    return WorkloadCurvePair.from_trace(trace, demands="interval")


class TestConstruction:
    def test_basic(self):
        c = WorkloadCurve("upper", [1, 2, 3], [4.0, 8.0, 11.0])
        assert c.kind == "upper"
        assert c.horizon == 3

    def test_bad_kind(self):
        with pytest.raises(ValidationError):
            WorkloadCurve("sideways", [1], [1.0])

    def test_k_must_start_at_one_or_later(self):
        with pytest.raises(ValidationError):
            WorkloadCurve("upper", [0, 1], [0.0, 1.0])

    def test_plateau_allowed_for_resampled_curves(self):
        # the conservative grid rule can produce plateaus; they are valid
        WorkloadCurve("upper", [1, 2], [3.0, 3.0])

    def test_decreasing_values_rejected(self):
        with pytest.raises(ValidationError):
            WorkloadCurve("upper", [1, 2], [3.0, 2.0])

    def test_values_positive(self):
        with pytest.raises(ValidationError):
            WorkloadCurve("upper", [1, 2], [0.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            WorkloadCurve("upper", [1, 2], [1.0])

    def test_from_constant_is_linear(self):
        c = WorkloadCurve.from_constant("upper", 5.0, horizon=10)
        ks = np.arange(0, 30)
        assert np.allclose(c(ks), 5.0 * ks)

    def test_from_demand_array(self):
        c = WorkloadCurve.from_demand_array([3.0, 1.0, 4.0], "upper")
        assert c(1) == 4.0
        assert c(2) == 5.0
        assert c(3) == 8.0

    def test_from_demand_array_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            WorkloadCurve.from_demand_array([1.0, 0.0], "upper")


class TestEvaluation:
    def test_zero_is_zero(self, fig1_pair):
        assert fig1_pair.upper(0) == 0.0
        assert fig1_pair.lower(0) == 0.0

    def test_negative_rejected(self, fig1_pair):
        with pytest.raises(ValidationError):
            fig1_pair.upper(-1)

    def test_fractional_rejected(self, fig1_pair):
        with pytest.raises(ValidationError):
            fig1_pair.upper(1.5)

    def test_scalar_and_array(self, fig1_pair):
        assert isinstance(fig1_pair.upper(3), float)
        out = fig1_pair.upper(np.array([1, 2, 3]))
        assert out.shape == (3,)

    def test_figure1_upper_values(self, fig1_pair):
        # worst windows of the sequence a b a b c c a a c (wcet 4/3/3)
        assert fig1_pair.upper(1) == 4.0
        assert fig1_pair.upper(2) == 8.0  # 'aa' at positions 7-8... a,a = 4+4
        assert fig1_pair.upper(3) == 11.0

    def test_figure1_lower_values(self, fig1_pair):
        assert fig1_pair.lower(1) == 1.0
        assert fig1_pair.lower(2) == 2.0  # 'cc' = 1+1

    def test_additive_extension_upper(self, fig1_pair):
        K = fig1_pair.upper.horizon
        vK = fig1_pair.upper(K)
        assert fig1_pair.upper(2 * K) == pytest.approx(2 * vK)
        assert fig1_pair.upper(2 * K + 3) == pytest.approx(2 * vK + fig1_pair.upper(3))

    def test_additive_extension_lower(self, fig1_pair):
        K = fig1_pair.lower.horizon
        vK = fig1_pair.lower(K)
        assert fig1_pair.lower(3 * K + 1) == pytest.approx(3 * vK + fig1_pair.lower(1))

    def test_sparse_grid_conservative(self):
        dense = WorkloadCurve("upper", [1, 2, 3, 4], [4.0, 7.0, 9.0, 12.0])
        sparse = WorkloadCurve("upper", [1, 4], [4.0, 12.0])
        ks = np.arange(1, 5)
        assert np.all(sparse(ks) >= dense(ks) - 1e-12)

    def test_sparse_grid_lower_conservative(self):
        dense = WorkloadCurve("lower", [1, 2, 3, 4], [1.0, 3.0, 5.0, 8.0])
        sparse = WorkloadCurve("lower", [1, 4], [1.0, 8.0])
        ks = np.arange(1, 5)
        assert np.all(sparse(ks) <= dense(ks) + 1e-12)


class TestPseudoInverse:
    """The §2.1 pseudo-inverse properties (dense grids → exact)."""

    def test_upper_inverse_definition(self, fig1_pair):
        up = fig1_pair.upper
        for e in [0.0, 3.9, 4.0, 10.0, 31.0, 35.0, 100.0]:
            k = up.pseudo_inverse(e)
            assert up(k) <= e + 1e-9
            assert up(k + 1) > e - 1e-9

    def test_lower_inverse_definition(self, fig1_pair):
        lo = fig1_pair.lower
        for e in [0.5, 1.0, 2.5, 13.0, 26.5, 100.0]:
            k = lo.pseudo_inverse(e)
            assert lo(k) >= e - 1e-9
            if k > 0:
                assert lo(k - 1) < e + 1e-9

    def test_galois_roundtrip(self, fig1_pair):
        ks = np.arange(1, 30)
        assert np.all(fig1_pair.upper.pseudo_inverse(fig1_pair.upper(ks)) == ks)
        assert np.all(fig1_pair.lower.pseudo_inverse(fig1_pair.lower(ks)) == ks)

    def test_inverse_zero(self, fig1_pair):
        assert fig1_pair.upper.pseudo_inverse(0.0) == 0
        assert fig1_pair.lower.pseudo_inverse(0.0) == 0

    def test_inverse_rejects_negative(self, fig1_pair):
        with pytest.raises(ValidationError):
            fig1_pair.upper.pseudo_inverse(-1.0)

    def test_vectorized(self, fig1_pair):
        out = fig1_pair.upper.pseudo_inverse(np.array([0.0, 10.0, 100.0]))
        assert out.dtype == np.int64 and out.shape == (3,)


class TestProperties:
    def test_wcet_bcet_identities(self, fig1_pair):
        # the paper's (corrected) identities: wcet = γ^u(1), bcet = γ^l(1)
        assert fig1_pair.wcet == 4.0
        assert fig1_pair.bcet == 1.0

    def test_upper_below_wcet_line(self, fig1_pair):
        ks = np.arange(1, 10)
        assert np.all(fig1_pair.upper(ks) <= ks * fig1_pair.wcet + 1e-9)

    def test_lower_above_bcet_line(self, fig1_pair):
        ks = np.arange(1, 10)
        assert np.all(fig1_pair.lower(ks) >= ks * fig1_pair.bcet - 1e-9)

    def test_long_run_rate(self, fig1_pair):
        up = fig1_pair.upper
        assert up.long_run_rate == pytest.approx(up(up.horizon) / up.horizon)

    def test_dominates(self, fig1_pair):
        wcet_line = WorkloadCurve.from_constant("upper", fig1_pair.wcet, horizon=9)
        assert wcet_line.dominates(fig1_pair.upper)
        assert not fig1_pair.lower.dominates(
            WorkloadCurve.from_constant("lower", fig1_pair.wcet, horizon=9)
        )


class TestAlgebra:
    def test_scale(self, fig1_pair):
        doubled = fig1_pair.upper.scale(2.0)
        ks = np.arange(0, 12)
        assert np.allclose(doubled(ks), 2.0 * fig1_pair.upper(ks))

    def test_max_with(self):
        a = WorkloadCurve("upper", [1, 2], [4.0, 6.0])
        b = WorkloadCurve("upper", [1, 2], [3.0, 7.0])
        m = a.max_with(b)
        assert m(1) == 4.0 and m(2) == 7.0

    def test_min_with(self):
        a = WorkloadCurve("lower", [1, 2], [1.0, 4.0])
        b = WorkloadCurve("lower", [1, 2], [2.0, 3.0])
        m = a.min_with(b)
        assert m(1) == 1.0 and m(2) == 3.0

    def test_add(self):
        a = WorkloadCurve("upper", [1, 2], [4.0, 6.0])
        s = a.add(a)
        assert s(2) == 12.0

    def test_kind_mismatch_rejected(self):
        a = WorkloadCurve("upper", [1], [1.0])
        b = WorkloadCurve("lower", [1], [1.0])
        with pytest.raises(ValidationError):
            a.max_with(b)

    def test_to_dense(self):
        sparse = WorkloadCurve("upper", [1, 4], [4.0, 12.0])
        dense = sparse.to_dense()
        assert list(dense.k_values) == [1, 2, 3, 4]

    def test_equality(self):
        a = WorkloadCurve("upper", [1, 2], [1.0, 2.0])
        assert a == WorkloadCurve("upper", [1, 2], [1.0, 2.0])
        assert a != WorkloadCurve("upper", [1, 2], [1.0, 2.5])


class TestPair:
    def test_kind_checked(self):
        up = WorkloadCurve("upper", [1], [4.0])
        with pytest.raises(ValidationError):
            WorkloadCurvePair(up, up)

    def test_crossing_curves_rejected(self):
        up = WorkloadCurve("upper", [1, 2], [1.0, 2.0])
        lo = WorkloadCurve("lower", [1, 2], [3.0, 4.0])
        with pytest.raises(ValidationError, match="exceeds upper"):
            WorkloadCurvePair(up, lo)

    def test_crossing_between_grid_points_rejected(self):
        """On different grids the curves are compared at every k up to
        the shorter horizon: at k = 3, off the upper grid, the upper curve
        takes its value at 4 (4.0) and the lower one is 5.0."""
        up = WorkloadCurve("upper", [1, 2, 4], [1.0, 2.0, 4.0])
        lo = WorkloadCurve("lower", [1, 3], [1.0, 5.0])
        with pytest.raises(ValidationError, match="exceeds upper"):
            WorkloadCurvePair(up, lo)
        # on a shared sparse grid the samples decide every k between them
        WorkloadCurvePair(
            WorkloadCurve("upper", [1, 4], [2.0, 6.0]),
            WorkloadCurve("lower", [1, 4], [2.0, 6.0]),
        )

    def test_gain_over_wcet(self, fig1_pair):
        assert fig1_pair.gain_over_wcet(1) == pytest.approx(0.0)
        assert 0.0 < fig1_pair.gain_over_wcet(9) < 1.0

    def test_from_demand_array_pair(self):
        pair = WorkloadCurvePair.from_demand_array([2.0, 5.0, 3.0])
        assert pair.wcet == 5.0 and pair.bcet == 2.0


class TestStreamingExtraction:
    """from_demand_stream must be bit-identical to from_demand_array."""

    DEMANDS = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0])

    def _chunks(self, size):
        for start in range(0, self.DEMANDS.size, size):
            yield self.DEMANDS[start : start + size]

    @pytest.mark.parametrize("chunk", [1, 3, 4, 10, 100])
    def test_curve_bit_identical(self, chunk):
        for kind in ("upper", "lower"):
            one_shot = WorkloadCurve.from_demand_array(self.DEMANDS, kind)
            streamed = WorkloadCurve.from_demand_stream(
                self._chunks(chunk), kind, total=self.DEMANDS.size
            )
            assert np.array_equal(streamed.k_values, one_shot.k_values)
            assert np.array_equal(
                streamed(streamed.k_values), one_shot(one_shot.k_values)
            )

    def test_pair_bit_identical(self):
        one_shot = WorkloadCurvePair.from_demand_array(self.DEMANDS)
        streamed = WorkloadCurvePair.from_demand_stream(
            self._chunks(3), total=self.DEMANDS.size
        )
        ks = one_shot.upper.k_values
        assert np.array_equal(streamed.upper(ks), one_shot.upper(ks))
        assert np.array_equal(streamed.lower(ks), one_shot.lower(ks))
        assert streamed.wcet == one_shot.wcet
        assert streamed.bcet == one_shot.bcet

    def test_explicit_k_grid(self):
        ks = np.array([1, 4, 10], dtype=np.int64)
        one_shot = WorkloadCurve.from_demand_array(self.DEMANDS, "upper", k_values=ks)
        streamed = WorkloadCurve.from_demand_stream(
            self._chunks(4), "upper", k_values=ks
        )
        assert np.array_equal(streamed(ks), one_shot(ks))

    def test_needs_grid_or_total(self):
        with pytest.raises(ValidationError, match="k_values or total"):
            WorkloadCurve.from_demand_stream(self._chunks(3), "upper")

    def test_nonpositive_demand_rejected(self):
        with pytest.raises(ValidationError):
            WorkloadCurve.from_demand_stream(
                iter([[1.0, -2.0]]), "upper", k_values=np.array([1])
            )
