"""Unit tests for the synthetic clip generator."""

import itertools
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.workload import WorkloadCurvePair
from repro.experiments.ablation_variability import _model_with_stalls
from repro.mpeg.bitstream import ClipData, ClipProfile, SyntheticClip, _front_end_recursion
from repro.mpeg.clips import CLIP_PROFILES
from repro.mpeg.macroblock import CodingClass, FrameType
from repro.obs.metrics import registry
from repro.reference import completion_times_brute
from repro.util.validation import ValidationError

PROFILE = ClipProfile("test", seed=42, activity=0.6, motion=0.7, texture=0.5)


@pytest.fixture(scope="module")
def clip():
    c = SyntheticClip(PROFILE, frames=12)
    c.generate()
    return c


class TestProfile:
    def test_ranges_validated(self):
        with pytest.raises(ValidationError):
            ClipProfile("x", seed=1, activity=1.5, motion=0.5, texture=0.5)

    def test_name_required(self):
        with pytest.raises(ValidationError):
            ClipProfile("", seed=1, activity=0.5, motion=0.5, texture=0.5)


class TestGeneration:
    def test_deterministic(self):
        a = SyntheticClip(PROFILE, frames=3).generate()
        b = SyntheticClip(PROFILE, frames=3).generate()
        assert np.array_equal(a.pe2_cycles, b.pe2_cycles)
        assert np.array_equal(a.pe1_output, b.pe1_output)

    def test_different_seeds_differ(self):
        other = ClipProfile("other", seed=43, activity=0.6, motion=0.7, texture=0.5)
        a = SyntheticClip(PROFILE, frames=3).generate()
        b = SyntheticClip(other, frames=3).generate()
        assert not np.array_equal(a.pe2_cycles, b.pe2_cycles)

    def test_size(self, clip):
        data = clip.generate()
        assert data.n_macroblocks == 12 * 1620

    def test_cached(self, clip):
        assert clip.generate() is clip.generate()

    def test_cbr_total(self, clip):
        data = clip.generate()
        rate = data.bits.sum() / clip.duration()
        assert rate == pytest.approx(9.78e6, rel=0.05)

    def test_i_frames_all_intra(self, clip):
        data = clip.generate()
        i_mbs = data.frame_type_code == 0
        assert np.all(data.coding_code[i_mbs] == 0)

    def test_skipped_have_no_blocks(self, clip):
        data = clip.generate()
        skipped = data.coding_code == 2
        assert np.all(data.coded_blocks[skipped] == 0)

    def test_intra_have_blocks(self, clip):
        data = clip.generate()
        intra = data.coding_code == 0
        assert np.all(data.coded_blocks[intra] >= 1)

    def test_timing_monotone_and_causal(self, clip):
        data = clip.generate()
        assert np.all(np.diff(data.bit_arrival) >= 0)
        assert np.all(np.diff(data.pe1_output) > 0)
        assert np.all(data.pe1_output >= data.bit_arrival - 1e-12)

    def test_pe1_keeps_up_roughly(self, clip):
        data = clip.generate()
        # output ends close to the nominal duration: PE1 is provisioned to
        # keep up with the CBR front end
        assert data.pe1_output[-1] < clip.duration() * 1.2

    def test_demands_positive(self, clip):
        data = clip.generate()
        assert np.all(data.pe1_cycles > 0)
        assert np.all(data.pe2_cycles > 0)


class TestTraces:
    def test_pe2_trace_consistent(self):
        small = SyntheticClip(PROFILE, frames=1)
        trace = small.pe2_trace()
        data = small.generate()
        assert len(trace) == data.n_macroblocks
        assert np.allclose(trace.measured_demands(), data.pe2_cycles)
        assert np.allclose(trace.timestamps, data.pe1_output)

    def test_pe1_trace_timestamps_are_bit_arrivals(self):
        small = SyntheticClip(PROFILE, frames=1)
        trace = small.pe1_trace()
        data = small.generate()
        assert np.allclose(trace.timestamps, data.bit_arrival)

    def test_demands_within_profile_intervals(self):
        # EventTrace validates every event against the profile intervals
        small = SyntheticClip(PROFILE, frames=2)
        small.pe1_trace()
        small.pe2_trace()  # would raise on violation

    def test_macroblock_objects(self):
        small = SyntheticClip(PROFILE, frames=1)
        mbs = list(small.macroblocks())
        assert len(mbs) == 1620
        assert all(mb.frame_type is FrameType.I for mb in mbs)  # first frame

    def test_workload_curve_extraction(self):
        small = SyntheticClip(PROFILE, frames=2)
        data = small.generate()
        pair = WorkloadCurvePair.from_demand_array(data.pe2_cycles)
        assert pair.wcet == pytest.approx(data.pe2_cycles.max())
        assert pair.bcet == pytest.approx(data.pe2_cycles.min())


class TestBitCaps:
    def test_caps_bind_per_class_and_zero_declares_none(self):
        """Each class's ``max_bits`` caps its macroblocks' bits; a class
        whose bound is zero keeps the uncapped draw."""
        from repro.mpeg.demand import VLD_IQ_MODEL, ClassCost, StageDemandModel

        def model(caps):
            costs = {}
            for cls, cap in zip(CodingClass, caps):
                c = VLD_IQ_MODEL.cost(cls)
                costs[cls] = ClassCost(
                    c.base, c.per_coded_block, c.motion_weight,
                    c.texture_weight, c.per_bit, max_bits=cap,
                )
            return StageDemandModel("VLD+IQ", costs)

        caps = (500.0, 0.0, 75.0)  # intra, inter (no bound), skipped
        free = SyntheticClip(PROFILE, frames=3, pe1_model=model((0.0, 0.0, 0.0))).generate()
        capped = SyntheticClip(PROFILE, frames=3, pe1_model=model(caps)).generate()
        for code, cap in enumerate(caps):
            sel = free.coding_code == code
            want = np.minimum(free.bits[sel], cap) if cap > 0 else free.bits[sel]
            assert np.array_equal(capped.bits[sel], want)
            if cap > 0:
                assert np.any(free.bits[sel] > cap)  # the bound binds


class TestPe2Variants:
    """One generation serves several PE2 models, as A2's stall levels need."""

    #: A2's stall levels; 0.0 draws no stall randoms after the jitter
    STALLS = (0.0, 0.35, 0.7, 1.4)

    @pytest.mark.parametrize("profile", [CLIP_PROFILES[-1], CLIP_PROFILES[0]], ids=str)
    def test_bit_identical_to_one_generation_per_model(self, profile):
        models = [_model_with_stalls(stall) for stall in self.STALLS]
        variants = SyntheticClip(profile, frames=12).generate_pe2_variants(models)
        assert len(variants) == len(models)
        for model, data in zip(models, variants):
            fresh = SyntheticClip(profile, frames=12, pe2_model=model).generate()
            for f in fields(ClipData):
                got, want = getattr(data, f.name), getattr(fresh, f.name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), f.name

    def test_variants_share_one_body_and_cache_nothing(self):
        clip = SyntheticClip(PROFILE, frames=2)
        light, heavy = clip.generate_pe2_variants(
            [_model_with_stalls(0.0), _model_with_stalls(1.4)]
        )
        for f in fields(ClipData):
            shared = getattr(light, f.name) is getattr(heavy, f.name)
            assert shared == (f.name != "pe2_cycles"), f.name
        assert clip._data is None


class TestScaling:
    def test_custom_mb_per_frame(self):
        tiny = SyntheticClip(PROFILE, frames=2, mb_per_frame=99)
        assert tiny.generate().n_macroblocks == 198

    def test_frames_validated(self):
        with pytest.raises(ValidationError):
            SyntheticClip(PROFILE, frames=0)


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


def _front_end_items(path):
    return registry.counter("mpeg.front_end.items", path=path).value


def _near_ties(n, rng, offset):
    """Each arrival a few ulps around the completion before it."""
    service = rng.uniform(0.5, 1.5, n)
    steps = rng.integers(-3, 4, n)
    available = np.empty(n)
    prev = offset
    for i in range(n):
        available[i] = prev + steps[i] * np.spacing(prev)
        prev = max(available[i], prev) + service[i]
    return available, service


def _server_family(name, n, rng, offset):
    """``(available, service_time)`` of one input family."""
    gaps = rng.exponential(1.0, n)
    if name == "light":  # the clips' regime: short busy periods
        service = rng.uniform(0.2, 1.2, n)
    elif name == "overloaded":  # one busy period spans most of the trace
        service = rng.exponential(1.5, n)
    elif name == "dyadic":  # exact ties between arrivals and completions
        gaps = rng.integers(0, 4, n) / 4.0
        service = rng.integers(0, 4, n) / 4.0
    elif name == "zero_service":
        service = np.where(rng.random(n) < 0.5, 0.0, rng.exponential(0.8, n))
    elif name == "signed_zeros":
        return rng.choice([-0.0, 0.0], n) + offset, rng.choice([-0.0, 0.0, 1.0], n)
    else:
        return _near_ties(n, rng, offset)
    return offset + np.cumsum(gaps), service


_SERVER_FAMILIES = ("light", "overloaded", "dyadic", "zero_service", "signed_zeros", "near_ties")


@st.composite
def _server_case(draw):
    n = draw(st.integers(min_value=1, max_value=300))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    family = draw(st.sampled_from(_SERVER_FAMILIES))
    available, service = _server_family(family, n, rng, draw(st.sampled_from((0.0, 1e6))))
    if draw(st.booleans()):
        available[0] = 0.0
    return available, service


class TestFrontEndRecursion:
    """The busy-period kernel returns the per-item loop's floats, bit for
    bit, whichever path each item takes."""

    @given(_server_case())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_oracle(self, case):
        available, service = case
        done = _front_end_recursion(available, service)
        assert _bits(done) == _bits(completion_times_brute(available, service))

    @pytest.mark.parametrize(
        "available, service",
        [(0.0, 1.0), (-2.0, 1.5), (3.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (1e6, 1e-9)],
    )
    def test_single_item(self, available, service):
        a, s = np.array([available]), np.array([service])
        assert _bits(_front_end_recursion(a, s)) == _bits(completion_times_brute(a, s))

    def test_empty(self):
        assert _front_end_recursion(np.empty(0), np.empty(0)).size == 0

    def test_signed_zero_ties_exhaustive(self):
        """On a tie the loop keeps its own time: ``0.0`` and ``-0.0`` compare
        equal but add differently, so every 2- and 3-item trace over
        {-0.0, 0.0, 1.0} must come out bit-equal."""
        values = (-0.0, 0.0, 1.0)
        for n in (2, 3):
            for a in itertools.product(values, repeat=n):
                for s in itertools.product(values, repeat=n):
                    available, service = np.array(a), np.array(s)
                    done = _front_end_recursion(available, service)
                    assert _bits(done) == _bits(completion_times_brute(available, service))

    def test_near_ties_take_the_loop_tail(self):
        """Arrivals within ulps of the completions defeat the real-arithmetic
        busy-period starts; the check sends the rest to the loop."""
        available, service = _near_ties(3000, np.random.default_rng(2004), 1e6)
        before = _front_end_items("loop")
        done = _front_end_recursion(available, service)
        assert _bits(done) == _bits(completion_times_brute(available, service))
        assert _front_end_items("loop") - before > 0

    def test_clip_stays_vectorized(self):
        before = {path: _front_end_items(path) for path in ("vectorized", "loop")}
        data = SyntheticClip(PROFILE, frames=2).generate()
        assert _front_end_items("vectorized") - before["vectorized"] == data.n_macroblocks
        assert _front_end_items("loop") == before["loop"]
        assert _bits(data.pe1_output) == _bits(
            completion_times_brute(data.bit_arrival, data.pe1_cycles / 150e6)
        )
