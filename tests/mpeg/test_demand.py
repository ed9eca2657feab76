"""Unit tests for the stage demand models."""

import numpy as np
import pytest

from repro.mpeg.demand import IDCT_MC_MODEL, VLD_IQ_MODEL, ClassCost, StageDemandModel
from repro.mpeg.macroblock import CodingClass, FrameType, Macroblock
from repro.util.validation import ValidationError


class TestClassCost:
    def test_base_required_positive(self):
        with pytest.raises(ValidationError):
            ClassCost(base=0.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            ClassCost(base=1.0, motion_weight=-1.0)


class TestStageDemandModel:
    def test_all_classes_required(self):
        with pytest.raises(ValidationError, match="missing cost classes"):
            StageDemandModel("x", {CodingClass.INTRA: ClassCost(base=1.0)})

    def test_scalar_matches_vector(self):
        mb = Macroblock(0, 0, FrameType.P, CodingClass.INTER, 3, 0.5, 0.4, 200.0)
        scalar = IDCT_MC_MODEL.cycles(mb)
        vector = IDCT_MC_MODEL.cycles_array(
            np.array([1]), np.array([3]), np.array([0.5]), np.array([0.4]), np.array([200.0])
        )
        assert scalar == pytest.approx(vector[0])

    def test_table_matches_per_class_expression(self):
        """One coefficient gather per macroblock gives the floats of the
        scalar cost expression, class by class."""
        rng = np.random.default_rng(3)
        n = 500
        coding = rng.integers(0, 3, n)
        cbc = rng.integers(0, 7, n)
        motion, texture = rng.uniform(size=n), rng.uniform(size=n)
        bits = rng.uniform(24.0, 6000.0, n)
        for model in (VLD_IQ_MODEL, IDCT_MC_MODEL):
            got = model.cycles_array(coding, cbc, motion, texture, bits)
            classes = list(CodingClass)
            for i in range(n):
                c = model.cost(classes[coding[i]])
                want = (
                    c.base + c.per_coded_block * cbc[i] + c.motion_weight * motion[i]
                    + c.texture_weight * texture[i] + c.per_bit * bits[i]
                )
                assert got[i] == want

    @pytest.mark.parametrize("bad", [3, -1])
    def test_unknown_coding_code_rejected(self, bad):
        coding = np.array([0, bad, 1, 2])
        ones = np.ones(4)
        with pytest.raises(ValidationError, match="coding codes"):
            IDCT_MC_MODEL.cycles_array(coding, ones, ones, ones, ones)

    def test_interval_contains_all_attribute_combos(self):
        rng = np.random.default_rng(0)
        for model in (VLD_IQ_MODEL, IDCT_MC_MODEL):
            for cls, code in [(CodingClass.INTRA, 0), (CodingClass.INTER, 1), (CodingClass.SKIPPED, 2)]:
                iv = model.interval(cls)
                lo_cbc = 1 if cls is CodingClass.INTRA else 0
                hi_cbc = 0 if cls is CodingClass.SKIPPED else 6
                for _ in range(200):
                    cbc = rng.integers(lo_cbc, hi_cbc + 1)
                    motion = rng.uniform() if cls is not CodingClass.INTRA else 0.0
                    tex = rng.uniform()
                    bits = rng.uniform(0, model.cost(cls).max_bits)
                    nominal = model.cycles_array(
                        np.array([code]), np.array([cbc]), np.array([motion]),
                        np.array([tex]), np.array([bits]),
                    )[0]
                    lo_j, hi_j = model.jitter
                    assert nominal * lo_j >= iv.bcet - 1e-9
                    assert nominal * (hi_j + model.stall_extra) <= iv.wcet + 1e-9

    def test_jitter_within_envelope(self):
        rng = np.random.default_rng(1)
        cycles = np.full(10_000, 1000.0)
        jittered = IDCT_MC_MODEL.apply_execution_jitter(rng, cycles)
        lo, hi = IDCT_MC_MODEL.jitter
        assert np.all(jittered >= 1000.0 * lo - 1e-9)
        assert np.all(jittered <= 1000.0 * (hi + IDCT_MC_MODEL.stall_extra) + 1e-9)

    def test_stalls_are_rare_but_present(self):
        rng = np.random.default_rng(2)
        cycles = np.full(50_000, 1000.0)
        jittered = IDCT_MC_MODEL.apply_execution_jitter(rng, cycles)
        hi = IDCT_MC_MODEL.jitter[1]
        stalled = np.mean(jittered > 1000.0 * hi)
        assert 0.005 < stalled < 0.05  # ~ stall_probability

    def test_profile_covers_alphabet(self):
        profile = IDCT_MC_MODEL.profile()
        assert "I/intra" in profile
        assert "P/inter" in profile
        assert "B/skipped" in profile
        assert "I/skipped" not in profile  # impossible combination

    def test_wcet_bcet_global(self):
        assert IDCT_MC_MODEL.wcet > IDCT_MC_MODEL.bcet > 0

    def test_wcet_ratio_calibration(self):
        """The calibrated PE2 model must exhibit the strong WCET/average
        variability the paper's case study exploits (ratio around 2+)."""
        assert IDCT_MC_MODEL.wcet / IDCT_MC_MODEL.interval(CodingClass.INTER).wcet < 1.5
        assert IDCT_MC_MODEL.wcet > 15_000

    def test_invalid_jitter_rejected(self):
        with pytest.raises(ValidationError):
            StageDemandModel(
                "x",
                {c: ClassCost(base=1.0) for c in CodingClass},
                jitter=(1.5, 1.0),
            )
