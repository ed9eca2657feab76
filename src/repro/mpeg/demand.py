"""Cycle-demand models for the two decoder stages (paper Figure 5).

The paper measures per-macroblock cycle counts with a SimpleScalar ISS
(MIPS3000-like, PE1 with bitstream-access hardware, PE2 with IDCT
acceleration and block-based memory access).  We replace the ISS with
explicit cost models: each stage charges a macroblock a deterministic
function of its coding attributes,

.. math::

    cycles = base(class) + c_{blk}(class)·coded\\_blocks
           + c_{mot}(class)·motion + c_{tex}(class)·texture
           + c_{bit}(class)·bits

with per-coding-class coefficients.  The coefficients below are calibrated
so that the PE2 stage reproduces the paper's qualitative numbers: a
WCET-to-average demand ratio around 2, hence roughly the >50 % frequency
saving of eq. (9) vs eq. (10).

The models also export the per-event-type ``[bcet, wcet]`` intervals (the
SPI-style characterization of §2.1) derived from the attribute ranges, so
profile-based *and* measurement-based workload curves can be built from the
same substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.events import ExecutionInterval, ExecutionProfile
from repro.mpeg.macroblock import CodingClass, FrameType, Macroblock
from repro.util.validation import ValidationError, check_non_negative

__all__ = ["ClassCost", "StageDemandModel", "VLD_IQ_MODEL", "IDCT_MC_MODEL"]

#: Attribute ranges per coding class: (coded_blocks_min, coded_blocks_max).
_CBC_RANGE = {
    CodingClass.INTRA: (1, 6),
    CodingClass.INTER: (0, 6),
    CodingClass.SKIPPED: (0, 0),
}


@dataclass(frozen=True)
class ClassCost:
    """Cost coefficients of one coding class for one stage."""

    base: float
    per_coded_block: float = 0.0
    motion_weight: float = 0.0
    texture_weight: float = 0.0
    per_bit: float = 0.0
    max_bits: float = 0.0  # bits bound used only for the WCET interval

    def __post_init__(self) -> None:
        check_non_negative(self.base, "base")
        check_non_negative(self.per_coded_block, "per_coded_block")
        check_non_negative(self.motion_weight, "motion_weight")
        check_non_negative(self.texture_weight, "texture_weight")
        check_non_negative(self.per_bit, "per_bit")
        check_non_negative(self.max_bits, "max_bits")
        if self.base <= 0:
            raise ValidationError("base cost must be positive (every macroblock costs cycles)")


class StageDemandModel:
    """Per-macroblock cycle cost of one pipeline stage.

    Parameters
    ----------
    name:
        Stage label, e.g. ``"VLD+IQ"``.
    costs:
        Mapping from :class:`CodingClass` to :class:`ClassCost`; all three
        classes must be present.
    jitter:
        Multiplicative execution jitter ``(lo, hi)`` applied per macroblock
        (cache effects, data-dependent branches).
    stall_probability / stall_extra:
        With this probability a macroblock additionally suffers a stall
        burst of up to ``stall_extra`` times its nominal cost (worst-case
        memory-system alignment).  This is the "worst case happens rarely"
        phenomenon the paper's introduction stresses: it inflates the WCET
        far above any sustained window average.
    """

    def __init__(
        self,
        name: str,
        costs: Mapping[CodingClass, ClassCost],
        *,
        jitter: tuple[float, float] = (0.88, 1.08),
        stall_probability: float = 0.02,
        stall_extra: float = 0.70,
    ):
        if not isinstance(name, str) or not name:
            raise ValidationError("stage name must be a non-empty string")
        missing = set(CodingClass) - set(costs)
        if missing:
            raise ValidationError(f"missing cost classes: {sorted(c.value for c in missing)}")
        lo, hi = jitter
        if not (0.0 < lo <= hi):
            raise ValidationError("jitter must satisfy 0 < lo <= hi")
        if not (0.0 <= stall_probability <= 1.0):
            raise ValidationError("stall_probability must be in [0, 1]")
        check_non_negative(stall_extra, "stall_extra")
        self.name = name
        self._costs = dict(costs)
        # the cost expression's coefficients, one column per coding code
        # (the enum order), so a per-macroblock lookup is one gather
        self._coefficients = np.array(
            [
                [c.base, c.per_coded_block, c.motion_weight, c.texture_weight, c.per_bit]
                for c in (self._costs[cls] for cls in CodingClass)
            ]
        ).T
        self.jitter = (float(lo), float(hi))
        self.stall_probability = float(stall_probability)
        self.stall_extra = float(stall_extra)

    def cost(self, coding: CodingClass) -> ClassCost:
        """Coefficients of one coding class."""
        return self._costs[coding]

    # -- scalar and vectorized evaluation ------------------------------------------
    def cycles(self, mb: Macroblock) -> float:
        """Cycle demand of a single macroblock."""
        c = self._costs[mb.coding]
        return (
            c.base
            + c.per_coded_block * mb.coded_blocks
            + c.motion_weight * mb.motion_complexity
            + c.texture_weight * mb.texture_complexity
            + c.per_bit * mb.bits
        )

    def cycles_array(
        self,
        coding: np.ndarray,
        coded_blocks: np.ndarray,
        motion: np.ndarray,
        texture: np.ndarray,
        bits: np.ndarray,
    ) -> np.ndarray:
        """Vectorized :meth:`cycles`.

        *coding* is an integer array of :class:`CodingClass` codes
        (0 = intra, 1 = inter, 2 = skipped, the order of the enum); any
        other code raises :class:`ValidationError`.
        """
        codes = np.asarray(coding)
        n_codes = self._coefficients.shape[1]
        if codes.size and not (
            np.issubdtype(codes.dtype, np.integer)
            and codes.min() >= 0
            and codes.max() < n_codes
        ):
            raise ValidationError(
                f"coding codes must be integers in [0, {n_codes - 1}]"
            )
        base, pcb, mot, tex, pbit = (row.take(codes) for row in self._coefficients)
        return base + pcb * coded_blocks + mot * motion + tex * texture + pbit * bits

    def apply_execution_jitter(
        self, rng: "np.random.Generator", cycles: np.ndarray
    ) -> np.ndarray:
        """Per-macroblock multiplicative jitter plus rare stall bursts."""
        factor = rng.uniform(self.jitter[0], self.jitter[1], cycles.shape)
        if self.stall_probability > 0.0 and self.stall_extra > 0.0:
            stalls = rng.random(cycles.shape) < self.stall_probability
            factor = factor + stalls * rng.uniform(
                0.3 * self.stall_extra, self.stall_extra, cycles.shape
            )
        return cycles * factor

    # -- interval characterization ----------------------------------------------------
    def interval(self, coding: CodingClass) -> ExecutionInterval:
        """``[bcet, wcet]`` over the attribute ranges of *coding*, including
        the execution-jitter and stall envelope."""
        c = self._costs[coding]
        lo_cbc, hi_cbc = _CBC_RANGE[coding]
        bcet = (c.base + c.per_coded_block * lo_cbc) * self.jitter[0]
        wcet = (
            c.base
            + c.per_coded_block * hi_cbc
            + c.motion_weight
            + c.texture_weight
            + c.per_bit * c.max_bits
        ) * (self.jitter[1] + self.stall_extra)
        return ExecutionInterval(bcet, wcet)

    def profile(self) -> ExecutionProfile:
        """Execution profile over the full typed-event alphabet
        ``{I,P,B} × {intra,inter,skipped}`` (minus the impossible
        I/inter, I/skipped combinations)."""
        intervals: dict[str, ExecutionInterval] = {}
        for ft in FrameType:
            for cls in CodingClass:
                if ft is FrameType.I and cls is not CodingClass.INTRA:
                    continue
                intervals[f"{ft.value}/{cls.value}"] = self.interval(cls)
        return ExecutionProfile(intervals)

    @property
    def wcet(self) -> float:
        """Global single-macroblock WCET over all classes."""
        return max(self.interval(cls).wcet for cls in CodingClass)

    @property
    def bcet(self) -> float:
        """Global single-macroblock BCET over all classes."""
        return min(self.interval(cls).bcet for cls in CodingClass)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StageDemandModel({self.name!r}, wcet={self.wcet:g}, bcet={self.bcet:g})"


#: PE1 stage: variable-length decoding and inverse quantization.  Dominated
#: by the bit-serial VLD (hardware bitstream access keeps the per-bit cost
#: low); IQ adds a per-coded-block term.
VLD_IQ_MODEL = StageDemandModel(
    "VLD+IQ",
    {
        CodingClass.INTRA: ClassCost(
            base=600.0, per_coded_block=260.0, texture_weight=350.0,
            per_bit=4.5, max_bits=6000.0,
        ),
        CodingClass.INTER: ClassCost(
            base=520.0, per_coded_block=230.0, motion_weight=180.0,
            texture_weight=250.0, per_bit=4.5, max_bits=4000.0,
        ),
        CodingClass.SKIPPED: ClassCost(base=140.0, per_bit=4.5, max_bits=400.0),
    },
)

#: PE2 stage: inverse DCT and motion compensation.  The paper's PE2 has
#: hardware IDCT acceleration and block-based memory access: the IDCT cost
#: is dominated by the fixed per-macroblock transform setup (weak
#: dependence on the coded-block count), while motion compensation — the
#: software part — grows steeply with interpolation complexity
#: (half-pel/bidirectional prediction).  This makes low-bit high-motion
#: B-macroblocks the expensive ones, decoupling the cycle demand from the
#: compressed size.
IDCT_MC_MODEL = StageDemandModel(
    "IDCT+MC",
    {
        CodingClass.INTRA: ClassCost(
            base=4800.0, per_coded_block=650.0, texture_weight=1400.0,
        ),
        CodingClass.INTER: ClassCost(
            base=2700.0, per_coded_block=400.0, motion_weight=6000.0,
            texture_weight=400.0,
        ),
        CodingClass.SKIPPED: ClassCost(base=900.0, motion_weight=300.0),
    },
)
