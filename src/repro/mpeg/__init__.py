"""Synthetic MPEG-2 decoder workload substrate (paper §3.2 case study).

The paper maps an MPEG-2 decoder onto two PEs (Figure 5): VLD+IQ on PE1 and
IDCT+MC on PE2, connected by a macroblock FIFO.  This subpackage replaces
the authors' real clips and SimpleScalar/SystemC measurement stack with a
calibrated synthetic substrate:

* :mod:`~repro.mpeg.macroblock` / :mod:`~repro.mpeg.gop` — stream structure;
* :mod:`~repro.mpeg.demand` — per-stage cycle-cost models with SPI-style
  per-type ``[bcet, wcet]`` intervals;
* :mod:`~repro.mpeg.bitstream` — seeded clip generator with a CBR front end
  producing the bursty PE1-output timing the case study exhibits;
* :mod:`~repro.mpeg.clips` — the 14 standard content presets.
"""

from repro.mpeg.macroblock import (
    FrameType,
    CodingClass,
    Macroblock,
    MACROBLOCKS_PER_FRAME_PAL,
)
from repro.mpeg.gop import GopStructure
from repro.mpeg.demand import ClassCost, StageDemandModel, VLD_IQ_MODEL, IDCT_MC_MODEL
from repro.mpeg.bitstream import ClipProfile, ClipData, SyntheticClip
from repro.mpeg.clips import CLIP_PROFILES, standard_clips

__all__ = [
    "FrameType",
    "CodingClass",
    "Macroblock",
    "MACROBLOCKS_PER_FRAME_PAL",
    "GopStructure",
    "ClassCost",
    "StageDemandModel",
    "VLD_IQ_MODEL",
    "IDCT_MC_MODEL",
    "ClipProfile",
    "ClipData",
    "SyntheticClip",
    "CLIP_PROFILES",
    "standard_clips",
]
