"""Synthetic MPEG-2 clip generator.

The paper's experiments decode 14 real video clips (CBR 9.78 Mbit/s, main
profile at main level, 25 fps, 720×576 → 1620 macroblocks/frame).  Without
the clips, we generate *synthetic* streams whose macroblock-level statistics
exercise the same analysis machinery:

* GOP structure (IBBP...) in coded order;
* a slowly-varying per-frame *content activity* process (AR(1)) with
  occasional scene cuts that temporarily raise intra coding;
* per-macroblock coding decisions, coded-block patterns, motion and texture
  complexities whose distributions depend on frame type and activity;
* per-macroblock compressed-bit counts normalized so the whole clip is
  exactly CBR at the configured bit rate;
* per-macroblock cycle demands for both stages from
  :mod:`repro.mpeg.demand`;
* the *timing* of macroblocks leaving PE1 — the arrival process of the FIFO
  in front of PE2 — from a two-constraint recursion: a macroblock can start
  VLD only once its bits have arrived (CBR front end) and once PE1 is free.

All randomness flows from a single seed per clip, so every experiment is
exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.events import Event
from repro.core.trace import EventTrace
from repro.mpeg.demand import IDCT_MC_MODEL, VLD_IQ_MODEL, StageDemandModel
from repro.mpeg.gop import GopStructure
from repro.mpeg.macroblock import (
    MACROBLOCKS_PER_FRAME_PAL,
    CodingClass,
    FrameType,
    Macroblock,
)
from repro.obs.metrics import registry
from repro.util.validation import (
    ValidationError,
    check_in_range,
    check_integer,
    check_positive,
)

__all__ = ["ClipProfile", "ClipData", "SyntheticClip"]

_FRAME_CODE = {FrameType.I: 0, FrameType.P: 1, FrameType.B: 2}
_CLASS_OF_CODE = list(CodingClass)  # 0=intra, 1=inter, 2=skipped
#: Relative frame bit budgets.  At the paper's high 9.78 Mbit/s rate the
#: allocation is much flatter than at distribution rates: B-frames still
#: carry substantial coefficient data.
_BIT_WEIGHT = {FrameType.I: 2.4, FrameType.P: 1.4, FrameType.B: 0.85}
_MIN_BITS_PER_MB = 24.0
#: Fraction of every frame's bit budget that the rate control distributes
#: uniformly regardless of content.  At 9.78 Mbit/s the encoder pads quiet
#: content with quality (finer quantizer) rather than emitting fewer bits,
#: so frame budgets are nearly constant — the dominant smoothing effect.
_UNIFORM_BUDGET_FRACTION = 0.78


@dataclass(frozen=True)
class ClipProfile:
    """Content characteristics of one synthetic clip.

    Parameters
    ----------
    name:
        Label used in reports (e.g. ``"football"``).
    seed:
        RNG seed; fixes the clip completely.
    activity:
        Baseline spatial/temporal activity in [0, 1] — raises coded-block
        counts and bit demand.
    motion:
        Motion intensity in [0, 1] — raises MC cost and inter coding.
    texture:
        Texture richness in [0, 1] — raises coefficient density.
    scene_cut_rate:
        Probability per frame of a scene cut (activity burst + intra
        refresh).
    """

    name: str
    seed: int
    activity: float
    motion: float
    texture: float
    scene_cut_rate: float = 0.02

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError("clip name must be a non-empty string")
        check_integer(self.seed, "seed", minimum=0)
        check_in_range(self.activity, "activity", 0.0, 1.0)
        check_in_range(self.motion, "motion", 0.0, 1.0)
        check_in_range(self.texture, "texture", 0.0, 1.0)
        check_in_range(self.scene_cut_rate, "scene_cut_rate", 0.0, 1.0)


@dataclass
class ClipData:
    """Fully generated clip: flat per-macroblock arrays in decode order."""

    frame_index: np.ndarray        # int, per macroblock
    frame_type_code: np.ndarray    # 0=I 1=P 2=B
    coding_code: np.ndarray        # 0=intra 1=inter 2=skipped
    coded_blocks: np.ndarray       # int 0..6
    motion: np.ndarray             # float [0,1]
    texture: np.ndarray            # float [0,1]
    bits: np.ndarray               # compressed bits per macroblock
    pe1_cycles: np.ndarray         # VLD+IQ demand
    pe2_cycles: np.ndarray         # IDCT+MC demand
    bit_arrival: np.ndarray        # time the macroblock's last bit arrives
    pe1_output: np.ndarray         # time the macroblock leaves PE1 (FIFO arrival)

    @property
    def n_macroblocks(self) -> int:
        """Total number of macroblocks in the clip."""
        return int(self.frame_index.size)


class SyntheticClip:
    """A reproducible synthetic MPEG-2 clip (see module docstring).

    Parameters
    ----------
    profile:
        Content characteristics.
    frames:
        Clip length in frames.
    fps:
        Frame rate (paper: 25).
    bit_rate:
        CBR bit rate in bit/s (paper: 9.78 Mbit/s).
    mb_per_frame:
        Macroblocks per frame (paper: 1620 for 720×576).
    gop:
        GOP structure (default IBBP..., N=12, M=3).
    pe1_frequency:
        Clock of PE1 in Hz; with the default demand model ~150 MHz keeps
        PE1 comfortably ahead of the CBR front end while preserving the
        bursty output the case study exhibits.
    """

    def __init__(
        self,
        profile: ClipProfile,
        *,
        frames: int = 30,
        fps: float = 25.0,
        bit_rate: float = 9.78e6,
        mb_per_frame: int = MACROBLOCKS_PER_FRAME_PAL,
        gop: GopStructure | None = None,
        pe1_frequency: float = 150e6,
        pe1_model: StageDemandModel = VLD_IQ_MODEL,
        pe2_model: StageDemandModel = IDCT_MC_MODEL,
    ):
        if not isinstance(profile, ClipProfile):
            raise ValidationError("profile must be a ClipProfile")
        self.profile = profile
        self.frames = check_integer(frames, "frames", minimum=1)
        self.fps = check_positive(fps, "fps")
        self.bit_rate = check_positive(bit_rate, "bit_rate")
        self.mb_per_frame = check_integer(mb_per_frame, "mb_per_frame", minimum=1)
        self.gop = gop if gop is not None else GopStructure()
        self.pe1_frequency = check_positive(pe1_frequency, "pe1_frequency")
        self.pe1_model = pe1_model
        self.pe2_model = pe2_model
        self._data: ClipData | None = None

    # -- generation --------------------------------------------------------------------
    def generate(self) -> ClipData:
        """Generate (or return the cached) clip data."""
        if self._data is None:
            self._data = self._generate()
        return self._data

    def _generate(self) -> ClipData:
        """One uncached generation under the clip's own PE2 model."""
        (data,) = self.generate_pe2_variants([self.pe2_model])
        return data

    def generate_pe2_variants(
        self, pe2_models: Sequence[StageDemandModel]
    ) -> list[ClipData]:
        """The clip under each of *pe2_models*, from one generation.

        Entry *i* is bit-identical to
        ``SyntheticClip(profile, ..., pe2_model=pe2_models[i]).generate()``
        with this clip's other settings.  PE2's execution jitter is the
        generator's last draw, so every model draws it from the state
        the models share; the entries share every array but
        ``pe2_cycles``, so they hold one clip body.  Nothing is cached
        on the clip.
        """
        rng = np.random.default_rng(self.profile.seed)
        ftypes = self.gop.frame_types(self.frames, order="coded")
        activity, scene_motion = self._activity_process(rng)

        n = self.frames * self.mb_per_frame
        frame_index = np.repeat(np.arange(self.frames), self.mb_per_frame)
        frame_code = np.repeat([_FRAME_CODE[ft] for ft in ftypes], self.mb_per_frame)
        act_mb = np.repeat(activity, self.mb_per_frame)
        motion_mb = np.repeat(scene_motion, self.mb_per_frame)

        coding = self._coding_decisions(rng, frame_code, act_mb, motion_mb)
        coded_blocks = self._coded_blocks(rng, coding, act_mb)
        motion = self._motion(rng, coding, motion_mb)
        motion = self._boost_b_frame_motion(rng, frame_code, coding, motion, motion_mb)
        texture = self._texture(rng, act_mb)
        bits = self._bits(rng, ftypes, frame_index, coding, coded_blocks, act_mb)
        # keep every macroblock inside its class's declared bit bound (zero
        # declares none) so measured demands stay within the SPI intervals
        # of the profile
        caps = np.array([self.pe1_model.cost(cls).max_bits for cls in _CLASS_OF_CODE])
        np.minimum(bits, np.where(caps > 0, caps, np.inf)[coding], out=bits)

        pe1 = self.pe1_model.cycles_array(coding, coded_blocks, motion, texture, bits)
        pe1 = self.pe1_model.apply_execution_jitter(rng, pe1)
        # PE2's jitter is the last draw: each model starts from this state
        shared_state = rng.bit_generator.state

        bit_arrival = np.cumsum(bits) / self.bit_rate
        pe1_output = _front_end_recursion(bit_arrival, pe1 / self.pe1_frequency)

        variants = []
        for model in pe2_models:
            rng.bit_generator.state = shared_state
            pe2 = model.cycles_array(coding, coded_blocks, motion, texture, bits)
            variants.append(
                ClipData(
                    frame_index=frame_index,
                    frame_type_code=frame_code,
                    coding_code=coding,
                    coded_blocks=coded_blocks,
                    motion=motion,
                    texture=texture,
                    bits=bits,
                    pe1_cycles=pe1,
                    pe2_cycles=model.apply_execution_jitter(rng, pe2),
                    bit_arrival=bit_arrival,
                    pe1_output=pe1_output,
                )
            )
        return variants

    def _activity_process(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        """Scene-structured per-frame (activity, motion) in [0.05, 1].

        Content is a sequence of *scenes*: each cut draws a new scene
        intensity around the clip's baseline (wide spread — a sports
        broadcast alternates play and close-ups), plus a short burst right
        at the cut (intra refresh, encoder recovering).  Within a scene an
        AR(1) process adds small fluctuations.  This non-stationarity is
        what lets the simulated backlogs of heavy clips approach the
        analytic bound: sustained heavy scenes, not single frames, fill the
        FIFO.
        """
        base = 0.15 + 0.75 * self.profile.activity
        m_base = self.profile.motion
        scene_level = np.clip(base + rng.normal(0.0, 0.22), 0.05, 1.0)
        scene_motion = np.clip(m_base + rng.normal(0.0, 0.20), 0.02, 1.0)
        act = np.empty(self.frames)
        motion = np.empty(self.frames)
        level = scene_level
        cut_boost = 0.0
        for f in range(self.frames):
            if rng.random() < self.profile.scene_cut_rate:
                scene_level = np.clip(base + rng.normal(0.0, 0.25), 0.05, 1.0)
                scene_motion = np.clip(m_base + rng.normal(0.0, 0.22), 0.02, 1.0)
                cut_boost = 0.35
            level = 0.85 * level + 0.15 * scene_level + rng.normal(0.0, 0.03)
            act[f] = np.clip(level + cut_boost, 0.05, 1.0)
            motion[f] = scene_motion
            cut_boost *= 0.5  # cuts decay over a few frames
        return act, motion

    def _coding_decisions(
        self, rng: np.random.Generator, frame_code: np.ndarray, act: np.ndarray, scene_motion: np.ndarray
    ) -> np.ndarray:
        """Per-macroblock coding class: I-frames all intra; P/B mix intra,
        inter and skipped with activity-dependent proportions."""
        n = frame_code.size
        u = rng.random(n)
        coding = np.full(n, 1, dtype=np.int64)  # inter by default
        is_i = frame_code == 0
        is_p = frame_code == 1
        is_b = frame_code == 2
        coding[is_i] = 0
        p_intra_p = 0.04 + 0.22 * act
        p_skip_p = np.clip(0.36 - 0.14 * act - 0.22 * scene_motion, 0.02, 1.0)
        coding[is_p & (u < p_intra_p)] = 0
        coding[is_p & (u > 1.0 - p_skip_p)] = 2
        p_intra_b = 0.015 + 0.05 * act
        p_skip_b = np.clip(0.42 - 0.10 * act - 0.30 * scene_motion, 0.04, 1.0)
        coding[is_b & (u < p_intra_b)] = 0
        coding[is_b & (u > 1.0 - p_skip_b)] = 2
        return coding

    def _coded_blocks(
        self, rng: np.random.Generator, coding: np.ndarray, act: np.ndarray
    ) -> np.ndarray:
        """Coded-block counts: intra 1..6, inter 0..6, skipped 0."""
        n = coding.size
        # coded-coefficient density: content raises it, but so does the CBR
        # quantizer feedback — quiet material is coded with a finer quantizer
        # at a fixed high bit rate, so more blocks cross the coding threshold
        quality_boost = 0.30 * (1.0 - act)
        density = np.clip(
            0.22 + 0.42 * self.profile.texture * act + quality_boost
            + rng.normal(0, 0.06, n),
            0.02,
            0.98,
        )
        cbc = rng.binomial(6, density)
        cbc = np.where(coding == 0, np.maximum(cbc, 1), cbc)
        inter_density = np.clip(density * 0.7, 0.02, 0.98)
        cbc_inter = rng.binomial(6, inter_density)
        cbc = np.where(coding == 1, cbc_inter, cbc)
        cbc = np.where(coding == 2, 0, cbc)
        return cbc.astype(np.int64)

    def _motion(
        self, rng: np.random.Generator, coding: np.ndarray, scene_motion: np.ndarray
    ) -> np.ndarray:
        """Motion complexity: zero for intra, small for skipped, broad for
        inter around the scene's motion intensity."""
        n = coding.size
        motion = np.zeros(n)
        inter = coding == 1
        skipped = coding == 2
        motion[inter] = scene_motion[inter] * rng.uniform(0.55, 1.15, int(inter.sum()))
        motion[skipped] = scene_motion[skipped] * rng.uniform(0.0, 0.25, int(skipped.sum()))
        return np.clip(motion, 0.0, 1.0)

    def _boost_b_frame_motion(
        self,
        rng: np.random.Generator,
        frame_code: np.ndarray,
        coding: np.ndarray,
        motion: np.ndarray,
        scene_motion: np.ndarray,
    ) -> np.ndarray:
        """B-frame inter macroblocks interpolate two references, roughly
        doubling the MC work — modelled as a floor on their motion
        complexity, scaled by the scene's motion intensity."""
        b_inter = (frame_code == 2) & (coding == 1)
        floor = (0.30 + 0.55 * scene_motion) * rng.uniform(0.9, 1.1, motion.size)
        boosted = np.maximum(motion, floor)
        return np.where(b_inter, np.clip(boosted, 0.0, 1.0), motion)

    def _texture(self, rng: np.random.Generator, act: np.ndarray) -> np.ndarray:
        """Texture complexity per macroblock."""
        n = act.size
        return np.clip(
            self.profile.texture * (0.35 + 0.65 * act) + rng.normal(0, 0.08, n), 0.0, 1.0
        )

    def _bits(
        self,
        rng: np.random.Generator,
        ftypes: list[FrameType],
        frame_index: np.ndarray,
        coding: np.ndarray,
        coded_blocks: np.ndarray,
        act: np.ndarray,
    ) -> np.ndarray:
        """Per-macroblock compressed bits, normalized to exact CBR.

        A two-level model of the encoder's rate control: frame budgets are a
        blend of a uniform share and a content-proportional share (the VBV
        keeps even skip-heavy frames from collapsing to headers only), then
        each frame's budget is split over its macroblocks proportionally to
        their raw coefficient payload.
        """
        # raw weight: headers plus coefficient payload; activity modulates the
        # payload only mildly — at 9.78 Mbit/s the rate control flattens the
        # allocation
        raw = 52.0 + 46.0 * coded_blocks * (0.8 + 0.4 * act)
        raw = raw + np.where(coding == 0, 120.0, 0.0)  # intra overhead
        raw = raw * rng.uniform(0.85, 1.15, raw.size)
        fweights = np.array([_BIT_WEIGHT[ft] for ft in ftypes])
        raw = raw * fweights[frame_index]
        # frame budgets: blend uniform and proportional shares
        frame_raw = np.bincount(frame_index, weights=raw, minlength=self.frames)
        total_budget = self.bit_rate * self.frames / self.fps
        uniform = total_budget / self.frames
        proportional = frame_raw * (total_budget / frame_raw.sum())
        frame_budget = (
            _UNIFORM_BUDGET_FRACTION * uniform
            + (1.0 - _UNIFORM_BUDGET_FRACTION) * proportional
        )
        scale = frame_budget / frame_raw
        bits = raw * scale[frame_index]
        return np.maximum(bits, _MIN_BITS_PER_MB)

    # -- trace / object access ------------------------------------------------------------
    def duration(self) -> float:
        """Nominal clip duration in seconds."""
        return self.frames / self.fps

    def macroblocks(self) -> Iterator[Macroblock]:
        """Object-level view of the generated stream (lazy, decode order)."""
        data = self.generate()
        ftypes = list(FrameType)
        for i in range(data.n_macroblocks):
            yield Macroblock(
                frame_index=int(data.frame_index[i]),
                index_in_frame=int(i % self.mb_per_frame),
                frame_type=ftypes[int(data.frame_type_code[i])],
                coding=_CLASS_OF_CODE[int(data.coding_code[i])],
                coded_blocks=int(data.coded_blocks[i]),
                motion_complexity=float(data.motion[i]),
                texture_complexity=float(data.texture[i]),
                bits=float(data.bits[i]),
            )

    def _type_names(self, data: ClipData) -> list[str]:
        ftypes = list(FrameType)
        return [
            f"{ftypes[int(fc)].value}/{_CLASS_OF_CODE[int(cc)].value}"
            for fc, cc in zip(data.frame_type_code, data.coding_code)
        ]

    def pe1_trace(self) -> EventTrace:
        """Typed, timed, measured-demand trace of the PE1 stage: events are
        macroblocks becoming available at the CBR front end, demands are
        VLD+IQ cycles."""
        data = self.generate()
        names = self._type_names(data)
        events = [
            Event(names[i], timestamp=float(data.bit_arrival[i]), demand=float(data.pe1_cycles[i]))
            for i in range(data.n_macroblocks)
        ]
        return EventTrace(events, self.pe1_model.profile())

    def pe2_trace(self) -> EventTrace:
        """Typed, timed, measured-demand trace of the PE2 stage: events are
        macroblocks arriving in the FIFO (timestamp = PE1 completion),
        demands are IDCT+MC cycles — the trace the paper's Figure 6 curves
        are extracted from."""
        data = self.generate()
        names = self._type_names(data)
        events = [
            Event(names[i], timestamp=float(data.pe1_output[i]), demand=float(data.pe2_cycles[i]))
            for i in range(data.n_macroblocks)
        ]
        return EventTrace(events, self.pe2_model.profile())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SyntheticClip({self.profile.name!r}, frames={self.frames}, "
            f"mb_per_frame={self.mb_per_frame})"
        )


def _front_end_recursion(available: np.ndarray, service_time: np.ndarray) -> np.ndarray:
    """Completion times of a work-conserving single server: item *i* starts
    at ``max(available[i], done[i-1])`` (``done[-1] = 0``) and takes
    ``service_time[i]``.

    Every value is the float of the per-item loop
    ``done[i] = fl(max(available[i], done[i-1]) + service_time[i])``
    (:func:`repro.reference.completion_times_brute`), computed by busy periods:

    1. In real arithmetic ``done[i] = C[i] + max(0, max_{j<=i} key[j])``
       with ``C`` the prefix sums of the service times and
       ``key[j] = available[j] - C[j-1]``, so item *i* opens a busy period
       when ``key[i]`` reaches that running maximum.  Float rounding only
       makes these starts *candidates*.
    2. Inside a period opened at *b*, ``done[b] = fl(available[b] +
       service_time[b])`` and ``done[i] = fl(done[i-1] + service_time[i])``:
       ``np.add.accumulate`` adds sequentially, so these are the loop's own
       additions in the loop's order.  Periods are grouped by length into
       power-of-two widths, one 2-D accumulate per width, which keeps the
       work O(n) for any busy structure.
    3. Each item is checked against the computed ``prev = done[i-1]``: the
       loop takes ``available[i]`` at a start only if it is above ``prev``
       (or the same float), and ``prev`` at any other item only if
       ``available[i] <= prev``.  If every item passes, the result is the
       loop's by induction; otherwise the prefix before the first failing
       item is already exact and the plain loop finishes from there.

    Counts the items of each path under
    ``mpeg.front_end.items{path=vectorized|loop}``.
    """
    n = available.size
    done = np.empty(n)
    if n == 0:
        return done
    key = available - (np.cumsum(service_time) - service_time)
    bar = np.maximum.accumulate(key)
    opens = np.empty(n, dtype=bool)
    opens[0] = True  # the loop's item 0 starts at max(available[0], 0.0)
    np.greater_equal(key[1:], np.maximum(bar[:-1], 0.0), out=opens[1:])
    del key, bar
    starts = np.flatnonzero(opens)
    # done holds each item's increment, then (period by period) its result
    np.copyto(done, service_time)
    done[starts] += available[starts]
    done[0] = (available[0] if available[0] > 0.0 else 0.0) + service_time[0]
    lengths = np.diff(starts, append=n)
    _, width_exp = np.frexp(lengths - 1)  # a period fits in 2**width_exp items
    for e in range(1, int(width_exp.max()) + 1):
        group = width_exp == e
        offset = np.arange(1 << e)[:, None]
        idx = np.minimum(starts[group] + offset, n - 1)
        block = np.add.accumulate(done[idx], axis=0)
        inside = offset < lengths[group]
        done[idx[inside]] = block[inside]
    del starts, lengths, width_exp
    a, prev = available[1:], done[:-1]
    ok = np.where(
        opens[1:],
        # on a tie the loop takes prev: the same float unless 0.0 == -0.0
        (a > prev) | ((a == prev) & (np.signbit(a) == np.signbit(prev))),
        a <= prev,
    )
    failed = np.flatnonzero(~ok)
    first = n if failed.size == 0 else int(failed[0]) + 1
    prev = done[first - 1]
    for i in range(first, n):
        start = available[i] if available[i] > prev else prev
        prev = start + service_time[i]
        done[i] = prev
    registry.counter("mpeg.front_end.items", path="vectorized").inc(first)
    registry.counter("mpeg.front_end.items", path="loop").inc(n - first)
    return done
