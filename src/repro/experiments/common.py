"""Shared infrastructure for the experiment harnesses.

Each experiment module regenerates one paper artifact (figure or table) and
returns an :class:`ExperimentResult` — a machine-readable payload plus a
rendered text report.  The heavyweight MPEG-2 preparation (clip generation,
curve extraction, envelopes) is shared across experiments through a cached
:class:`CaseStudyContext`.

Every ``run`` function is wrapped with :func:`harnessed`, which ties the
experiment into the :mod:`repro.obs` layer: the run executes under a
tracing span named ``experiment:<id>``, and the returned result carries a
*run manifest* — parameters (defaults applied), content digests of the
inputs consumed (the case-study context records the blake2b digest of its
clip demand traces), seed, package version, wall time, and a metrics
snapshot, which carries the process's peak RSS so far
(``process.peak_rss_bytes``).  Manifests of identical runs are identical
up to their timing fields (see :func:`repro.obs.manifest.stable_view`).
"""

from __future__ import annotations

import copy
import functools
import inspect
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro import obs
from repro.analysis.frequency import (
    FrequencyBound,
    minimum_frequency_curves,
    minimum_frequency_wcet,
)
from repro.core.operations import envelope_lower, envelope_upper
from repro.core.workload import WorkloadCurve, WorkloadCurvePair
from repro.curves.arrival import from_trace_upper
from repro.curves.curve import PiecewiseLinearCurve
from repro.mpeg.bitstream import SyntheticClip
from repro.mpeg.clips import standard_clips
from repro.perf.cache import digest_of
from repro.util.staircase import make_k_grid
from repro.util.validation import ValidationError, check_integer

__all__ = [
    "ExperimentResult",
    "CaseStudyContext",
    "ClipRecord",
    "case_study_context",
    "alpha_max",
    "sweep_frequency_evaluator",
    "harnessed",
    "fan_out",
    "BUFFER_ONE_FRAME",
]

#: The paper's FIFO size: one frame of macroblocks.
BUFFER_ONE_FRAME = 1620


@dataclass
class ExperimentResult:
    """Outcome of one experiment harness.

    Attributes
    ----------
    experiment_id:
        Index entry from DESIGN.md (e.g. ``"E5"``).
    title:
        Human-readable title.
    paper_reference:
        The paper artifact being regenerated (e.g. ``"Figure 7"``).
    report:
        Rendered text (tables/ascii charts) comparable against the paper.
    data:
        Machine-readable results for tests and downstream analysis.
    manifest:
        Run manifest (see :mod:`repro.obs.manifest`) attached by
        :func:`harnessed`; ``None`` only if the run function was invoked
        without the harness.
    """

    experiment_id: str
    title: str
    paper_reference: str
    report: str
    data: dict[str, Any] = field(default_factory=dict)
    manifest: dict[str, Any] | None = None

    def __str__(self) -> str:  # pragma: no cover - convenience
        header = f"[{self.experiment_id}] {self.title} ({self.paper_reference})"
        return f"{header}\n{'=' * len(header)}\n{self.report}"

    def write(self, directory: str | Path) -> tuple[Path, Path | None]:
        """Write the text report (``<id>.txt``) and, when present, the run
        manifest (``<id>.manifest.json``) into *directory*.

        Returns the two paths (manifest path is ``None`` if there is no
        manifest).  The directory is created if needed.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        report_path = directory / f"{self.experiment_id}.txt"
        report_path.write_text(str(self) + "\n", encoding="utf-8")
        manifest_path: Path | None = None
        if self.manifest is not None:
            manifest_path = directory / f"{self.experiment_id}.manifest.json"
            obs.write_manifest(self.manifest, manifest_path)
        return report_path, manifest_path


def harnessed(run: Callable[..., ExperimentResult]) -> Callable[..., ExperimentResult]:
    """Wrap an experiment ``run`` function with the observability harness.

    The wrapped call executes inside a tracing span (renamed to
    ``experiment:<id>`` once the result's id is known), collects the input
    digests recorded while it ran (see
    :func:`repro.obs.manifest.record_input`), and attaches a run manifest
    to the returned :class:`ExperimentResult`.

    Parameters are captured with defaults applied, so a default run and an
    explicit ``run(frames=72)`` produce the same manifest.  A parameter
    named ``seed`` is additionally surfaced as the manifest's top-level
    seed.  The metrics snapshot is taken after the gauge
    ``process.peak_rss_bytes`` is set (see :func:`_record_peak_rss`).
    """
    signature = inspect.signature(run)

    @functools.wraps(run)
    def wrapper(*args: Any, **kwargs: Any) -> ExperimentResult:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        parameters = dict(bound.arguments)
        t0 = time.perf_counter()
        with obs.collecting_inputs() as inputs:
            with obs.tracer.span("experiment", module=run.__module__) as span:
                result = run(*args, **kwargs)
                span.rename(f"experiment:{result.experiment_id}")
                span.set("experiment_id", result.experiment_id)
        wall = time.perf_counter() - t0
        _record_peak_rss()
        result.manifest = obs.build_manifest(
            experiment_id=result.experiment_id,
            title=result.title,
            paper_reference=result.paper_reference,
            parameters=parameters,
            inputs=inputs,
            seed=parameters.get("seed"),
            wall_time_s=wall,
            metrics=obs.registry.snapshot(),
            data_digest=obs.digest_json(result.data),
        )
        return result

    return wrapper


def _record_peak_rss() -> None:
    """Set the gauge ``process.peak_rss_bytes`` to this process's peak
    resident set size (``ru_maxrss``: kB on Linux, bytes on macOS; there
    is none off Unix)."""
    try:
        import resource
    except ImportError:
        return
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    obs.registry.gauge("process.peak_rss_bytes").set(
        peak if sys.platform == "darwin" else peak * 1024
    )


@dataclass(frozen=True)
class ClipRecord:
    """What the case study reads of one clip once its curves are built.

    E6 and E7 replay the FIFO arrivals and PE2 demands, the context's
    ``input_digest`` hashes them, and A6 charges each macroblock its
    type's WCET by the two codes.  The arrays are read-only, also after
    the record has crossed a process boundary; the codes (values 0..2)
    are int8.
    """

    pe1_output: np.ndarray       # time each macroblock leaves PE1 (its FIFO arrival)
    pe2_cycles: np.ndarray       # IDCT+MC demand per macroblock
    frame_type_code: np.ndarray  # 0=I 1=P 2=B
    coding_code: np.ndarray      # 0=intra 1=inter 2=skipped

    def __post_init__(self) -> None:
        for array in vars(self).values():
            array.flags.writeable = False

    def __reduce__(self):
        # rebuilt through __init__: unpickled arrays come back writeable
        return ClipRecord, tuple(vars(self).values())


@dataclass
class CaseStudyContext:
    """Prepared state of the MPEG-2 case study (paper §3.2).

    Holds the 14 clips (descriptions only: none keeps its generated
    data), one :class:`ClipRecord` per clip in the same order, the
    cross-clip envelopes of their workload and arrival curves (the paper
    takes "maximum over all respective curves of individual video
    clips"), and the two frequency bounds.
    """

    frames: int
    buffer_size: int
    clips: list[SyntheticClip]
    records: list[ClipRecord]
    gamma_u: WorkloadCurve
    gamma_l: WorkloadCurve
    alpha: PiecewiseLinearCurve
    wcet: float
    bcet: float
    f_gamma: FrequencyBound
    f_wcet: FrequencyBound
    input_digest: str = ""

    @property
    def clip_names(self) -> list[str]:
        """Names of the 14 clips, in order."""
        return [c.profile.name for c in self.clips]


_CONTEXT_CACHE: dict[tuple, CaseStudyContext] = {}


def _chunked(arr, size: int):
    """Yield *arr* in consecutive chunks of *size* (bounded-memory feed)."""
    for start in range(0, arr.size, size):
        yield arr[start : start + size]


def alpha_max(alphas: Sequence[PiecewiseLinearCurve]) -> PiecewiseLinearCurve:
    """ᾱ: the exact pointwise maximum of per-clip arrival curves (the
    paper's "maximum over all respective curves of individual video
    clips", §3.2), traced as ``case_study.alpha_max``."""
    with obs.tracer.span("case_study.alpha_max", curves=len(alphas)):
        alpha = alphas[0]
        for a in alphas[1:]:
            alpha = alpha.maximum(a)
    return alpha


def _clip_curves(
    clip: SyntheticClip, *, dense_limit: int, growth: float, stream_chunk: int | None
) -> tuple[WorkloadCurvePair, PiecewiseLinearCurve, ClipRecord]:
    """One clip's share of the case-study build, run as a :func:`fan_out`
    task: generate the clip, extract its ``γ^u``/``γ^l`` pair and its
    arrival curve.  Returns them with the clip's :class:`ClipRecord`, so
    the caller never generates it again.  The clip is generated on a
    copy: in-process, *clip* is the caller's own, which would otherwise
    keep all of its ``ClipData``."""
    with obs.tracer.span("case_study.clip", clip=clip.profile.name):
        with obs.tracer.span("case_study.generate"):
            data = copy.copy(clip).generate()
        with obs.tracer.span("case_study.workload"):
            k_grid = make_k_grid(
                data.pe2_cycles.size, dense_limit=dense_limit, growth=growth
            )
            if stream_chunk is None:
                pair = WorkloadCurvePair.from_demand_array(
                    data.pe2_cycles, k_values=k_grid
                )
            else:
                pair = WorkloadCurvePair.from_demand_stream(
                    _chunked(data.pe2_cycles, stream_chunk),
                    k_values=k_grid,
                    total=int(data.pe2_cycles.size),
                )
        with obs.tracer.span("case_study.arrival"):
            n_grid = make_k_grid(
                data.pe1_output.size, dense_limit=dense_limit, growth=growth
            )
            alpha = from_trace_upper(data.pe1_output, n_values=n_grid)
    record = ClipRecord(
        data.pe1_output,
        data.pe2_cycles,
        data.frame_type_code.astype(np.int8),
        data.coding_code.astype(np.int8),
    )
    return pair, alpha, record


def fan_out(fn: Callable[[Any], Any], items: Sequence[Any]) -> list[Any]:
    """``[fn(item) for item in items]``, one :func:`repro.runner.run_many`
    task per item.

    The tasks run over one worker process per CPU this process may run
    on, at most one per item, and in-process on one CPU, inside a pool
    worker or off the main thread, which must not start a pool of their
    own.  The values come back in item order, so a caller that combines
    them in that order gets the same bits on any CPU count.  A task's
    input error raises :class:`~repro.util.validation.ValidationError`,
    as it would in-process; any other failure raises
    :class:`~repro.runner.RunnerError`.  *fn* and the items cross a
    process boundary: keep the items small.
    """
    import multiprocessing  # deferred, like the runner: keeps import light

    from repro.runner import run_many

    if (
        multiprocessing.parent_process() is not None
        or threading.current_thread() is not threading.main_thread()
    ):
        workers = 1
    elif hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:  # no affinity API (macOS)
        workers = os.cpu_count() or 1
    values = []
    for result in run_many(fn, items, max_workers=workers, chunk_size=1):
        if result.error_type == "ValidationError":
            raise ValidationError(result.error)
        values.append(result.unwrap())
    return values


def case_study_context(
    *,
    frames: int = 72,
    buffer_size: int = BUFFER_ONE_FRAME,
    dense_limit: int = 4096,
    growth: float = 1.015,
    stream_chunk: int | None = None,
) -> CaseStudyContext:
    """Build (or fetch the cached) case-study context.

    *frames* trades fidelity against runtime: 72 frames (≈3 s, six GOPs,
    ≈117 k macroblocks per clip) reproduces the paper's numbers.  Each
    clip is generated and characterized on its own, one :func:`fan_out`
    task per clip: over one worker process per CPU in this process's
    affinity mask (at most 14), and in-process on one CPU, inside a pool
    worker (sweep and daemon workers) and off the main thread.  A
    task returns the clip's curves and its :class:`ClipRecord` (about
    2.3 MB at 72 frames), and no clip keeps its generated data, so the
    context holds 18 bytes per macroblock besides its curves.  The
    parent then takes the envelopes, the frequency bounds and the input
    digest in clip order, so the result is bit-identical either way.  On
    a 2-vCPU x86-64 host the build takes about 1.4 s (2.4 s in one
    process), most of it in the workload-envelope and arrival-curve
    window kernels; generating the 14 clips takes about 0.5 s of the
    clip work.  Smaller values of *frames* are used by quick tests.

    *stream_chunk* switches the workload-curve extraction to the
    bounded-memory streaming fold
    (:meth:`~repro.core.workload.WorkloadCurvePair.from_demand_stream`),
    feeding each clip's demand trace in chunks of that many events.  The
    resulting curves are bit-identical to the one-shot extraction; the
    knob exists so long-trace sweeps (CLI ``--stream-chunk``, parallel
    runner) bound per-worker memory.
    """
    frames = check_integer(frames, "frames", minimum=12)
    buffer_size = check_integer(buffer_size, "buffer_size", minimum=1)
    if stream_chunk is not None:
        stream_chunk = check_integer(stream_chunk, "stream_chunk", minimum=1)
    key = (frames, buffer_size, dense_limit, growth, stream_chunk)
    if key in _CONTEXT_CACHE:
        ctx = _CONTEXT_CACHE[key]
        obs.record_input("case_study_context", ctx.input_digest)
        return ctx

    with obs.tracer.span(
        "case_study.build", frames=frames, buffer_size=buffer_size
    ):
        clips = standard_clips(frames=frames)
        task = functools.partial(
            _clip_curves, dense_limit=dense_limit, growth=growth, stream_chunk=stream_chunk
        )
        pairs, alphas, records = zip(*fan_out(task, clips))
        gammas_u = [pair.upper for pair in pairs]
        gammas_l = [pair.lower for pair in pairs]
        digest_parts: list[Any] = [frames, buffer_size, dense_limit, growth]
        for clip, record in zip(clips, records):
            digest_parts += [clip.profile.name, record.pe2_cycles, record.pe1_output]

        with obs.tracer.span("case_study.envelopes", clips=len(clips)):
            gamma_u = envelope_upper(gammas_u)
            gamma_l = envelope_lower(gammas_l)
            alpha = alpha_max(alphas)
        wcet = max(g.per_activation_bound for g in gammas_u)
        bcet = min(g.per_activation_bound for g in gammas_l)
        with obs.tracer.span("case_study.frequency_bounds"):
            f_gamma = minimum_frequency_curves(alpha, gamma_u, buffer_size)
            f_wcet = minimum_frequency_wcet(alpha, wcet, buffer_size)

        ctx = CaseStudyContext(
            frames=frames,
            buffer_size=buffer_size,
            clips=clips,
            records=list(records),
            gamma_u=gamma_u,
            gamma_l=gamma_l,
            alpha=alpha,
            wcet=wcet,
            bcet=bcet,
            f_gamma=f_gamma,
            f_wcet=f_wcet,
            input_digest=digest_of(*digest_parts).hex(),
        )
    _CONTEXT_CACHE[key] = ctx
    obs.record_input("case_study_context", ctx.input_digest)
    return ctx


#: Warm evaluators shared by every sweep point this process evaluates —
#: an LRU pool keyed by parameter digest (see
#: :mod:`repro.service.evalpool`); the analysis service's workers and the
#: batch runner's workers both warm it through
#: :func:`sweep_frequency_evaluator`.
_EVALUATOR_POOL = None


def _evaluator_pool():
    """The process-wide evaluator pool (created on first use — the
    service package import is deferred to keep experiment import light)."""
    global _EVALUATOR_POOL
    if _EVALUATOR_POOL is None:
        from repro.service.evalpool import EvaluatorPool

        _EVALUATOR_POOL = EvaluatorPool()
    return _EVALUATOR_POOL


def sweep_frequency_evaluator(
    *,
    frames: int = 72,
    dense_limit: int = 4096,
    growth: float = 1.015,
    stream_chunk: int | None = None,
    max_segments: int | None = None,
    compact_error: float | None = None,
):
    """Warm-started frequency evaluator over the cached case-study context.

    Returns the worker's cached
    :class:`~repro.analysis.frequency.FrequencySweepEvaluator` for this
    parameter combination: the candidate window grid, the optional
    conservative arrival compaction (*max_segments*/*compact_error* — see
    :func:`repro.curves.compact.compact_upper`), and the per-buffer
    ``γ^u`` demand tables are computed once and shared by every sweep
    point the worker evaluates.  Without compaction knobs the evaluator
    reproduces the exact per-point computation bit-identically.
    """
    from repro.analysis.frequency import FrequencySweepEvaluator

    def build() -> FrequencySweepEvaluator:
        ctx = case_study_context(
            frames=frames,
            dense_limit=dense_limit,
            growth=growth,
            stream_chunk=stream_chunk,
        )
        return FrequencySweepEvaluator(
            ctx.alpha,
            ctx.gamma_u,
            wcet=ctx.wcet,
            max_segments=max_segments,
            max_error=compact_error,
        )

    evaluator = _evaluator_pool().get(
        build,
        frames=frames,
        dense_limit=dense_limit,
        growth=growth,
        stream_chunk=stream_chunk,
        max_segments=max_segments,
        compact_error=compact_error,
    )
    # (re-)record the context input on pool hits too, so manifests of
    # warm points still carry the clip-trace digest — the context cache
    # makes this free
    case_study_context(
        frames=frames,
        dense_limit=dense_limit,
        growth=growth,
        stream_chunk=stream_chunk,
    )
    return evaluator
