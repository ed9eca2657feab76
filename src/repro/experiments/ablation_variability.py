"""A2 — ablation: saving vs demand variability.

The paper's motivation: the rarer the worst case, the larger the gap
between WCET-based and workload-curve-based analysis.  We sweep the
stall-burst magnitude of the PE2 demand model (the mechanism that inflates
the WCET without moving sustained averages) and measure the frequency
saving — it should grow monotonically-ish with the WCET/average ratio.

The stall levels differ only in PE2's execution jitter, the generator's
last draw, so each clip is generated once for all of them, one
:func:`~repro.experiments.common.fan_out` task per clip.
"""

from __future__ import annotations

import functools

from repro import obs
from repro.analysis.frequency import minimum_frequency_curves, minimum_frequency_wcet
from repro.core.operations import envelope_upper
from repro.core.workload import WorkloadCurve
from repro.curves.arrival import from_trace_upper
from repro.curves.curve import PiecewiseLinearCurve
from repro.experiments.common import (
    BUFFER_ONE_FRAME,
    ExperimentResult,
    alpha_max,
    fan_out,
    harnessed,
)
from repro.mpeg.bitstream import ClipProfile, SyntheticClip
from repro.mpeg.clips import CLIP_PROFILES
from repro.mpeg.demand import IDCT_MC_MODEL, StageDemandModel
from repro.util.report import TextTable, format_quantity
from repro.util.staircase import make_k_grid

__all__ = ["run"]


def _model_with_stalls(stall_extra: float) -> StageDemandModel:
    return StageDemandModel(
        IDCT_MC_MODEL.name,
        {cls: IDCT_MC_MODEL.cost(cls) for cls in IDCT_MC_MODEL._costs},
        jitter=IDCT_MC_MODEL.jitter,
        stall_probability=IDCT_MC_MODEL.stall_probability,
        stall_extra=stall_extra,
    )


def _grid(size: int):
    return make_k_grid(size, dense_limit=1024, growth=1.04)


def _clip_levels(
    profile: ClipProfile, *, frames: int, models: list[StageDemandModel]
) -> tuple[PiecewiseLinearCurve, list[WorkloadCurve], list[float]]:
    """One clip's share of A2, run as a :func:`fan_out` task: its
    arrival curve, which every stall level shares (PE1's output times do
    not depend on the PE2 model), and per level its ``γᵘ`` and mean PE2
    demand, all from one generation of the clip."""
    with obs.tracer.span("A2.clip", clip=profile.name):
        variants = SyntheticClip(profile, frames=frames).generate_pe2_variants(models)
        pe1_output = variants[0].pe1_output
        alpha = from_trace_upper(pe1_output, n_values=_grid(pe1_output.size))
        gammas = [
            WorkloadCurve.from_demand_array(
                data.pe2_cycles, "upper", k_values=_grid(data.pe2_cycles.size)
            )
            for data in variants
        ]
        means = [float(data.pe2_cycles.mean()) for data in variants]
    return alpha, gammas, means


@harnessed
def run(
    *,
    frames: int = 24,
    stall_levels: tuple[float, ...] = (0.0, 0.35, 0.7, 1.4),
    n_clips: int = 6,
) -> ExperimentResult:
    """Sweep the stall-burst magnitude and report the saving.

    Uses a subset of clips and shorter streams: the trend, not the absolute
    numbers, is the object here.
    """
    profiles = list(CLIP_PROFILES[-n_clips:])  # the busiest presets
    table = TextTable(
        ["stall extra", "WCET/avg ratio", "F_gamma", "F_wcet", "savings"],
        title="Ablation: frequency saving vs demand variability",
    )
    task = functools.partial(
        _clip_levels,
        frames=frames,
        models=[_model_with_stalls(stall) for stall in stall_levels],
    )
    per_clip = fan_out(task, profiles) if stall_levels else []
    rows = []
    for level, stall in enumerate(stall_levels):
        if level == 0:  # the levels share the clips' arrival curves
            alpha = alpha_max([clip_alpha for clip_alpha, _, _ in per_clip])
        gammas = [clip_gammas[level] for _, clip_gammas, _ in per_clip]
        means = [clip_means[level] for _, _, clip_means in per_clip]
        gamma_u = envelope_upper(gammas)
        wcet = max(g.per_activation_bound for g in gammas)
        ratio = wcet / (sum(means) / len(means))
        fg = minimum_frequency_curves(alpha, gamma_u, BUFFER_ONE_FRAME)
        fw = minimum_frequency_wcet(alpha, wcet, BUFFER_ONE_FRAME)
        savings = fg.savings_over(fw)
        table.add_row(
            [
                stall,
                f"{ratio:.2f}",
                format_quantity(fg.frequency, "Hz"),
                format_quantity(fw.frequency, "Hz"),
                f"{savings * 100:.1f}%",
            ]
        )
        rows.append(
            {"stall": stall, "wcet_ratio": ratio, "savings": savings,
             "f_gamma": fg.frequency, "f_wcet": fw.frequency}
        )
    report = "\n".join(
        [
            table.render(),
            "",
            "the saving grows with the WCET/average ratio — variability is "
            "exactly what workload curves monetize",
        ]
    )
    return ExperimentResult(
        experiment_id="A2",
        title="Variability ablation of the frequency saving",
        paper_reference="motivation (§1) quantified",
        report=report,
        data={"rows": rows},
    )


if __name__ == "__main__":  # pragma: no cover
    print(run())
