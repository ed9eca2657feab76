"""A6 — extension: the characterization ladder.

The paper contrasts two endpoints — the single-value WCET and the
trace-measured workload curve.  In between sits the SPI-style per-type
interval characterization (§2.1's analytical mode): build ``γᵘ`` from the
*type sequence* with each macroblock charged its type's WCET.  That curve
is valid for hard real-time analysis (it holds for every stream with the
same type pattern constraints), unlike the measured curve which the paper
notes is "guaranteed for this trace only".

This harness climbs the ladder on the case study and reports what each
refinement buys:

1. single WCET (eq. (10));
2. typed intervals — curves from per-type WCETs over the real type
   sequences (hard-RT valid given the type patterns);
3. measured demands — the paper's Figure 6 curves (soft-RT).

The typed-interval curves are built one
:func:`~repro.experiments.common.fan_out` task per clip, which ships
only the clip's description and its two int8 type-code arrays.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.analysis.frequency import minimum_frequency_curves, minimum_frequency_wcet
from repro.core.operations import envelope_upper
from repro.core.workload import WorkloadCurve
from repro.experiments.common import BUFFER_ONE_FRAME, ExperimentResult, case_study_context, fan_out, harnessed
from repro.mpeg.macroblock import CodingClass, FrameType
from repro.util.report import TextTable, format_quantity
from repro.util.staircase import make_k_grid

__all__ = ["run"]

_FRAME_OF_CODE = [FrameType.I, FrameType.P, FrameType.B]
_CLASS_OF_CODE = list(CodingClass)


def _interval_curve(item) -> WorkloadCurve:
    """One clip's typed-interval ``γᵘ``, run as a :func:`fan_out` task
    on ``(clip, frame_type_code, coding_code)``: each event is charged
    its type's WCET, wcet(type(E_i))."""
    clip, frame_type_code, coding_code = item
    with obs.tracer.span("A6.clip", clip=clip.profile.name):
        profile = clip.pe2_model.profile()
        wcet_by_pair = np.zeros((3, 3))
        for fc in range(3):
            for cc in range(3):
                name = f"{_FRAME_OF_CODE[fc].value}/{_CLASS_OF_CODE[cc].value}"
                wcet_by_pair[fc, cc] = (
                    profile.wcet(name) if name in profile else np.nan
                )
        demands = wcet_by_pair[frame_type_code, coding_code]
        grid = make_k_grid(demands.size, dense_limit=1024, growth=1.04)
        return WorkloadCurve.from_demand_array(demands, "upper", k_values=grid)


@harnessed
def run(*, frames: int = 72, buffer_size: int = BUFFER_ONE_FRAME) -> ExperimentResult:
    """Compute the eq. (9) bound under each characterization level."""
    ctx = case_study_context(frames=frames, buffer_size=buffer_size)

    # level 2: typed-interval curves over the actual type sequences
    interval_curves = fan_out(
        _interval_curve,
        [
            (clip, record.frame_type_code, record.coding_code)
            for clip, record in zip(ctx.clips, ctx.records)
        ],
    )
    gamma_interval = envelope_upper(interval_curves)

    f_wcet = minimum_frequency_wcet(ctx.alpha, gamma_interval.per_activation_bound, buffer_size)
    f_interval = minimum_frequency_curves(ctx.alpha, gamma_interval, buffer_size)
    f_measured = ctx.f_gamma

    table = TextTable(
        ["characterization", "validity", "F_min", "saving vs WCET"],
        title=f"the characterization ladder (b = {buffer_size} macroblocks)",
    )
    rows = []
    for label, validity, bound in [
        ("single WCET (eq. 10)", "hard RT", f_wcet),
        ("per-type intervals + type patterns", "hard RT (given patterns)", f_interval),
        ("measured workload curves (eq. 9)", "this trace class (soft RT)", f_measured),
    ]:
        saving = 1.0 - bound.frequency / f_wcet.frequency
        table.add_row(
            [label, validity, format_quantity(bound.frequency, "Hz"), f"{saving * 100:.1f}%"]
        )
        rows.append({"label": label, "f_min": bound.frequency, "saving": saving})
    report = "\n".join(
        [
            table.render(),
            "",
            "each refinement of the demand characterization buys a tighter "
            "clock; the typed-interval rung keeps hard-real-time validity "
            "(the paper's §2.2 analytical mode), the measured rung trades it "
            "for the full gain (the paper's §3.2 trace mode)",
        ]
    )
    return ExperimentResult(
        experiment_id="A6",
        title="Characterization ladder: WCET vs intervals vs measured curves",
        paper_reference="§2.1-§2.2 modes, quantified on the case study",
        report=report,
        data={"rows": rows},
    )


if __name__ == "__main__":  # pragma: no cover
    print(run())
