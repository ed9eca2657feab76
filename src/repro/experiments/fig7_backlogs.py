"""E6 — Figure 7: simulated FIFO backlogs at ``F^γ_min``.

The paper runs the transaction-level simulator with PE2 clocked at the
computed ``F^γ_min`` and reports, per clip, the maximum backlog registered
in the FIFO, normalized to the buffer size: all bars must stay at or below
1.0 (the bound is safe), and the taller bars show the bound is not wildly
pessimistic.
"""

from __future__ import annotations

from repro.experiments.common import BUFFER_ONE_FRAME, ExperimentResult, case_study_context, harnessed
from repro.simulation.pipeline import replay_pipeline
from repro.util.report import ascii_bar_chart, format_quantity

__all__ = ["run"]


@harnessed
def run(*, frames: int = 72, buffer_size: int = BUFFER_ONE_FRAME) -> ExperimentResult:
    """Simulate all 14 clips at ``F^γ_min`` and chart normalized backlogs."""
    ctx = case_study_context(frames=frames, buffer_size=buffer_size)
    frequency = ctx.f_gamma.frequency
    names = []
    normalized = []
    overflowed = []
    for name, record in zip(ctx.clip_names, ctx.records):
        result = replay_pipeline(
            record.pe1_output, record.pe2_cycles, frequency, capacity=buffer_size
        )
        names.append(name)
        normalized.append(result.max_backlog / buffer_size)
        overflowed.append(result.overflowed)

    chart = ascii_bar_chart(
        names,
        normalized,
        max_value=1.0,
        title=(
            "Figure 7: max FIFO backlog / buffer size at "
            f"F = {format_quantity(frequency, 'Hz')} (bound: 1.0)"
        ),
    )
    report = "\n".join(
        [
            chart,
            "",
            f"overflows: {sum(overflowed)} of {len(overflowed)} clips "
            "(paper: none — the bound is safe)",
            f"max normalized backlog: {max(normalized):.3f}",
        ]
    )
    return ExperimentResult(
        experiment_id="E6",
        title="Simulated FIFO backlogs at F_gamma_min",
        paper_reference="Figure 7",
        report=report,
        data={
            "clips": names,
            "normalized_backlogs": normalized,
            "any_overflow": any(overflowed),
            "frequency_hz": frequency,
        },
    )


if __name__ == "__main__":  # pragma: no cover
    print(run())
