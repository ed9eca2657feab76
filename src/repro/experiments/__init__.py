"""Experiment harnesses — one module per paper figure/table (DESIGN.md §3).

| id | artifact          | module                 |
|----|-------------------|------------------------|
| E1 | Figure 1          | `fig1_sequence`        |
| E2 | Figure 2          | `fig2_polling`         |
| E3 | §3.1 (analytic)   | `rms_table`            |
| E4 | Figure 6          | `fig6_workload_curves` |
| E5 | eqs. (9)/(10)     | `freq_table`           |
| E6 | Figure 7          | `fig7_backlogs`        |
| E7 | eqs. (6)/(7)      | `backlog_bounds`       |
| E8 | Figure 4          | `conversion_demo`      |
| A1 | buffer ablation   | `ablation_buffer`      |
| A2 | variability abl.  | `ablation_variability` |
| A3 | power savings     | `power_table`          |
| A4 | greedy shaping    | `shaper_table`         |
| A5 | acceptance ratio  | `acceptance_table`     |
| A6 | charact. ladder   | `ladder_table`         |

Every module exposes ``run(**params) -> ExperimentResult``; running a
module as a script prints the rendered report.
"""

from repro.experiments.common import (
    BUFFER_ONE_FRAME,
    CaseStudyContext,
    ExperimentResult,
    case_study_context,
    harnessed,
)
from repro.experiments import (
    fig1_sequence,
    fig2_polling,
    rms_table,
    fig6_workload_curves,
    freq_table,
    fig7_backlogs,
    backlog_bounds,
    conversion_demo,
    ablation_buffer,
    ablation_variability,
    power_table,
    shaper_table,
    acceptance_table,
    ladder_table,
)

ALL_EXPERIMENTS = {
    "E1": fig1_sequence.run,
    "E2": fig2_polling.run,
    "E3": rms_table.run,
    "E4": fig6_workload_curves.run,
    "E5": freq_table.run,
    "E6": fig7_backlogs.run,
    "E7": backlog_bounds.run,
    "E8": conversion_demo.run,
    "A1": ablation_buffer.run,
    "A2": ablation_variability.run,
    "A3": power_table.run,
    "A4": shaper_table.run,
    "A5": acceptance_table.run,
    "A6": ladder_table.run,
}

__all__ = [
    "BUFFER_ONE_FRAME",
    "CaseStudyContext",
    "ExperimentResult",
    "case_study_context",
    "harnessed",
    "ALL_EXPERIMENTS",
]
