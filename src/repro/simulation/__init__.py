"""Transaction-level simulation substrate (paper Figures 5 and 7).

A small discrete-event kernel (with O(n) bulk loading of pre-sorted
event arrays) plus FIFO and processing-element models; N-stage tandem
chains in both event-driven and closed-form vectorized-replay form
(cross-validated against each other), with the paper's two-PE testbed
as the one-stage case (``simulate_pipeline``/``replay_pipeline``); and
seeded open-system workload generators (Poisson/constant/uniform
arrivals, long-task fractions, heterogeneous client mixes) whose traces
feed the simulators and the workload-curve extraction alike.
"""

from repro.simulation.kernel import Simulator
from repro.simulation.fifo import Fifo
from repro.simulation.pe import ProcessingElement
from repro.simulation.pipeline import PipelineResult, simulate_pipeline, replay_pipeline
from repro.simulation.chain import (
    ChainResult,
    StageStats,
    replay_chain,
    simulate_chain,
)
from repro.simulation.workloads import (
    ARRIVAL_MODELS,
    ClientProfile,
    GeneratedWorkload,
    WorkloadSpec,
    generate_workload,
    scenario_grid,
)

__all__ = [
    "Simulator",
    "Fifo",
    "ProcessingElement",
    "PipelineResult",
    "simulate_pipeline",
    "replay_pipeline",
    "ChainResult",
    "StageStats",
    "replay_chain",
    "simulate_chain",
    "ARRIVAL_MODELS",
    "ClientProfile",
    "GeneratedWorkload",
    "WorkloadSpec",
    "generate_workload",
    "scenario_grid",
]
