"""Schedulability analysis with workload curves (paper §3.1) plus the
substrate it rests on: the periodic task model, Lehoczky's exact RMS test,
response-time analysis, and a discrete-event preemptive scheduler
simulator used to validate the analytic verdicts.
"""

from repro.scheduling.task import PeriodicTask, TaskSet
from repro.scheduling.rms import (
    RMSAnalysis,
    scheduling_points,
    cumulative_demand_classic,
    cumulative_demand_curves,
    rms_test_classic,
    rms_test_curves,
    liu_layland_bound,
    liu_layland_test,
)
from repro.scheduling.response_time import (
    ResponseTimeResult,
    response_times_classic,
    response_times_curves,
)
from repro.scheduling.generator import uunifast, random_task_set, random_variable_task_set
from repro.scheduling.priority import deadline_monotonic, audsley_assignment
from repro.scheduling.sensitivity import demand_scaling_factor, frequency_scaling_factor
from repro.scheduling.simulator import (
    CompletedJob,
    SimulationResult,
    simulate,
    wcet_demands,
)

__all__ = [
    "PeriodicTask",
    "TaskSet",
    "RMSAnalysis",
    "scheduling_points",
    "cumulative_demand_classic",
    "cumulative_demand_curves",
    "rms_test_classic",
    "rms_test_curves",
    "liu_layland_bound",
    "liu_layland_test",
    "ResponseTimeResult",
    "response_times_classic",
    "response_times_curves",
    "uunifast",
    "random_task_set",
    "random_variable_task_set",
    "deadline_monotonic",
    "audsley_assignment",
    "demand_scaling_factor",
    "frequency_scaling_factor",
    "CompletedJob",
    "SimulationResult",
    "simulate",
    "wcet_demands",
]
