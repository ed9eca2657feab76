"""The array-pass Lehoczky test against its scalar oracle.

``rms_test_classic`` / ``rms_test_curves`` evaluate ``W_i(t)/t`` at all
scheduling points of a task at once; :func:`repro.reference.rms_test_brute`
is the point-by-point scan they replaced.  The two must agree exactly —
loads, critical points and verdicts — on random task sets drawn where
acceptance flips: worst-case utilization in [0.9, 1.1] (Gopalakrishnan's
sharp thresholds), where an off-by-one in the arrival count or a changed
tie-break between equal ``W_i(t)/t`` values would show.  Some sets get
integer periods (exact multiples, hence ties at the scheduling points),
some constrained deadlines.
"""

import numpy as np
import pytest

from repro.reference import rms_test_brute
from repro.scheduling.generator import random_variable_task_set
from repro.scheduling.rms import rms_test_classic, rms_test_curves
from repro.scheduling.task import PeriodicTask, TaskSet

SETS_PER_SEED = 60


def _near_threshold_sets(seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(SETS_PER_SEED):
        n = int(rng.integers(2, 7))
        base = random_variable_task_set(n, float(rng.uniform(0.9, 1.1)), rng)
        integer_periods = rng.random() < 0.3
        constrained = rng.random() < 0.4
        tasks = []
        for t in base:
            # rounding a period up never lets the WCET exceed it
            period = float(np.ceil(t.period)) if integer_periods else t.period
            deadline = (
                t.wcet + float(rng.uniform(0.5, 1.0)) * (period - t.wcet)
                if constrained
                else None
            )
            tasks.append(
                PeriodicTask(t.name, period, t.wcet, curves=t.curves, deadline=deadline)
            )
        yield TaskSet(tasks)


@pytest.mark.parametrize("seed", range(4))
def test_array_pass_equals_scalar_oracle(seed):
    verdicts = set()
    for task_set in _near_threshold_sets(seed):
        classic = rms_test_classic(task_set)
        curves = rms_test_curves(task_set)
        assert classic == rms_test_brute(task_set, "classic")
        assert curves == rms_test_brute(task_set, "workload-curves")
        # eq. (5): the curve test is never more pessimistic, task by task
        for l_curves, l_classic in zip(curves.per_task_load, classic.per_task_load):
            assert l_curves <= l_classic
        verdicts.add(classic.schedulable)
    # the draws straddle the threshold: equality held on both verdicts
    assert verdicts == {True, False}


def test_results_are_python_floats():
    task_set = next(_near_threshold_sets(0))
    analysis = rms_test_curves(task_set)
    for value in analysis.per_task_load + analysis.critical_points:
        assert type(value) is float

