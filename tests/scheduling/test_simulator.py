"""Unit tests for the preemptive scheduler simulator."""

import math

import pytest

from repro.scheduling.simulator import simulate, wcet_demands
from repro.scheduling.task import PeriodicTask, TaskSet
from repro.util.validation import ValidationError


@pytest.fixture
def two_tasks():
    return TaskSet([PeriodicTask("hi", 4.0, 1.0), PeriodicTask("lo", 6.0, 2.0)])


class TestBasics:
    def test_single_task(self):
        ts = TaskSet([PeriodicTask("a", 5.0, 2.0)])
        result = simulate(ts, 20.0)
        jobs = result.jobs_of("a")
        assert len(jobs) == 4
        assert all(j.response_time == pytest.approx(2.0) for j in jobs)
        assert result.deadline_misses() == 0

    def test_utilization(self):
        ts = TaskSet([PeriodicTask("a", 5.0, 2.0)])
        result = simulate(ts, 20.0)
        assert result.utilization == pytest.approx(0.4)

    def test_preemption(self, two_tasks):
        result = simulate(two_tasks, 12.0)
        # lo's first job: released at 0, hi runs [0,1), lo [1,3)
        lo_jobs = result.jobs_of("lo")
        assert lo_jobs[0].completion == pytest.approx(3.0)
        # lo's second job at 6: hi arrives at 8 and preempts if lo still
        # running: lo runs [6,8)?? hi at 4 done 5; lo2 at 6 runs 6-8, done 8
        assert lo_jobs[1].completion == pytest.approx(8.0)

    def test_critical_instant_response(self, two_tasks):
        result = simulate(two_tasks, 24.0)
        assert result.max_response_time("lo") == pytest.approx(3.0)

    def test_overload_reports_misses(self):
        ts = TaskSet([PeriodicTask("a", 2.0, 1.5), PeriodicTask("b", 4.0, 2.0)])
        result = simulate(ts, 40.0)
        assert result.deadline_misses("b") > 0

    def test_unfinished_jobs_marked_inf(self):
        ts = TaskSet([PeriodicTask("a", 2.0, 1.9), PeriodicTask("b", 50.0, 30.0)])
        result = simulate(ts, 20.0)
        assert any(math.isinf(j.completion) for j in result.jobs_of("b"))


class TestDemands:
    def test_variable_demand_generator(self):
        ts = TaskSet([PeriodicTask("a", 5.0, 3.0)])
        result = simulate(ts, 20.0, demands={"a": lambda i: 1.0 + (i % 2)})
        demands = [j.demand for j in result.jobs_of("a")]
        assert demands == [1.0, 2.0, 1.0, 2.0]

    def test_generator_exceeding_wcet_rejected(self):
        ts = TaskSet([PeriodicTask("a", 5.0, 1.0)])
        with pytest.raises(ValidationError, match="exceeds wcet"):
            simulate(ts, 20.0, demands={"a": lambda i: 2.0})

    def test_nonpositive_demand_rejected(self):
        ts = TaskSet([PeriodicTask("a", 5.0, 1.0)])
        with pytest.raises(ValidationError):
            simulate(ts, 20.0, demands={"a": lambda i: 0.0})

    def test_unknown_task_rejected(self):
        ts = TaskSet([PeriodicTask("a", 5.0, 1.0)])
        with pytest.raises(ValidationError, match="unknown tasks"):
            simulate(ts, 20.0, demands={"zz": lambda i: 1.0})

    def test_wcet_demands_helper(self):
        ts = TaskSet([PeriodicTask("a", 5.0, 2.0)])
        gens = wcet_demands(ts)
        assert gens["a"](0) == 2.0


class TestConservation:
    def test_busy_time_equals_total_demand_when_feasible(self, two_tasks):
        horizon = 24.0
        result = simulate(two_tasks, horizon)
        expected = sum(j.demand for j in result.jobs if math.isfinite(j.completion))
        assert result.busy_time == pytest.approx(expected)

    def test_job_counts(self, two_tasks):
        result = simulate(two_tasks, 24.0)
        assert len(result.jobs_of("hi")) == 6
        assert len(result.jobs_of("lo")) == 4
