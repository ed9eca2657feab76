"""Batch kernels: convolve_many / convolve_reduce."""

from __future__ import annotations

import numpy as np
import pytest

import repro.perf as perf
from repro.curves.arrival import leaky_bucket, periodic_upper
from repro.curves.curve import linear_curve, step_curve
from repro.curves.minplus import convolve
from repro.curves.service import rate_latency
from repro.perf.batch import convolve_many, convolve_reduce
from repro.util.validation import ValidationError


@pytest.fixture(autouse=True)
def fresh_perf_state():
    perf.reset()
    perf.configure(enabled=True)
    yield
    perf.reset()


def test_convolve_many_matches_scalar_calls():
    pairs = [
        (leaky_bucket(10.0, 2.0), rate_latency(5.0, 1.5)),
        (leaky_bucket(3.0, 1.0), rate_latency(9.0, 4.0)),
        (step_curve([1.0, 2.0, 3.0]), linear_curve(2.0)),
    ]
    batch = convolve_many(pairs)
    for (f, g), got in zip(pairs, batch):
        assert got == convolve(f, g)


def test_convolve_many_dedups_repeated_pairs():
    f, g = leaky_bucket(10.0, 2.0), rate_latency(5.0, 1.5)
    convolve_many([(f, g)] * 6)
    per_op = perf.cache_stats()["per_op"]["minplus.convolve"]
    assert per_op["misses"] == 1
    assert per_op["hits"] == 5


def test_convolve_reduce_matches_left_fold():
    curves = [
        leaky_bucket(10.0, 2.0),
        rate_latency(5.0, 1.5),
        leaky_bucket(6.0, 1.2),
        rate_latency(2.0, 3.0),
        periodic_upper(1.0, horizon_periods=8),
    ]
    tree = convolve_reduce(curves)
    fold = curves[0]
    for c in curves[1:]:
        fold = convolve(fold, c)
    # associativity: identical curves up to representation noise
    deltas = np.linspace(0.0, 20.0, 101)
    assert np.allclose(tree(deltas), fold(deltas), rtol=1e-9, atol=1e-9)


def test_convolve_reduce_single_and_empty():
    only = leaky_bucket(1.0, 1.0)
    assert convolve_reduce([only]) is only
    with pytest.raises(ValidationError):
        convolve_reduce([])
