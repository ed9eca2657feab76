"""Tests for the service's op implementations, run in process."""

from __future__ import annotations

import json

import numpy as np

from repro.core.workload import WorkloadCurvePair
from repro.service import protocol
from repro.service.jobs import Job
from repro.service.ops import execute_op, execute_op_json


def test_curve_response_is_the_elementwise_conversion():
    """The ``curve`` op converts its curves with ``tolist``: the same Python
    ints and floats as a per-element ``int()``/``float()`` conversion, so
    the JSON the daemon sends is byte for byte the same."""
    rng = np.random.default_rng(20)
    demands = np.maximum(np.rint(rng.lognormal(7.5, 0.6, 700)), 1).tolist()
    got = execute_op("curve", {"demands": demands, "chunk": 256})
    pair = WorkloadCurvePair.from_demand_stream(
        (np.asarray(demands[s : s + 256], dtype=float) for s in range(0, 700, 256)),
        total=700,
    )
    want = {
        "events": 700,
        "wcet": pair.wcet,
        "bcet": pair.bcet,
        "k": [int(k) for k in pair.upper.k_values],
        "gamma_u": [float(v) for v in pair.upper.values],
        "gamma_l": [float(v) for v in pair.lower.values],
    }
    assert got == want
    for key in ("k", "gamma_u", "gamma_l"):
        assert [type(v) for v in got[key]] == [type(v) for v in want[key]]
    assert json.dumps(got) == json.dumps(want)


def test_the_worker_encodes_the_response_the_daemon_would():
    """A daemon attempt returns the result as JSON text; the job decodes it
    for in-process callers and the response carries it byte for byte as
    if the daemon had encoded the result itself."""
    demands = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
    result = execute_op("curve", {"demands": demands})
    raw = execute_op_json("curve", {"demands": demands})
    assert isinstance(raw, protocol.RawJSON)
    job = Job(id="job-000001", op="curve", params={}, result_json=raw)
    job.finish("done")
    assert job.result == result
    line = protocol.encode(protocol.ok_response(1, job=job.to_dict()))
    want = {**job.to_dict(), "result": result}
    assert line == protocol.encode(protocol.ok_response(1, job=want))
    assert "result" not in job.to_dict(with_result=False)
