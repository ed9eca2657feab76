"""Tests for the JSONL protocol and the client/server round trip."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.service import protocol
from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import AnalysisService
from repro.service.server import serve_unix


class TestFraming:
    def test_encode_decode_roundtrip(self):
        message = {"op": "submit", "rid": 7, "job": {"op": "sleep", "params": {}}}
        line = protocol.encode(message)
        assert line.endswith(b"\n")
        assert protocol.decode(line) == message

    def test_decode_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"not json\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"[1, 2, 3]\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"\n")

    def test_responses_echo_rid(self):
        ok = protocol.ok_response(3, job={"id": "job-000001"})
        assert ok["ok"] is True and ok["rid"] == 3
        err = protocol.error_response("nope", error_type="validation", rid=4)
        assert err["ok"] is False
        assert err["error_type"] == "validation"
        assert err["rid"] == 4

    def test_encode_is_single_line(self):
        line = protocol.encode({"op": "hello", "text": "a\nb"})
        assert line.count(b"\n") == 1


class TestRawJSON:
    """A value encoded ahead (:func:`protocol.encode_value`) is spliced
    into the line byte for byte as if it had been encoded in place."""

    RESULT = {"wcet": 4.0, "k": [1, 2, 3], "gamma_u": [4.0, 6.0, -0.0], "note": "a\u00e9\n"}

    def test_spliced_line_equals_the_line_of_the_value(self):
        raw = protocol.encode_value(self.RESULT)
        assert isinstance(raw, protocol.RawJSON)
        job = {"id": "job-000001", "state": "done", "error": None}
        spliced = protocol.encode(protocol.ok_response(9, job={**job, "result": raw}))
        direct = protocol.encode(protocol.ok_response(9, job={**job, "result": self.RESULT}))
        assert spliced == direct
        assert protocol.decode(spliced)["job"]["result"] == self.RESULT

    def test_several_raw_values_at_any_dict_depth(self):
        message = {
            "a": protocol.encode_value([1.5, None]),
            "b": {"c": protocol.encode_value({"d": "x"}), "e": [protocol.RawJSON("1")]},
            "f": protocol.encode_value("\x00-0\x00"),
        }
        # a RawJSON inside a list is a plain string: only dict values are spliced
        want = {"a": [1.5, None], "b": {"c": {"d": "x"}, "e": ["1"]}, "f": "\x00-0\x00"}
        assert protocol.encode(message) == protocol.encode(want)


@pytest.fixture()
def live_server(tmp_path):
    """A daemon serving the protocol on a unix socket in a worker thread."""
    sock = str(tmp_path / "svc.sock")
    ready = threading.Event()

    def run_server():
        async def go():
            service = AnalysisService(workers=2, queue_limit=16, seed=11)
            await serve_unix(service, sock, ready=ready.set)

        asyncio.run(go())

    thread = threading.Thread(target=run_server, daemon=True)
    thread.start()
    assert ready.wait(20), "server did not come up"
    yield sock
    try:
        with ServiceClient(sock, timeout=10) as client:
            client.shutdown()
    except (ServiceError, OSError):
        pass  # a test already shut it down
    thread.join(20)


class TestClientServer:
    def test_hello_reports_schema_and_ops(self, live_server):
        with ServiceClient(live_server, timeout=30) as client:
            hello = client.hello()
            assert hello["schema"] == protocol.SCHEMA
            assert "submit" in hello["ops"]
            assert hello["stats"]["queue_limit"] == 16

    def test_submit_result_roundtrip(self, live_server):
        with ServiceClient(live_server, timeout=30) as client:
            job = client.submit("curve", {"demands": [1.0, 3.0, 2.0, 3.0]})
            assert job["state"] in ("queued", "running")
            done = client.result(job["id"], timeout=30)
            assert done["state"] == "done"
            assert done["result"]["wcet"] == 3.0
            assert done["result"]["k"] == [1, 2, 3, 4]
            # status drops the payload, keeps the lifecycle record
            status = client.status(job["id"])
            assert status["state"] == "done"
            assert "result" not in status

    def test_error_responses_become_exceptions(self, live_server):
        with ServiceClient(live_server, timeout=30) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.result("job-424242")
            assert excinfo.value.error_type == "unknown-job"
            with pytest.raises(ServiceError) as excinfo:
                client.submit("no-such-op", {})
            assert excinfo.value.error_type == "validation"

    def test_failed_job_carries_error(self, live_server):
        with ServiceClient(live_server, timeout=30) as client:
            job = client.submit("curve", {"demands": []})
            done = client.result(job["id"], timeout=30)
            assert done["state"] == "failed"
            assert done["error_type"] == "ValidationError"

    def test_stats_over_the_wire(self, live_server):
        with ServiceClient(live_server, timeout=30) as client:
            job = client.submit("sleep", {"seconds": 0})
            client.result(job["id"], timeout=30)
            stats = client.stats()
            assert stats["states"].get("done", 0) >= 1

    def test_events_stream(self, live_server):
        with ServiceClient(live_server, timeout=30) as subscriber:
            with ServiceClient(live_server, timeout=30) as client:
                events = subscriber.events()
                job = client.submit("sleep", {"seconds": 0})
                client.result(job["id"], timeout=30)
                seen = []
                for event in events:
                    if event["id"] == job["id"]:
                        seen.append(event["state"])
                    if seen and seen[-1] == "done":
                        break
                assert seen[0] == "queued"
                assert seen[-1] == "done"

    def test_over_limit_line_gets_protocol_error_and_server_survives(
        self, live_server
    ):
        demands = [1.0] * 25_000  # a ~100 KB submit line
        assert len(protocol.encode({"job": {"params": {"demands": demands}}})) > (
            protocol.MAX_LINE_BYTES
        )
        with ServiceClient(live_server, timeout=30) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.submit("curve", {"demands": demands})
            assert excinfo.value.error_type == "protocol"
            assert f"{protocol.MAX_LINE_BYTES}-byte limit" in str(excinfo.value)
            # the server answered, then closed this session
            with pytest.raises((ServiceError, OSError)):
                client.hello()
        with ServiceClient(live_server, timeout=30) as client:
            assert client.hello()["schema"] == protocol.SCHEMA

    def test_shutdown_stops_server(self, live_server):
        with ServiceClient(live_server, timeout=30) as client:
            client.shutdown()
        # the socket stops accepting: a fresh request errors out
        with pytest.raises((ServiceError, OSError)):
            with ServiceClient(live_server, timeout=5) as client:
                client.hello()
