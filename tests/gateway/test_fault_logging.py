"""A 500 logs its cause.

The 500 envelope names only the exception's type.  The gateway's
structured ``gateway_error`` line must hold the rest — the exception's
message, its traceback and the trace ids of the requests it failed —
once per failure, however many coalesced requests that failure answered.
"""

from __future__ import annotations

import http.client
import json
import threading

from repro.gateway import GatewayApp, MicroBatcher, serve_in_thread
from repro.gateway.schema import E_INTERNAL, GatewayFault
from repro.serving import Announcement
from repro.telemetry import (
    TRACE_HEADER,
    CapturingLogger,
    TelemetryHub,
    start_trace,
)
from tests.gateway.conftest import make_announcements, service_from
from tests.gateway.test_microbatch import queued, wait_until


def _post(server, path: str, payload: dict):
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("POST", path, body=json.dumps(payload).encode(),
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return (response.status, response.getheader(TRACE_HEADER),
                response.read())
    finally:
        connection.close()


def _errors(logger: CapturingLogger) -> list[dict]:
    return [r for r in logger.records if r["event"] == "gateway_error"]


def test_rank_500_logs_message_traceback_and_trace_id(
        tiny_registry, tiny_source, tiny_collection, test_positives,
        monkeypatch):
    service = service_from(tiny_registry, "dnn", tiny_source,
                           tiny_collection)

    def rank_batch(announcements):
        raise ValueError("feature row 17 is NaN")

    monkeypatch.setattr(service, "rank_batch", rank_batch)
    logger = CapturingLogger()
    app = GatewayApp(service, telemetry=TelemetryHub(logger=logger))
    server, _thread = serve_in_thread(app)
    try:
        announcement = make_announcements(test_positives, 1,
                                          coin_known=False)[0]
        status, trace_id, body = _post(server, "/v1/rank", {
            "schema_version": 1,
            "announcement": announcement.to_payload(),
        })
    finally:
        server.shutdown()
        server.server_close()
    assert status == 500
    # The envelope is unchanged: the wire names the type only.
    assert body == (b'{"schema_version":1,"error":{"code":"internal",'
                    b'"message":"internal error (ValueError); see server '
                    b'logs"}}')
    [record] = _errors(logger)
    assert record["level"] == "error"
    assert record["exception"] == "ValueError"
    assert record["detail"] == "feature row 17 is NaN"
    assert "in rank_batch" in record["traceback"]
    assert "ValueError: feature row 17 is NaN" in record["traceback"]
    assert record["trace_ids"] == [trace_id]
    assert record["trace_id"] == trace_id


def test_coalesced_failure_logs_its_traceback_once():
    """One flush failing three requests: every request gets the same
    fault, whose cause goes to exactly one log line, naming all three."""
    lock = threading.Lock()

    def execute(batch):
        raise RuntimeError("model exploded")

    batcher = MicroBatcher(execute, lock, max_batch=8)
    faults: list = [None] * 3
    trace_ids = [f"trace-{i}" for i in range(3)]

    def submit(index: int) -> None:
        with start_trace("rank", trace_id=trace_ids[index]):
            try:
                batcher.submit(Announcement(1, -1, 0, "BTC", 100.0 + index))
            except GatewayFault as fault:
                faults[index] = fault

    with lock:  # hold the flush until all three are queued
        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(3)]
        for thread in threads:
            thread.start()
        wait_until(lambda: queued(batcher) == 3)
    for thread in threads:
        thread.join(timeout=30)
    assert len({id(fault) for fault in faults}) == 1
    fault = faults[0]
    assert fault.code == E_INTERNAL and fault.status == 500
    assert sorted(fault.trace_ids) == trace_ids
    cause = fault.take_cause()
    assert isinstance(cause, RuntimeError)
    assert fault.take_cause() is None
