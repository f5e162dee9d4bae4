"""Alert sinks: console lines, JSON-lines records, collection."""

import io
import json

from repro.core.predictor import Ranking
from repro.serving import (
    Announcement,
    CollectingSink,
    ConsoleAlertSink,
    JsonLinesAlertSink,
)
from repro.serving.service import Alert


def _alert():
    announcement = Announcement(channel_id=9, coin_id=11, exchange_id=1,
                                pair="BTC", time=120.0)
    ranking = Ranking(channel_id=9, exchange_id=1, pump_time=120.0,
                      coin_ids=[11, 12, 13], symbols=["AAA", "BBB", "CCC"],
                      probabilities=[0.9, 0.5, 0.1])
    return Alert(announcement=announcement, ranking=ranking, latency_ms=2.5)


def test_announced_rank():
    assert _alert().announced_rank == 1


def test_collecting_sink():
    sink = CollectingSink()
    sink.emit(_alert())
    assert len(sink.alerts) == 1


def test_console_sink_format():
    buffer = io.StringIO()
    ConsoleAlertSink(top_k=2, file=buffer).emit(_alert())
    line = buffer.getvalue()
    assert "channel=9" in line
    assert "AAA(0.90)" in line
    assert "#1" in line and "HIT" in line


def test_jsonl_sink_roundtrip(tmp_path):
    path = tmp_path / "alerts.jsonl"
    with JsonLinesAlertSink(path, top_k=2) as sink:
        sink.emit(_alert())
        sink.emit(_alert())
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == 2
    record = records[0]
    assert record["channel_id"] == 9
    assert record["announced_rank"] == 1
    assert [entry["symbol"] for entry in record["top"]] == ["AAA", "BBB"]
    assert record["latency_ms"] == 2.5
