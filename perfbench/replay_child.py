"""One in-process serving process for the ``replay`` workload.

``python3 perfbench/replay_child.py <scale> <prep-dir> <out.json>
[--pass] [--spans PATH]`` boots the way ``repro serve --load`` does
(source, ``collect``, artifact load, ``StreamEngine`` with its
``PredictionService``), timing each step, then with ``--pass`` replays the
held-out test period once through a fresh engine.  It writes its figures
and every alert's ranking to ``out.json``.  ``--spans`` installs the
tracing wrappers before boot and writes the spans at exit.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

from prep import SRC, config

sys.path.insert(0, str(SRC))


class TimedStream:
    """The engine's message stream, stamping when each message left it."""

    def __init__(self, stream):
        self.stream = stream
        self.yielded: dict[tuple, float] = {}

    def __iter__(self):
        for message in self.stream:
            self.yielded.setdefault((message.channel_id, message.time),
                                    time.perf_counter())
            yield message


class LatencySink:
    """Alert sink timing stream-yield to sink for each alert."""

    def __init__(self) -> None:
        self.stream: TimedStream | None = None
        self.alerts = []
        self.latencies_ms: list[float] = []

    def emit(self, alert) -> None:
        now = time.perf_counter()
        a = alert.announcement
        self.latencies_ms.append(
            (now - self.stream.yielded[(a.channel_id, a.time)]) * 1000.0)
        self.alerts.append(alert)


def main(argv: list[str]) -> None:
    scale, prep_dir, out = argv[0], Path(argv[1]), Path(argv[2])
    run_pass = "--pass" in argv
    spans_path = argv[argv.index("--spans") + 1] if "--spans" in argv \
        else None
    tracer = None
    if spans_path is not None:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)

    from repro.core.predictor import TargetCoinPredictor
    from repro.data import collect
    from repro.serving import MessageStream, build_engine
    from repro.sources import parse_source_spec

    from checks import encode_ranking
    from context import openblas_threads, peak_rss_mb

    t0 = time.perf_counter()
    source = parse_source_spec("synthetic", config=config(scale))
    t1 = time.perf_counter()
    collection = collect(source)
    t2 = time.perf_counter()
    predictor = TargetCoinPredictor.from_artifact(prep_dir / "artifact",
                                                  source, collection.dataset)
    t3 = time.perf_counter()
    start = collection.dataset.split_hours[1]
    sink = LatencySink()
    engine = build_engine(source, collection, predictor, sinks=(sink,),
                          history_cutoff=start)
    t4 = time.perf_counter()
    report = {"setup": {"setup.source_s": t1 - t0, "setup.collect_s": t2 - t1,
                        "setup.artifact_load_s": t3 - t2,
                        "setup.service_init_s": t4 - t3},
              "setup_s": t4 - t0}
    if run_pass:
        stream = TimedStream(MessageStream.replay(
            source, start=start,
            channel_ids=collection.exploration.explored_ids))
        sink.stream = stream
        cpu_before = os.times()
        began = time.perf_counter()
        engine.run(stream)
        ended = time.perf_counter()
        cpu_after = os.times()
        stats = engine.stats
        report["pass"] = {
            "start": began, "end": ended,
            "cpu_s": (cpu_after.user + cpu_after.system
                      - cpu_before.user - cpu_before.system),
            "messages": stats.messages, "pump_messages": stats.pump_messages,
            "latencies_ms": sink.latencies_ms,
        }
    report["peak_rss_mb"] = peak_rss_mb()
    report["openblas_threads"] = openblas_threads()
    if run_pass:
        report["pass"]["alerts"] = [
            {"announcement": alert.announcement.to_payload(),
             "ranking": encode_ranking(alert.ranking)}
            for alert in sink.alerts
        ]
    out.write_text(json.dumps(report))
    if tracer is not None:
        tracer.dump(spans_path)


if __name__ == "__main__":
    main(sys.argv[1:])
