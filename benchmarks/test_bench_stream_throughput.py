"""Stream-engine throughput and per-announcement ranking latency.

The serving layer's promise is that an always-on monitor keeps up with the
message firehose and still ranks every listed coin the moment a release
appears.  This benchmark replays a tiny world's test period through the
full engine (online detection → sessionization → cached micro-batched
ranking) and reports messages/sec plus p50/p99 scoring latency.

A tiny world is built locally (rather than using the session-scoped
``REPRO_SCALE`` fixtures) so the replay is cheap enough to time as a whole.
"""

import pytest

from benchmarks._reporting import report
from benchmarks.conftest import run_once
from repro.core import train_predictor
from repro.data import collect
from repro.serving import replay_test_period
from repro.simulation import SyntheticWorld
from repro.sources import SyntheticWorldSource
from repro.utils import ReproConfig


@pytest.fixture(scope="module")
def tiny_serving_setup():
    source = SyntheticWorldSource(SyntheticWorld.generate(ReproConfig.tiny()))
    collection = collect(source)
    predictor = train_predictor(source, collection, epochs=2, seed=0)
    return source, collection, predictor


def test_stream_throughput(benchmark, tiny_serving_setup):
    source, collection, predictor = tiny_serving_setup
    result = run_once(
        benchmark,
        lambda: replay_test_period(source, collection, predictor),
    )
    stats = result.stats
    assert stats.alerts > 0
    assert stats.throughput() > 0
    report(
        "bench_stream_throughput",
        f"replayed {stats.messages} messages in {stats.wall_seconds:.2f}s "
        f"({stats.throughput():.0f} msg/s)\n"
        f"alerts: {stats.alerts} in {stats.forward_passes} forward passes "
        f"(mean batch {stats.mean_batch_size():.2f})\n"
        f"ranking latency per announcement: "
        f"p50 {stats.latency_ms(50):.1f} ms, p99 {stats.latency_ms(99):.1f} ms\n"
        f"feature-cache hit rate: {stats.cache_hit_rate():.0%}",
    )
    # An always-on monitor must outpace any realistic Telegram firehose.
    assert stats.throughput() > 10.0
    # Well inside the one-hour lead the task guarantees.
    assert stats.latency_ms(99) < 60_000.0
