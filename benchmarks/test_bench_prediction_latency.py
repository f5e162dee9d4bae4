"""Prediction latency — the paper's real-time-efficiency claim (§1).

"The entire process of target coin prediction can achieve real-time
efficiency to ensure the timeliness": ranking every listed coin for one
announcement must be far faster than the one-hour lead the task allows.
This benchmark times a full feature-assembly + SNN scoring pass for one
announcement (proper multi-round timing, unlike the one-shot experiment
benchmarks).
"""

import pytest

from benchmarks._reporting import report
from repro.core import TargetCoinPredictor


@pytest.fixture(scope="module")
def predictor(source, collection, trained_snn):
    return TargetCoinPredictor(source, collection.dataset, trained_snn)


def test_prediction_latency(benchmark, collection, predictor):
    event = next(
        e for e in collection.dataset.examples
        if e.label == 1 and e.split == "test"
    )
    ranking = benchmark(
        lambda: predictor.rank(event.channel_id, 0, event.time)
    )
    n = len(ranking.scores)
    mean_s = benchmark.stats.stats.mean
    report(
        "bench_prediction_latency",
        f"ranked {n} candidate coins in {mean_s * 1e3:.1f} ms "
        f"(budget: one hour before pump time)",
    )
    # Real-time: ranking the whole exchange takes well under a minute.
    assert mean_s < 60.0
