"""Prediction latency — the paper's real-time-efficiency claim (§1).

"The entire process of target coin prediction can achieve real-time
efficiency to ensure the timeliness": ranking every listed coin for one
announcement must be far faster than the one-hour lead the task allows.
This benchmark times a full feature-assembly + SNN scoring pass for one
announcement (proper multi-round timing, unlike the one-shot experiment
benchmarks).  A second report times the layer under it that a serving
feature-cache miss pays: ``coin_market_block``, which is the assembler's
``candidate_block``, over one announcement's candidates on a tiny world
built here.
"""

import pytest

from benchmarks._reporting import machine_context, report
from repro.core import TargetCoinPredictor
from repro.data import collect
from repro.features import FeatureAssembler
from repro.markets import pump_candidates
from repro.simulation import SyntheticWorld
from repro.sources import SyntheticWorldSource
from repro.utils import ReproConfig


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


@pytest.fixture(scope="module")
def tiny_assembler():
    source = SyntheticWorldSource(SyntheticWorld.generate(ReproConfig.tiny()))
    return FeatureAssembler(source, collect(source).dataset)


def test_coin_market_block_latency(benchmark, tiny_assembler):
    """One feature-cache miss: the candidates' coin-stable and
    market-movement columns at a fractional pump hour."""
    event = next(
        e for e in tiny_assembler.dataset.examples
        if e.label == 1 and e.split == "test"
    )
    time = event.time + 0.37
    coins = pump_candidates(tiny_assembler.source.coins, 0, time)
    block = benchmark(lambda: tiny_assembler.candidate_block(coins, time))
    mean_s = benchmark.stats.stats.mean
    report(
        "bench_coin_market_block",
        f"{machine_context()}\n"
        f"coin_market_block over {len(coins)} candidates (tiny scale, "
        f"exchange 0, t = {time:.2f}): {mean_s * 1e3:.2f} ms per miss",
    )
    assert block.shape[0] == len(coins) > 0
    assert mean_s < 60.0
