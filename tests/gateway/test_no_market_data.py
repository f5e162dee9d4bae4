"""A time the data source has no candles for answers 422, not 500.

A file dump records candles for a bounded set of hours.  Ranking an
announcement past them used to raise ``SourceDataError`` from the
feature code, which the gateway answered as a retryable ``500
internal``.  It is the caller's request that cannot be served, so the
gateway answers ``422 no_market_data``; nothing is stored or folded, and
a coalesced flush still answers the batch-mates the source does cover.
"""

from __future__ import annotations

import pytest

from repro.gateway import GatewayApp
from repro.gateway.microbatch import _Entry
from repro.gateway.schema import (
    E_NO_MARKET_DATA,
    GatewayFault,
    RankBatchRequestV1,
    RankRequestV1,
)
from repro.serving import Announcement, PredictionService
from repro.sources import export_synthetic_dump
from repro.store import SQLiteEventStore


@pytest.fixture(scope="module")
def file_source(tiny_world, tiny_collection, tmp_path_factory):
    out = tmp_path_factory.mktemp("no-market-data") / "dump"
    return export_synthetic_dump(tiny_world, out, collection=tiny_collection)


@pytest.fixture
def app(file_source, tiny_registry, tiny_collection, tmp_path):
    service = PredictionService.from_artifact(
        tiny_registry.resolve("dnn"), file_source, tiny_collection.dataset,
        store=SQLiteEventStore(tmp_path / "events.db"),
    )
    yield GatewayApp(service)
    service.store.close()


@pytest.fixture(scope="module")
def covered(tiny_collection) -> Announcement:
    """A test-period announcement the dump has candles for."""
    example = next(e for e in tiny_collection.dataset.examples
                   if e.split == "test" and e.label == 1)
    return Announcement(channel_id=example.channel_id, coin_id=-1,
                        exchange_id=0, pair="BTC", time=example.time)


@pytest.fixture(scope="module")
def uncovered(file_source, covered) -> Announcement:
    """The same channel with a real coin, ten hours past the dump."""
    _first, last = file_source.market.hour_range
    return Announcement(channel_id=covered.channel_id, coin_id=3,
                        exchange_id=0, pair="BTC", time=last + 10.5)


def test_rank_past_the_dump_is_a_422_that_stores_and_folds_nothing(
        app, uncovered):
    service = app.service
    history = service.history(uncovered.channel_id)
    with pytest.raises(GatewayFault) as info:
        app.rank(RankRequestV1(uncovered))
    assert (info.value.code, info.value.status) == (E_NO_MARKET_DATA, 422)
    with pytest.raises(GatewayFault) as info:
        app.rank_batch(RankBatchRequestV1((uncovered,)))
    assert info.value.code == E_NO_MARKET_DATA
    assert service.store.counts()["alerts"] == 0
    assert service.store.counts()["announcements"] == 0
    assert service.history(uncovered.channel_id) == history
    assert service.stats.alerts == 0


def test_coalesced_flush_answers_the_covered_batch_mate(app, covered,
                                                       uncovered):
    alone = app.rank(RankRequestV1(covered)).alert
    entries = [_Entry(covered, None), _Entry(uncovered, None)]
    app._execute_coalesced(entries)
    assert entries[0].fault is None
    assert entries[0].alert.ranking == alone.ranking
    assert entries[1].alert is None
    assert entries[1].fault.code == E_NO_MARKET_DATA
    # One row per answered ask: the refused flush and its uncovered
    # entry log nothing, the survivor's re-score logs it once.
    counts = app.service.store.counts()
    assert (counts["announcements"], counts["alerts"]) == (2, 2)
