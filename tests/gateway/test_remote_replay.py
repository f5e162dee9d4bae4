"""`repro serve --gateway`'s engine: remote replay ≡ local replay.

The same artifact, the same message stream: the client-side replay loop
(:func:`replay_against_gateway`) must produce exactly the alerts the
in-process :func:`replay_test_period` engine produces — same count, same
announcements, bit-for-bit identical rankings.
"""

import pytest

from repro.core.predictor import TargetCoinPredictor
from repro.gateway import GatewayApp, remote_ranker, replay_against_gateway
from repro.serving import (
    CollectingSink,
    MessageStream,
    ServiceStats,
    StreamEngine,
    build_engine,
    replay_test_period,
)
from repro.types import Message
from tests.gateway.conftest import service_from
from tests.serving.test_engine import _AlwaysPumpDetector, _OneShotSessionizer


def exact(ranking):
    return [(s.coin_id, s.probability) for s in ranking.scores]


@pytest.fixture(scope="module")
def local_result(tiny_source, tiny_collection, tiny_registry):
    predictor = TargetCoinPredictor.from_artifact(
        tiny_registry.resolve("snn"), tiny_source, tiny_collection.dataset
    )
    return replay_test_period(tiny_source, tiny_collection, predictor)


def test_remote_replay_matches_local_engine(tiny_source, tiny_collection,
                                            tiny_registry, gateway,
                                            local_result):
    service = service_from(tiny_registry, "snn", tiny_source, tiny_collection)
    _server, client = gateway(GatewayApp(service, registry=tiny_registry))
    sink = CollectingSink()
    remote_result = replay_against_gateway(
        tiny_source, tiny_collection, client, sinks=(sink,)
    )

    assert len(remote_result.alerts) == len(local_result.alerts) > 0
    for remote, local in zip(remote_result.alerts, local_result.alerts):
        assert remote.announcement == local.announcement
        assert exact(remote.ranking) == exact(local.ranking)
        assert remote.announced_rank == local.announced_rank

    # The engine's skip semantics carry over the wire.
    assert [a for a in remote_result.skipped] == \
        [a for a in local_result.skipped]

    # Sinks and client-side stats saw every alert.
    assert len(sink.alerts) == len(remote_result.alerts)
    stats = remote_result.stats.summary()
    assert stats["alerts"] == len(remote_result.alerts)
    assert stats["messages"] > 0
    assert stats["announcements"] >= len(remote_result.alerts)


def test_local_gate_and_remote_fallback_skip_alike(tiny_source,
                                                   tiny_collection,
                                                   tiny_registry, gateway,
                                                   test_positives):
    """One instant, three announcements: one on a known channel, one on
    an unknown channel and one before anything is listed.  The local
    engine's admission checks and the remote ranker's 422 fallback (the
    batch POST is refused, so each announcement goes alone) must serve
    and skip the same ones."""
    known = test_positives[0]
    messages = [
        Message(message_id=0, channel_id=-424242, time=known.time,
                text="Coin: XYZ", kind="release"),
        Message(message_id=1, channel_id=known.channel_id, time=known.time,
                text="Coin: XYZ", kind="release"),
        Message(message_id=2, channel_id=known.channel_id, time=known.time,
                text="Coin: XYZ", kind="release"),
    ]
    # Nothing is listed before hour 0: no candidates.
    times = {2: -1.0}

    local = build_engine(tiny_source, tiny_collection,
                         tiny_registry.resolve("snn"))
    local.detector = _AlwaysPumpDetector()
    local.sessionizer = _OneShotSessionizer(times)
    local_result = local.run(MessageStream.replay(messages))

    _server, client = gateway(GatewayApp(
        service_from(tiny_registry, "snn", tiny_source, tiny_collection)))
    stats = ServiceStats()
    remote = StreamEngine(_AlwaysPumpDetector(), _OneShotSessionizer(times),
                          remote_ranker(client, stats), stats=stats)
    remote_result = remote.run(MessageStream.replay(messages))

    assert len(remote_result.alerts) == len(local_result.alerts) == 1
    remote_alert, local_alert = remote_result.alerts[0], local_result.alerts[0]
    assert remote_alert.announcement == local_alert.announcement
    assert exact(remote_alert.ranking) == exact(local_alert.ranking)
    assert remote_result.skipped == local_result.skipped
    assert [(a.channel_id, a.time) for a in local_result.skipped] == \
        [(-424242, known.time), (known.channel_id, -1.0)]
    for counter in ("alerts", "unknown_channels", "no_candidates"):
        assert getattr(remote_result.stats, counter) == \
            getattr(local_result.stats, counter) == 1
