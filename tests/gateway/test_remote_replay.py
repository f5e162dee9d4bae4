"""`repro serve --gateway`'s engine: remote replay ≡ local replay.

The same artifact, the same message stream: the client-side replay loop
(:func:`replay_against_gateway`) must produce exactly the alerts the
in-process :func:`replay_test_period` engine produces — same count, same
announcements, bit-for-bit identical rankings.
"""

import pytest

from repro.core.predictor import TargetCoinPredictor
from repro.gateway import GatewayApp, replay_against_gateway
from repro.serving import CollectingSink, replay_test_period
from tests.gateway.conftest import service_from


def exact(ranking):
    return [(s.coin_id, s.probability) for s in ranking.scores]


@pytest.fixture(scope="module")
def local_result(gw_world, gw_collection, gw_registry):
    predictor = TargetCoinPredictor.from_artifact(
        gw_registry.resolve("snn"), gw_world, gw_collection.dataset
    )
    return replay_test_period(gw_world, gw_collection, predictor)


def test_remote_replay_matches_local_engine(gw_world, gw_collection,
                                            gw_registry, gateway,
                                            local_result):
    service = service_from(gw_registry, "snn", gw_world, gw_collection)
    _server, client = gateway(GatewayApp(service, registry=gw_registry))
    sink = CollectingSink()
    remote_result = replay_against_gateway(
        gw_world, gw_collection, client, sinks=(sink,)
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
