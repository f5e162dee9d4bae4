"""Acceptance: gateway responses are bit-for-bit the in-process rankings.

For every ranker family (snn/dnn/gru/tcn): two services are booted from
the *same* registry artifact — one behind a real HTTP gateway, one
in-process — and fed an identical announcement sequence.  Every decoded
probability must compare exactly equal (``==`` on float64, no tolerance)
and every candidate order identical, through both ``/v1/rank`` and
``/v1/rank/batch``.
"""

import pytest

from repro.gateway import GatewayApp
from tests.conftest import TINY_ARCHS
from tests.gateway.conftest import make_announcements, service_from


def exact(ranking):
    return [(s.coin_id, s.symbol, s.probability) for s in ranking.scores]


@pytest.mark.parametrize("arch", TINY_ARCHS)
def test_rank_and_batch_parity(arch, tiny_source, tiny_collection,
                               tiny_registry, gateway, test_positives):
    local = service_from(tiny_registry, arch, tiny_source, tiny_collection)
    remote = service_from(tiny_registry, arch, tiny_source, tiny_collection)
    _server, client = gateway(GatewayApp(remote, registry=tiny_registry))

    announcements = make_announcements(test_positives,
                                       min(6, len(test_positives)))
    split = len(announcements) // 2

    # Phase 1: one-at-a-time via POST /v1/rank vs in-process rank_one.
    # Both sides observe each announcement, so their histories evolve in
    # lockstep — later scores depend on earlier ones being identical too.
    for announcement in announcements[:split]:
        over_the_wire = client.rank(announcement)
        in_process = local.rank_one(announcement)
        assert exact(over_the_wire.ranking) == exact(in_process.ranking)
        assert over_the_wire.announced_rank == in_process.announced_rank

    # Phase 2: the rest as one micro-batch via POST /v1/rank/batch.
    wire_alerts = client.rank_batch(announcements[split:])
    local_alerts = local.rank_batch(announcements[split:])
    assert len(wire_alerts) == len(local_alerts)
    for over_the_wire, in_process in zip(wire_alerts, local_alerts):
        assert over_the_wire.announcement == in_process.announcement
        assert exact(over_the_wire.ranking) == exact(in_process.ranking)


def test_parity_survives_observe(tiny_source, tiny_collection, tiny_registry,
                                 gateway, test_positives):
    """/v1/observe and in-process observe() leave identical state behind."""
    local = service_from(tiny_registry, "snn", tiny_source, tiny_collection)
    remote = service_from(tiny_registry, "snn", tiny_source, tiny_collection)
    _server, client = gateway(GatewayApp(remote, registry=tiny_registry))

    announcements = make_announcements(test_positives, 2)
    client.observe(announcements[0])
    local.observe(announcements[0])
    probe = announcements[1]
    assert exact(client.rank(probe).ranking) == \
        exact(local.rank_one(probe).ranking)
