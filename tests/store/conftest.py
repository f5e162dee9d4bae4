"""Shared fixtures for the durable-store tests.

The tiny world and the session registry come from ``tests/conftest.py``;
these tests serve its ``dnn`` and ``snn`` artifacts.  The DNN ranker has
no sequence encoder, so only the SNN makes a ranking depend on the folded
pump history; history-parity tests serve it.  Tests get a factory making
fresh :class:`PredictionService` instances (optionally wired to a store)
so rehydration can be compared against a clean boot.
"""

from __future__ import annotations

import pytest

from repro.serving import Announcement, PredictionService


@pytest.fixture(scope="session")
def st_positives(tiny_collection):
    positives = [
        e for e in tiny_collection.dataset.examples
        if e.label == 1 and e.split == "test"
    ]
    assert len(positives) >= 3
    return positives


def announcements_from(positives, n: int) -> list[Announcement]:
    return [
        Announcement(channel_id=e.channel_id, coin_id=e.coin_id,
                     exchange_id=0, pair="BTC", time=e.time)
        for e in positives[:n]
    ]


def probe_for(announcement) -> Announcement:
    """A stateless prediction request issued after the observations."""
    return Announcement(channel_id=announcement.channel_id, coin_id=-1,
                        exchange_id=0, pair="BTC",
                        time=announcement.time + 1.0)


def exact(ranking):
    return tuple((s.coin_id, s.probability) for s in ranking.scores)


def unobserved_ranking(make_service, probe: Announcement) -> tuple:
    """``probe``'s SNN ranking from a service that folded nothing.

    A history-parity test asserts its ranking differs from this one, so
    it cannot pass when no observation was folded at all.
    """
    return exact(make_service(arch="snn").rank_one(probe).ranking)


@pytest.fixture
def st_service(tiny_registry, tiny_source, tiny_collection):
    """Factory: a fresh service from a session artifact."""

    def make(store=None, arch: str = "dnn") -> PredictionService:
        return PredictionService.from_artifact(
            tiny_registry.resolve(arch), tiny_source, tiny_collection.dataset,
            store=store,
        )

    return make
