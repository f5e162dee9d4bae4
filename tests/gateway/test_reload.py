"""Acceptance: /v1/models/reload swaps versions mid-traffic losslessly.

Requests hammer ``POST /v1/rank`` from several threads while the main
thread hot-swaps the serving artifact.  Every response must be a 200
decoding to a ranking bit-for-bit equal to *one* of the two models'
reference rankings — an in-flight request finishes on the model it
started with, none is dropped, none scores half-old-half-new.
"""

import threading

import pytest

from repro.gateway import GatewayApp
from repro.gateway.schema import RankRequestV1, ReloadRequestV1
from repro.registry import ModelRegistry
from repro.serving import Announcement, PredictionService
from tests.gateway.conftest import make_announcements, service_from

WORKERS = 4
REQUESTS_PER_WORKER = 10


def stateless_probe(test_positives) -> Announcement:
    """A fixed prediction request (unknown coin → never folded into
    history), so a given model version answers it identically forever."""
    base = make_announcements(test_positives, 1)[0]
    return Announcement(channel_id=base.channel_id, coin_id=-1,
                        exchange_id=0, pair="BTC", time=base.time)


def exact(ranking):
    return tuple((s.coin_id, s.probability) for s in ranking.scores)


@pytest.fixture
def references(tiny_source, tiny_collection, tiny_registry, test_positives):
    probe = stateless_probe(test_positives)
    old = service_from(tiny_registry, "snn", tiny_source, tiny_collection)
    new = service_from(tiny_registry, "dnn", tiny_source, tiny_collection)
    return probe, exact(old.rank_one(probe).ranking), \
        exact(new.rank_one(probe).ranking)


def test_hot_swap_drops_and_corrupts_nothing(tiny_source, tiny_collection,
                                             tiny_registry, gateway,
                                             references):
    probe, expected_old, expected_new = references
    assert expected_old != expected_new, \
        "reference models must be distinguishable for this test to bite"

    service = service_from(tiny_registry, "snn", tiny_source, tiny_collection)
    app = GatewayApp(service, registry=tiny_registry)
    _server, client = gateway(app)

    results: list[tuple] = []
    errors: list[BaseException] = []
    lock = threading.Lock()
    start_line = threading.Barrier(WORKERS + 1)

    def hammer() -> None:
        try:
            start_line.wait(timeout=30)
            for _ in range(REQUESTS_PER_WORKER):
                ranking = client.rank(probe).ranking
                with lock:
                    results.append(exact(ranking))
        except BaseException as exc:  # noqa: BLE001 - reported below
            with lock:
                errors.append(exc)

    workers = [threading.Thread(target=hammer) for _ in range(WORKERS)]
    for worker in workers:
        worker.start()
    start_line.wait(timeout=30)
    response = client.reload("dnn")          # swap mid-hammering
    assert response.model["name"] == "dnn"
    for worker in workers:
        worker.join(timeout=120)
        assert not worker.is_alive(), "a worker hung"

    assert not errors, f"requests failed during the swap: {errors[:3]}"
    # Zero dropped requests...
    assert len(results) == WORKERS * REQUESTS_PER_WORKER
    # ...and zero corrupted ones: every ranking is exactly one model's.
    for ranking in results:
        assert ranking in (expected_old, expected_new)

    # After the swap the gateway must answer with the new model, and say so.
    assert exact(client.rank(probe).ranking) == expected_new
    health = client.healthz()
    assert health.reloads == 1
    assert health.model["name"] == "dnn"


def test_reload_of_corrupt_artifact_leaves_champion_serving(
        tiny_source, tiny_collection, tiny_registry, gateway, test_positives,
        tmp_path):
    """Regression (ISSUE 7 satellite): a tampered artifact must be a
    structured refusal, never a half-swapped or crashed gateway."""
    import shutil

    import pytest

    from repro.gateway.client import GatewayRequestError

    # A doomed registry entry: a copy of a good artifact with its weights
    # replaced by garbage, in this test's own registry so the session
    # registry stays read-only.
    registry = ModelRegistry(tmp_path / "registry")
    for name in ("snn", "dnn"):
        registry.import_artifact(tiny_registry.resolve(name), name)
    mangled = registry.root / "mangled" / "v0001"
    shutil.copytree(registry.resolve("dnn"), mangled)
    (mangled / "weights.npz").write_bytes(b"not an npz archive at all")

    service = service_from(registry, "snn", tiny_source, tiny_collection)
    app = GatewayApp(service, registry=registry)
    _server, client = gateway(app)

    probe = stateless_probe(test_positives)
    before_swap = exact(client.rank(probe).ranking)

    with pytest.raises(GatewayRequestError) as exc:
        client.reload("mangled")
    assert exc.value.status == 409
    assert exc.value.code == "bad_artifact"

    # The champion never stopped serving, identically, and the failed
    # attempt is not counted as a reload.
    assert exact(client.rank(probe).ranking) == before_swap
    health = client.healthz()
    assert health.status == "ok"
    assert health.reloads == 0
    # A subsequent good reload still works — the swap lock was released.
    assert client.reload("dnn").model["name"] == "dnn"


def test_reload_carries_streamed_history_across(tiny_source, tiny_collection,
                                                tiny_registry, gateway,
                                                test_positives):
    service = service_from(tiny_registry, "snn", tiny_source, tiny_collection)
    app = GatewayApp(service, registry=tiny_registry)
    _server, client = gateway(app)

    observed = make_announcements(test_positives, 1)[0]
    before = client.observe(observed).history_length
    client.reload("dnn")
    # The service must still hold the streamed announcement.
    assert len(app.service.history(observed.channel_id)) == before

    # Reference: a fresh dnn service given the same observation agrees
    # bit-for-bit with the post-swap gateway.
    witness = service_from(tiny_registry, "dnn", tiny_source, tiny_collection)
    witness.observe(observed)
    probe = Announcement(channel_id=observed.channel_id, coin_id=-1,
                         exchange_id=0, pair="BTC",
                         time=observed.time + 1.0)
    assert exact(client.rank(probe).ranking) == \
        exact(witness.rank_one(probe).ranking)


def test_reload_keeps_the_service_configuration(tiny_source, tiny_registry,
                                                test_positives):
    """Reload swaps the model inside the one service the app was given, so
    every option it was built with survives: here ``bucket_hours=0``,
    which a sentinel at a fractional hour would rank differently
    without."""
    service = PredictionService.from_artifact(
        tiny_registry.resolve("dnn"), tiny_source, bucket_hours=0.0
    )
    app = GatewayApp(service, registry=tiny_registry)
    base = test_positives[0]
    probe = RankRequestV1(Announcement(
        channel_id=base.channel_id, coin_id=-1, exchange_id=0, pair="BTC",
        time=base.time + 0.37,
    ))
    before = app.rank(probe).alert.ranking

    app.reload(ReloadRequestV1(ref="dnn"))

    assert app.service is service
    assert app.service.bucket_hours == 0.0
    after = app.rank(probe).alert.ranking
    assert exact(after) == exact(before)
    assert after.to_json() == before.to_json()
