"""Serve rankings over HTTP and consume them with the client SDK.

The ISSUE 5 loop end to end, in one process for demonstration purposes:

1. train a ranker briefly and publish two versions into a registry;
2. boot the HTTP gateway (`repro.gateway`) on the first version;
3. consume it through :class:`GatewayClient` — single rank, micro-batch,
   observe, stats;
4. hot-swap to the second version mid-session and show that the same
   request now answers with the new model.

In production the server side is simply ``repro gateway --load
snn@v0001 --registry models --port 8787`` and clients live elsewhere.

Run with: ``PYTHONPATH=src python examples/remote_gateway.py``
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.core import train_predictor
from repro.data import collect
from repro.gateway import (
    GatewayApp,
    GatewayClient,
    GatewayRequestError,
    describe_model,
    serve_in_thread,
)
from repro.registry import ModelRegistry
from repro.serving import Announcement, PredictionService
from repro.simulation import SyntheticWorld
from repro.sources import SyntheticWorldSource
from repro.utils import ReproConfig


def main() -> None:
    print("== building world + training two model versions ==")
    source = SyntheticWorldSource(SyntheticWorld.generate(ReproConfig.tiny()))
    collection = collect(source)
    registry = ModelRegistry(Path(tempfile.mkdtemp()) / "models")
    for epochs in (2, 4):
        predictor = train_predictor(source, collection, model="snn",
                                    epochs=epochs, seed=0)
        entry = registry.publish(predictor, "snn",
                                 provenance={"epochs": epochs})
        print(f"published {entry.name}@{entry.version} ({epochs} epochs)")

    print("\n== booting the gateway on snn@v0001 ==")
    path = registry.resolve("snn", "v0001")
    service = PredictionService.from_artifact(path, source,
                                              collection.dataset)
    app = GatewayApp(
        service, registry=registry,
        model=describe_model("snn@v0001", path),
    )
    server, _thread = serve_in_thread(app)
    print(f"gateway listening on {server.url}")

    client = GatewayClient(server.url)
    health = client.healthz()
    print(f"healthz: {health.status}, model {health.model['ref']}")

    # A prediction request: the released coin is unknown (coin_id -1).
    positives = [e for e in collection.dataset.examples
                 if e.label == 1 and e.split == "test"]
    probe = Announcement(channel_id=positives[0].channel_id, coin_id=-1,
                         exchange_id=0, pair="BTC",
                         time=positives[0].time)

    print("\n== POST /v1/rank ==")
    alert = client.rank(probe)
    for score in alert.top(3):
        print(f"  {score.symbol:8s} p={score.probability:.4f}")

    print("\n== POST /v1/rank/batch ==")
    batch = [
        Announcement(channel_id=e.channel_id, coin_id=e.coin_id,
                     exchange_id=0, pair="BTC", time=e.time)
        for e in positives[:3]
    ]
    for ranked in client.rank_batch(batch):
        print(f"  channel {ranked.announcement.channel_id}: released coin "
              f"ranked #{ranked.announced_rank}")

    print("\n== POST /v1/observe ==")
    observed = client.observe(batch[0])
    print(f"  channel {observed.channel_id} history is now "
          f"{observed.history_length} pumps long")

    print("\n== error envelope (unknown channel) ==")
    try:
        client.rank(Announcement(channel_id=-1, coin_id=-1, exchange_id=0,
                                 pair="BTC", time=probe.time))
    except GatewayRequestError as exc:
        print(f"  refused: [{exc.status} {exc.code}] {exc.message}")

    print("\n== hot-swap to snn@v0002 ==")
    before = client.rank(probe)
    swap = client.reload("snn@v0002")
    after = client.rank(probe)
    print(f"  now serving {swap.model['ref']} "
          f"(was {swap.previous['ref']})")
    changed = [(b.symbol, a.symbol)
               for b, a in zip(before.top(3), after.top(3))]
    print(f"  top-3 before/after: {changed}")

    stats = client.stats()
    print(f"\ngateway stats: {stats.gateway['requests']}")
    server.shutdown()
    server.server_close()


if __name__ == "__main__":
    main()
