"""Deployment simulation: stream announcements, alert on likely targets.

Demonstrates the full model lifecycle the serving stack is built around:
train a predictor once, persist it as a versioned artifact in a model
registry (``repro.registry``), then boot the real-time serving stack
(``repro.serving``) **from the artifact** — no retraining — and replay
the test period of a synthetic world through it: messages arrive in
timestamp order, pump-message detection and sessionization run
incrementally, and every resolvable coin release triggers a cached,
micro-batched ranking of all listed coins — the investor-alerting
workflow the paper's introduction motivates.

    python examples/live_monitoring.py
"""

import tempfile

import numpy as np

from repro.core import train_predictor
from repro.data import collect
from repro.registry import ModelRegistry
from repro.serving import CollectingSink, ConsoleAlertSink, replay_test_period
from repro.simulation import SyntheticWorld
from repro.sources import SyntheticWorldSource
from repro.utils import ReproConfig


def main() -> None:
    source = SyntheticWorldSource(SyntheticWorld.generate(ReproConfig.tiny()))
    collection = collect(source)

    # Train once, publish a versioned artifact with a `latest` pointer.
    with tempfile.TemporaryDirectory() as registry_root:
        registry = ModelRegistry(registry_root)
        predictor = train_predictor(source, collection, epochs=8, seed=0)
        entry = registry.publish(predictor, "snn")
        print(f"published {entry.name}@{entry.version} "
              f"({entry.n_parameters} parameters)\n")

        # A serving process (typically a different machine) boots from the
        # registry in milliseconds: weights, scalers and vocabulary are
        # restored and the compiled inference plan is re-verified — no
        # training data or fitting involved.
        served = registry.load("snn").to_predictor(source, collection.dataset)

        print("monitoring announced pumps in the test period...\n")
        collected = CollectingSink()
        result = replay_test_period(
            source, collection, served,
            sinks=(ConsoleAlertSink(top_k=3), collected),
        )

    ranks = np.array([
        a.announced_rank for a in collected.alerts if a.announced_rank > 0
    ])
    print(f"\nalerts emitted: {len(collected.alerts)}")
    if len(ranks):
        for k in (1, 5, 10):
            print(f"released coin in top-{k}: {(ranks <= k).mean():.0%}")
        print(f"median rank of released coin: {np.median(ranks):.0f}")

    print("\nserving metrics:")
    for key, value in result.stats.summary().items():
        print(f"  {key}: {value}")


if __name__ == "__main__":
    main()
