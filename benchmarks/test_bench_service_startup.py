"""Service cold-start: boot-from-artifact vs retrain-from-scratch.

The registry's reason to exist (ISSUE 3): a serving process should start
in the time it takes to read weights and re-verify the compiled plan, not
the time it takes to train a model.  This benchmark measures both boot
paths to a ready :class:`PredictionService` — identical predictors, since
artifact round-trips are bit-for-bit — and reports the speedup alongside
the existing latency/throughput benches.

A tiny world is built locally (like the throughput benchmark); world
generation and data collection are shared setup and excluded from those
two timings, because training cost is paid per model.  A third row times
what ``repro gateway`` pays per boot: building the data source and
binding the artifact without a dataset (its histories ride in the
artifact, so no collection and no message stream).  A fourth times what
``repro serve --load`` pays per boot: building the source, the §3
collection (message stream, keyword filter and detector included) and
binding the artifact to the collected dataset.
"""

import os
import time

import pytest

from benchmarks._reporting import report
from benchmarks.conftest import run_once
from repro.core import train_predictor
from repro.data import collect
from repro.registry import save_artifact
from repro.serving import PredictionService
from repro.simulation import SyntheticWorld
from repro.sources import SyntheticWorldSource, parse_source_spec
from repro.utils import ReproConfig

EPOCHS = int(os.environ.get("REPRO_BENCH_EPOCHS", "8"))


@pytest.fixture(scope="module")
def startup_setup(tmp_path_factory):
    source = SyntheticWorldSource(SyntheticWorld.generate(ReproConfig.tiny()))
    collection = collect(source)
    artifact_dir = tmp_path_factory.mktemp("bench-artifacts") / "snn"
    save_artifact(
        train_predictor(source, collection, epochs=EPOCHS, seed=0),
        artifact_dir,
    )
    return source, collection, artifact_dir


def test_service_startup(benchmark, startup_setup):
    source, collection, artifact_dir = startup_setup

    def retrain_boot():
        predictor = train_predictor(source, collection, epochs=EPOCHS, seed=0)
        return PredictionService(predictor)

    def artifact_boot():
        return PredictionService.from_artifact(
            artifact_dir, source, collection.dataset
        )

    started = time.perf_counter()
    retrained = retrain_boot()
    retrain_seconds = time.perf_counter() - started

    started = time.perf_counter()
    loaded = run_once(benchmark, artifact_boot)
    artifact_seconds = time.perf_counter() - started

    started = time.perf_counter()
    gateway = PredictionService.from_artifact(
        artifact_dir, parse_source_spec("synthetic",
                                        config=ReproConfig.tiny()))
    gateway_seconds = time.perf_counter() - started

    started = time.perf_counter()
    serve_source = parse_source_spec("synthetic", config=ReproConfig.tiny())
    serve_collection = collect(serve_source)
    served = PredictionService.from_artifact(
        artifact_dir, serve_source, serve_collection.dataset
    )
    serve_seconds = time.perf_counter() - started
    examples = len(serve_collection.dataset.examples)

    # Both boots produce a service over the same channel universe.
    channel = next(iter(loaded.predictor._channel_index))
    assert retrained.knows_channel(channel) and loaded.knows_channel(channel)
    assert served.knows_channel(channel)
    # The serve boot replays the held-out stream over this dataset.
    assert examples > 0

    speedup = retrain_seconds / artifact_seconds if artifact_seconds else 0.0
    report(
        "bench_service_startup",
        f"service boot, retrain-from-scratch ({EPOCHS} epochs): "
        f"{retrain_seconds:.2f}s\n"
        f"service boot, cold-start-from-artifact: {artifact_seconds*1000:.0f} ms "
        f"(load + integrity check + compiled-plan re-verification)\n"
        f"speedup: {speedup:.1f}x\n"
        f"gateway-shaped boot, source build + artifact without a dataset: "
        f"{gateway_seconds*1000:.0f} ms "
        f"({len(gateway.history_snapshot())} seeded channel histories)\n"
        f"serve-shaped boot, source build + collect + artifact bound to the "
        f"dataset: {serve_seconds*1000:.0f} ms ({examples} dataset examples, "
        f"{len(serve_collection.detection.detected)} detected messages)",
    )
    # The whole point of the artifact path: strictly faster than training.
    assert artifact_seconds < retrain_seconds
