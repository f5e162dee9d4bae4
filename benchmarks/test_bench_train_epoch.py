"""Training-epoch wall time — the perf trajectory of the fit loop.

The serving benchmarks cover inference; this one covers the other hot
path: one full epoch of mini-batch Adam on the SNN (forward, backward,
in-place gradient accumulation, fused optimizer step) plus the per-epoch
validation pass that runs through the compiled inference plan.

A tiny world is built locally (like the throughput benchmark) so the
timing is dominated by the training loop rather than world generation.
"""

import pytest

from benchmarks._reporting import report
from benchmarks.conftest import run_once
from repro.core import Trainer, make_model, snn_config_for
from repro.data import collect
from repro.features import FeatureAssembler
from repro.simulation import SyntheticWorld
from repro.sources import SyntheticWorldSource
from repro.utils import ReproConfig


@pytest.fixture(scope="module")
def tiny_assembled():
    source = SyntheticWorldSource(SyntheticWorld.generate(ReproConfig.tiny()))
    collection = collect(source)
    return FeatureAssembler(source, collection.dataset).assemble()


def test_train_epoch(benchmark, tiny_assembled):
    assembled = tiny_assembled

    def one_epoch():
        model = make_model("snn", snn_config_for(assembled), seed=0)
        trainer = Trainer(epochs=1, seed=0)
        return trainer.fit(model, assembled.train, assembled.validation)

    result = run_once(benchmark, one_epoch)
    rows = len(assembled.train)
    rows_per_s = rows / result.train_seconds if result.train_seconds else 0.0
    report(
        "bench_train_epoch",
        f"one epoch over {rows} train rows in {result.train_seconds:.3f}s "
        f"({rows_per_s:,.0f} rows/s incl. validation HR@k pass)\n"
        f"final train loss: {result.train_losses[-1]:.4f}",
    )
    assert result.train_losses and result.train_seconds > 0
    # Generous budget: an epoch at tiny scale must stay interactive.
    assert result.train_seconds < 120.0
