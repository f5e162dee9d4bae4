"""Experiment orchestration shared by benchmarks, examples and tests.

``run_target_coin_experiment`` reproduces Table 5 (all nine competitors);
``run_coin_embedding_experiment`` reproduces Table 6 (cold-start study).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.baselines import (
    ALL_MODEL_NAMES,
    CLASSIC_MODEL_NAMES,
    ClassicRanker,
    make_model,
)
from repro.core.coldstart import CoinIdOnlyModel, train_coin_embeddings
from repro.core.evaluate import HR_KS, evaluate_scores
from repro.core.snn import SNN, SNNConfig
from repro.core.train import Trainer, predict_scores
from repro.features.assembler import AssembledDataset
from repro.sources.base import DataSource


def snn_config_for(assembled: AssembledDataset, **overrides) -> SNNConfig:
    """Model hyper-parameters bound to an assembled dataset's shapes.

    Feature counts are read from the arrays themselves so augmented or
    synthetic datasets (e.g. in tests or transfer experiments) work without
    matching the default feature registry.
    """
    defaults = dict(
        n_channels=assembled.n_channels,
        n_coin_ids=assembled.n_coin_ids,
        n_numeric=assembled.train.numeric.shape[1],
        seq_len=assembled.sequence_length,
        n_seq_numeric=assembled.train.seq_numeric.shape[2],
    )
    defaults.update(overrides)
    return SNNConfig(**defaults)


def train_predictor(source: DataSource, collection=None, *,
                    model: str = "snn", epochs: int = 8,
                    seed: int = 0, signals: bool = False) -> "TargetCoinPredictor":
    """The standard source → collect → assemble → train → predictor wiring.

    ``source`` is any :class:`repro.sources.DataSource` backend.  Shared
    by the ``train`` and ``serve`` CLI commands, the live-monitoring
    example and the serving tests/benchmarks, so the training contract
    lives in one place.  Pass an existing :class:`CollectionResult` to
    skip re-running the data pipeline.

    ``signals=True`` appends the :mod:`repro.signals` microstructure
    channels to the numeric features (recorded in provenance and in the
    saved artifact's manifest, so registry loads rebuild the same
    feature space).  The provenance also records ``hr``, the trained
    ranker's HR@k on the test split (4 decimals), which ``repro train``
    prints.
    """
    import time

    from repro.core.predictor import TargetCoinPredictor
    from repro.data.pipeline import collect
    from repro.features.assembler import FeatureAssembler

    if collection is None:
        collection = collect(source)
    signal_engine = None
    if signals:
        # Lazy: the signals package sits above features/core in the layer
        # graph, so only this orchestration entry point may reach down.
        from repro.signals import SignalEngine

        signal_engine = SignalEngine.from_source(source)
    assembler = FeatureAssembler(source, collection.dataset,
                                 signal_engine=signal_engine)
    assembled = assembler.assemble()
    ranker = make_model(model, snn_config_for(assembled), seed=seed)
    started = time.perf_counter()
    Trainer(epochs=epochs, seed=seed).fit(
        ranker, assembled.train, assembled.validation
    )
    predictor = TargetCoinPredictor(source, collection.dataset, ranker,
                                    assembler)
    train_seconds = round(time.perf_counter() - started, 3)
    hr = evaluate_scores(assembled.test,
                         predict_scores(ranker, assembled.test))
    # Recorded into saved artifacts (repro.registry) as training provenance.
    predictor.provenance = {
        "model": model,
        "epochs": epochs,
        "seed": seed,
        "world_seed": source.seed,
        "data_source": source.descriptor(),
        "signal_channels": list(signal_engine.feature_names)
        if signal_engine is not None else [],
        "train_seconds": train_seconds,
        "hr": {str(k): round(v, 4) for k, v in hr.items()},
    }
    return predictor


@dataclass
class ExperimentOutcome:
    """HR@k per model plus timing, in Table 5's shape."""

    hr: dict[str, dict[int, float]] = field(default_factory=dict)
    train_seconds: dict[str, float] = field(default_factory=dict)
    models: dict[str, object] = field(default_factory=dict)

    def winner(self, k: int = 10) -> str:
        return max(self.hr, key=lambda name: self.hr[name][k])


def run_target_coin_experiment(
    assembled: AssembledDataset,
    model_names: tuple[str, ...] = ALL_MODEL_NAMES,
    trainer: Trainer | None = None,
    seed: int = 0,
) -> ExperimentOutcome:
    """Train and evaluate the requested competitors on one dataset."""
    import time

    trainer = trainer or Trainer(seed=seed)
    outcome = ExperimentOutcome()
    config = snn_config_for(assembled)
    for name in model_names:
        started = time.perf_counter()
        if name in CLASSIC_MODEL_NAMES:
            model = ClassicRanker(name, seed=seed).fit(assembled.train)
            scores = model.predict_proba(assembled.test)
        else:
            model = make_model(name, config, seed=seed)
            trainer.fit(model, assembled.train, assembled.validation)
            scores = predict_scores(model, assembled.test)
        outcome.hr[name] = evaluate_scores(assembled.test, scores, HR_KS)
        outcome.train_seconds[name] = time.perf_counter() - started
        outcome.models[name] = model
    return outcome


EMBEDDING_VARIANTS = ("e2e", "cbow", "sg", "snn", "snn_c", "snn_s")


def run_coin_embedding_experiment(
    source: DataSource,
    assembled: AssembledDataset,
    trainer: Trainer | None = None,
    seed: int = 0,
    variants: tuple[str, ...] = EMBEDDING_VARIANTS,
) -> ExperimentOutcome:
    """Table 6: coin-embedding sources under the cold-start split.

    * ``e2e`` — coin-id-only DNN, embedding trained end-to-end;
    * ``cbow`` / ``sg`` — coin-id-only DNN on frozen word vectors;
    * ``snn`` — the full model with end-to-end coin embedding;
    * ``snn_c`` / ``snn_s`` — SNN with CBoW / SkipGram replacements.
    """
    import time

    trainer = trainer or Trainer(seed=seed)
    config = snn_config_for(assembled)
    rng = np.random.default_rng(seed)
    needed = {v for v in variants}
    vectors = {}
    if needed & {"cbow", "snn_c"}:
        vectors["cbow"], _ = train_coin_embeddings(
            source, mode="cbow", dim=config.coin_emb_dim, seed=seed
        )
    if needed & {"sg", "snn_s"}:
        vectors["sg"], _ = train_coin_embeddings(
            source, mode="skipgram", dim=config.coin_emb_dim, seed=seed
        )

    outcome = ExperimentOutcome()
    for variant in variants:
        started = time.perf_counter()
        if variant == "e2e":
            model = CoinIdOnlyModel(config.n_coin_ids, config.coin_emb_dim,
                                    np.random.default_rng(seed))
        elif variant in ("cbow", "sg"):
            model = CoinIdOnlyModel(config.n_coin_ids, config.coin_emb_dim,
                                    np.random.default_rng(seed),
                                    coin_vectors=vectors[variant])
        elif variant == "snn":
            model = SNN(config, np.random.default_rng(seed))
        elif variant in ("snn_c", "snn_s"):
            key = "cbow" if variant == "snn_c" else "sg"
            model = SNN(config, np.random.default_rng(seed),
                        coin_vectors=vectors[key], freeze_coin_embedding=True)
        else:
            raise ValueError(f"unknown variant {variant!r}")
        trainer.fit(model, assembled.train, assembled.validation)
        scores = predict_scores(model, assembled.test)
        outcome.hr[variant] = evaluate_scores(assembled.test, scores, HR_KS)
        outcome.train_seconds[variant] = time.perf_counter() - started
        outcome.models[variant] = model
    return outcome
