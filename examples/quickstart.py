"""Quickstart: generate a world, run the pipeline, train SNN, rank coins.

Runs in about a minute on a laptop:

    python examples/quickstart.py
"""

from repro.core import (
    Trainer,
    evaluate_scores,
    make_model,
    predict_scores,
    snn_config_for,
)
from repro.data import collect
from repro.features import FeatureAssembler
from repro.simulation import SyntheticWorld
from repro.sources import SyntheticWorldSource
from repro.utils import ReproConfig, format_table


def main() -> None:
    # 1. A synthetic world: coins, markets, Telegram channels, P&D events.
    world = SyntheticWorld.generate(ReproConfig.tiny())
    print("world:", world.summary())
    source = SyntheticWorldSource(world)   # what the pipeline consumes

    # 2. The data-collection pipeline (§3): explore channels, detect pump
    #    messages, sessionize, extract P&D samples, build the dataset.
    result = collect(source)
    print("extracted dataset:", result.table2())
    print("detection F1 (RF):", round(result.detection.reports["rf"].f1, 3))

    # 3. Features + SNN training (§5).
    assembled = FeatureAssembler(source, result.dataset).assemble()
    model = make_model("snn", snn_config_for(assembled), seed=0)
    Trainer(epochs=8, seed=0).fit(model, assembled.train, assembled.validation)

    # 4. Rank all candidate coins per pump event one hour ahead (§6).
    hr = evaluate_scores(assembled.test, predict_scores(model, assembled.test))
    print(format_table(
        ["Metric"] + [f"HR@{k}" for k in sorted(hr)],
        [["SNN"] + [f"{hr[k]:.3f}" for k in sorted(hr)]],
        title="\nTarget coin prediction on the test split",
    ))


if __name__ == "__main__":
    main()
