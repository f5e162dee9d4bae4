"""Target coin prediction: SNN against its competitors (Table 5-lite).

Trains LR, RF, DNN and SNN on one synthetic world and prints the HR@k
comparison plus the positional-attention patterns SNN learned (Figure 10a).

    python examples/target_coin_prediction.py
"""

from repro.analysis import classify_patterns, render_heatmap
from repro.core import (
    Trainer,
    format_hr_table,
    random_ranker_baseline,
    run_target_coin_experiment,
)
from repro.data import collect
from repro.features import FeatureAssembler
from repro.features.sequence import SEQUENCE_NUMERIC_NAMES
from repro.simulation import SyntheticWorld
from repro.sources import SyntheticWorldSource
from repro.utils import ReproConfig


def main() -> None:
    source = SyntheticWorldSource(SyntheticWorld.generate(ReproConfig.tiny()))
    collection = collect(source)
    assembled = FeatureAssembler(source, collection.dataset).assemble()
    print(f"train rows: {len(assembled.train)}, "
          f"test ranking lists: {len(set(assembled.test.list_id))}")

    outcome = run_target_coin_experiment(
        assembled, model_names=("lr", "rf", "dnn", "snn"),
        trainer=Trainer(epochs=8, seed=0),
    )
    results = dict(outcome.hr)
    results["random"] = random_ranker_baseline(assembled.test)
    print(format_hr_table(results))

    # Figure 10(a): what did positional attention learn?
    snn = outcome.models["snn"]
    heatmaps = snn.attention.attention_by_feature()
    patterns = classify_patterns(heatmaps, proximity_threshold=0.3)
    emb_dim = snn.config.coin_emb_dim
    names = [f"coin_emb[{i}]" for i in range(emb_dim)] + list(SEQUENCE_NUMERIC_NAMES)
    print("\nlearned attention patterns (P1 = most recent pump):")
    for name, pattern in zip(names, patterns):
        kind = "skip-correlated" if pattern.is_skip_correlated else "proximity"
        print(f"  {name:<24} peak=P{pattern.peak_position + 1:<3} {kind}")
    print("\ncoin_emb[0] attention heads:")
    print(render_heatmap(heatmaps[0], width_chars=snn.config.seq_len))


if __name__ == "__main__":
    main()
