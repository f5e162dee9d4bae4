"""The §3 data-collection pipeline, stage by stage.

Walks through snowball channel exploration, keyword filtering, TF-IDF +
RF/LR pump-message detection (Table 1), 24h-gap sessionization and
quintuple extraction (Tables 2-3).

    python examples/pump_detection_pipeline.py
"""

from repro.data import (
    ChannelExplorer,
    dataset_statistics,
    extract_samples,
    run_detection_pipeline,
    sessionize,
)
from repro.markets import EXCHANGE_NAMES
from repro.simulation import SyntheticWorld
from repro.utils import ReproConfig, format_table, to_timestamp


def main() -> None:
    world = SyntheticWorld.generate(ReproConfig.tiny())

    # Stage 1 — snowball exploration from the verified seed list.
    explorer = ChannelExplorer(world.channels, world.messages, max_hops=2)
    exploration = explorer.explore(world.channels.seed_channel_ids())
    print("exploration:", exploration.summary())

    # Stage 2 — keyword filter + TF-IDF + RF/LR detection (Table 1).
    collected = explorer.collect_messages(exploration)
    exchange_names = EXCHANGE_NAMES[: world.config.n_exchanges]
    detection = run_detection_pipeline(
        collected, world.coins.symbols, exchange_names, seed=world.config.seed
    )
    rows = []
    for name, report in detection.reports.items():
        rows.append([name.upper(), f"{report.auc:.3f}", f"{report.precision:.3f}",
                     f"{report.recall:.3f}", f"{report.f1:.3f}"])
    print(format_table(["Model", "AUC", "Precision", "Recall", "F1"], rows,
                       title="\nTable 1: pump message detection"))
    print(f"messages: {detection.n_total} -> keyword filter -> "
          f"{detection.n_filtered} -> detected pump -> {len(detection.detected)}")

    # Stage 3 — sessions and P&D sample extraction (Tables 2-3).
    sessions = sessionize(detection.detected)
    samples = extract_samples(sessions, world.coins.symbols, exchange_names)
    print(f"\nsessions: {len(sessions)}, resolvable P&D samples: {len(samples)}")
    print("dataset statistics:", dataset_statistics(samples))
    example_rows = [
        [s.channel_id, world.coins.symbols[s.coin_id],
         exchange_names[s.exchange_id], s.pair, to_timestamp(int(s.time))]
        for s in samples[:5]
    ]
    print(format_table(["Channel", "Coin", "Exchange", "Pair", "Timestamp"],
                       example_rows, title="\nTable 3: example quintuples"))


if __name__ == "__main__":
    main()
