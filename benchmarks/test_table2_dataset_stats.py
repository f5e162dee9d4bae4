"""Tables 2-3 — P&D dataset statistics and example quintuples.

Paper: 1,335 samples / 709 events / 108 channels / 278 coins / 18
exchanges.  Shape: samples > events > channels; tens-to-hundreds of coins;
multiple exchanges; extraction covers the bulk of ground-truth events.
"""

from benchmarks._reporting import report
from benchmarks.conftest import run_once
from repro.markets import EXCHANGE_NAMES
from repro.utils import format_table, to_timestamp

PAPER = {"samples": 1335, "events": 709, "channels": 108, "coins": 278,
         "exchanges": 18}


def test_table2_dataset_stats(benchmark, world, collection):
    stats = run_once(benchmark, collection.table2)
    truth = world.summary()
    rows = [
        [key, PAPER[key], stats[key], truth.get(key, "-")]
        for key in ("samples", "events", "channels", "coins", "exchanges")
    ]
    table = format_table(
        ["Quantity", "Paper", "Extracted", "Ground truth"], rows,
        title="Table 2: P&D dataset statistics",
    )
    # Table 3: example quintuples.
    names = EXCHANGE_NAMES[: world.config.n_exchanges]
    examples = [
        s.quintuple(world.coins.symbols, names) for s in collection.samples[:6]
    ]
    example_rows = [
        [cid, coin, exch, pair, to_timestamp(int(t))]
        for cid, coin, exch, pair, t in examples
    ]
    table += "\n\n" + format_table(
        ["Channel", "Coin", "Exchange", "Pair", "Timestamp"], example_rows,
        title="Table 3: example quintuples",
    )
    report("table2_dataset_stats", table)

    assert stats["samples"] >= stats["events"] >= stats["channels"] // 2
    assert stats["coins"] > 10
    assert stats["exchanges"] >= 3
    # Extraction recovers most ground-truth events.
    assert stats["events"] > 0.6 * truth["events"]
