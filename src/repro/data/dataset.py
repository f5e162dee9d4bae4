"""Target-coin dataset construction (§6.1, Table 4).

Positives are extracted P&D samples on Binance paired with BTC.  For every
positive, all other eligible coins listed on Binance at pump time become
negatives (optionally capped for tractability).  The train/validation/test
split is **temporal** — test strictly follows validation strictly follows
train — which both matches deployment and creates the coin-side cold-start
conditions of §5.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.data.sessions import PnDSample
from repro.markets import pump_candidates
from repro.sources.base import DataSource
from repro.utils.config import ReproConfig

# Positive-time quantiles of the split boundaries; chosen to match the
# paper's Table 4 proportions (648 / 100 / 200 positives).
TRAIN_QUANTILE = 0.684
VALIDATION_QUANTILE = 0.789

SPLIT_NAMES = ("train", "validation", "test")


def history_window(samples: Sequence[PnDSample], time: float,
                   length: int) -> list[PnDSample]:
    """The last ``length`` of chronological ``samples`` strictly before
    ``time`` — the pump history a ranking at ``time`` sees, offline and
    served alike.

    Strict inequality prevents label leakage: the positive being
    predicted never appears in its own sequence.
    """
    past = [s for s in samples if s.time < time - 1e-9]
    return past[-length:]


@dataclass(frozen=True)
class ServingSlice:
    """The part of a :class:`TargetCoinDataset` that ranking reads.

    The channel vocabulary, the split boundaries, and each channel's pump
    history before the validation/test boundary ``split_hours[1]`` — the
    history a served ranking may look back on.  A predictor artifact
    carries one, so a served predictor needs no dataset; anything that
    takes a dataset only to rank (:class:`~repro.features.FeatureAssembler`,
    :class:`~repro.core.TargetCoinPredictor`) takes a slice as well.
    """

    channel_ids: tuple[int, ...]
    split_hours: tuple[float, float]
    history: dict[int, list[PnDSample]]   # channel -> chronological samples

    def history_before(self, channel_id: int, time: float,
                       length: int) -> list[PnDSample]:
        """The channel's last ``length`` samples strictly before ``time``."""
        return history_window(self.history.get(channel_id, ()), time, length)


@dataclass(frozen=True)
class TargetCoinExample:
    """One (channel, candidate coin, time) row of the ranking task."""

    list_id: int        # groups the positive with its negatives (one event-sample)
    channel_id: int
    coin_id: int
    time: float
    label: int          # 1 = the actually pumped coin
    split: str          # train / validation / test


@dataclass
class TargetCoinDataset:
    """All examples plus per-channel pump histories for sequence features."""

    examples: list[TargetCoinExample]
    history: dict[int, list[PnDSample]]   # channel -> chronological samples
    split_hours: tuple[float, float]
    config: ReproConfig

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, source: DataSource, samples: Sequence[PnDSample],
              exchange_id: int = 0, pair: str = "BTC") -> "TargetCoinDataset":
        """Build the ranking dataset from extracted samples.

        Mirrors the paper: restrict to one exchange/pair, deduplicate
        channel-level samples into per-channel positives, generate listed-coin
        negatives, split temporally.
        """
        config = source.repro_config()
        rng = np.random.default_rng(config.seed * 60013 + 101)
        positives = [
            s for s in samples if s.exchange_id == exchange_id and s.pair == pair
        ]
        if len(positives) < 10:
            raise ValueError(
                f"only {len(positives)} positives on exchange {exchange_id}/{pair}; "
                "world too small"
            )
        times = np.array([s.time for s in positives])
        t_train = float(np.quantile(times, TRAIN_QUANTILE))
        t_val = float(np.quantile(times, VALIDATION_QUANTILE))

        history: dict[int, list[PnDSample]] = {}
        for sample in sorted(samples, key=lambda s: s.time):
            history.setdefault(sample.channel_id, []).append(sample)

        examples: list[TargetCoinExample] = []
        for list_id, sample in enumerate(sorted(positives, key=lambda s: s.time)):
            split = (
                "train" if sample.time <= t_train
                else "validation" if sample.time <= t_val
                else "test"
            )
            eligible = pump_candidates(source.coins, exchange_id, sample.time)
            negatives = eligible[eligible != sample.coin_id]
            cap = config.max_negatives_per_event
            if cap and len(negatives) > cap:
                negatives = rng.choice(negatives, size=cap, replace=False)
            examples.append(TargetCoinExample(
                list_id=list_id, channel_id=sample.channel_id,
                coin_id=sample.coin_id, time=sample.time, label=1, split=split,
            ))
            for coin in negatives:
                examples.append(TargetCoinExample(
                    list_id=list_id, channel_id=sample.channel_id,
                    coin_id=int(coin), time=sample.time, label=0, split=split,
                ))
        return cls(examples=examples, history=history,
                   split_hours=(t_train, t_val), config=config)

    # -- queries ---------------------------------------------------------------

    def split_examples(self, split: str) -> list[TargetCoinExample]:
        if split not in SPLIT_NAMES:
            raise ValueError(f"split must be one of {SPLIT_NAMES}")
        return [e for e in self.examples if e.split == split]

    def history_before(self, channel_id: int, time: float,
                       length: int) -> list[PnDSample]:
        """The channel's last ``length`` samples strictly before ``time``."""
        return history_window(self.history.get(channel_id, ()), time, length)

    @property
    def channel_ids(self) -> tuple[int, ...]:
        """The channel vocabulary: every channel with a ranking list, sorted."""
        return tuple(sorted({e.channel_id for e in self.examples}))

    def serving_slice(self) -> ServingSlice:
        """What ranking reads of this dataset (see :class:`ServingSlice`).

        A channel keeps every sample before ``split_hours[1]``; a channel
        with none is left out.
        """
        cutoff = self.split_hours[1]
        history = {}
        for channel_id, samples in self.history.items():
            kept = history_window(samples, cutoff, len(samples))
            if kept:
                history[channel_id] = kept
        return ServingSlice(self.channel_ids, self.split_hours, history)

    def table4(self) -> dict[str, dict[str, int]]:
        """Counts in the shape of the paper's Table 4."""
        table: dict[str, dict[str, int]] = {}
        for split in SPLIT_NAMES:
            rows = self.split_examples(split)
            pos = sum(e.label for e in rows)
            table[split] = {
                "positives": pos,
                "negatives": len(rows) - pos,
                "total": len(rows),
            }
        table["total"] = {
            key: sum(table[s][key] for s in SPLIT_NAMES)
            for key in ("positives", "negatives", "total")
        }
        return table

    def cold_start_stats(self) -> dict[str, int]:
        """How many test positives are cold (never pumped in train) — §5.3."""
        train_coins = {
            e.coin_id for e in self.examples if e.split == "train" and e.label == 1
        }
        test_pos = [e for e in self.examples if e.split == "test" and e.label == 1]
        cold = sum(1 for e in test_pos if e.coin_id not in train_coins)
        return {
            "test_positives": len(test_pos),
            "cold_positives": cold,
            "warm_positives": len(test_pos) - cold,
        }
