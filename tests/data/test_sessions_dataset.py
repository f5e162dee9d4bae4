"""Tests for sessionization, sample extraction and dataset construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    PnDSample,
    TargetCoinDataset,
    collect,
    dataset_statistics,
    extract_samples,
    parse_release_symbol,
    sessionize,
)
from repro.simulation import SyntheticWorld
from repro.types import Message
from repro.utils import ReproConfig

CFG = ReproConfig.tiny()


def _msg(mid, channel, time, text="pump soon", kind="countdown"):
    return Message(mid, channel, time, text, kind)


class TestSessionize:
    def test_gap_splits_sessions(self):
        messages = [_msg(0, 1, 0.0), _msg(1, 1, 10.0), _msg(2, 1, 40.0)]
        sessions = sessionize(messages, gap_hours=24.0)
        assert [len(s.messages) for s in sessions] == [2, 1]

    def test_channels_never_mix(self):
        messages = [_msg(0, 1, 0.0), _msg(1, 2, 0.5)]
        sessions = sessionize(messages)
        assert len(sessions) == 2

    def test_unsorted_input_handled(self):
        messages = [_msg(0, 1, 50.0), _msg(1, 1, 0.0), _msg(2, 1, 1.0)]
        sessions = sessionize(messages)
        assert [len(s.messages) for s in sessions] == [2, 1]

    def test_invalid_gap(self):
        with pytest.raises(ValueError):
            sessionize([], gap_hours=0)

    @settings(max_examples=30, deadline=None)
    @given(
        times=st.lists(st.floats(min_value=0, max_value=5000), min_size=1,
                       max_size=40),
        gap=st.floats(min_value=0.5, max_value=48.0),
    )
    def test_property_session_invariants(self, times, gap):
        messages = [_msg(i, 7, t) for i, t in enumerate(times)]
        sessions = sessionize(messages, gap_hours=gap)
        # Every message lands in exactly one session.
        total = sum(len(s.messages) for s in sessions)
        assert total == len(messages)
        for session in sessions:
            ts = [m.time for m in session.messages]
            assert ts == sorted(ts)
            # No internal gap exceeds the threshold.
            assert all(b - a <= gap + 1e-9 for a, b in zip(ts, ts[1:]))


class TestReleaseParsing:
    SYMBOLS = {"EVX": 10, "NAS": 11, "AB": 12}

    def test_plain_symbol(self):
        assert parse_release_symbol("EVX", self.SYMBOLS) == 10

    def test_coin_prefix(self):
        assert parse_release_symbol("Coin: NAS", self.SYMBOLS) == 11

    def test_unknown_symbol(self):
        assert parse_release_symbol("ZZZZ", self.SYMBOLS) is None

    def test_sentence_is_not_release(self):
        assert parse_release_symbol("buy EVX now", self.SYMBOLS) is None

    def test_ocr_image_unresolvable(self):
        assert parse_release_symbol("[OCR-proof image]", self.SYMBOLS) is None


class TestExtractionOnWorld:
    @pytest.fixture(scope="class")
    def world(self):
        return SyntheticWorld.generate(CFG)

    @pytest.fixture(scope="class")
    def result(self, world):
        return collect(world, n_label=600)

    def test_recall_of_true_events(self, world, result):
        """The pipeline recovers a large share of ground-truth samples."""
        truth = {
            (cid, e.coin_id) for e in world.events.events for cid in e.channel_ids
        }
        found = {(s.channel_id, s.coin_id) for s in result.samples}
        recall = len(found & truth) / len(truth)
        assert recall > 0.5

    def test_extracted_times_near_true_times(self, world, result):
        by_key = {}
        for event in world.events.events:
            for cid in event.channel_ids:
                by_key[(cid, event.coin_id)] = event.time
        errors = [
            abs(s.time - by_key[(s.channel_id, s.coin_id)])
            for s in result.samples
            if (s.channel_id, s.coin_id) in by_key
        ]
        assert errors and float(np.median(errors)) < 1.0

    def test_statistics_shape(self, result):
        stats = dataset_statistics(result.samples)
        assert stats["samples"] >= stats["events"]
        assert stats["channels"] > 1
        assert stats["coins"] > 1

    def test_sessions_exceed_samples(self, result):
        # Paper: 1,335 samples out of 2,006 sessions.
        assert len(result.sessions) >= len(result.samples)


class TestTargetCoinDataset:
    @pytest.fixture(scope="class")
    def world(self):
        return SyntheticWorld.generate(CFG)

    @pytest.fixture(scope="class")
    def dataset(self, world):
        return collect(world, n_label=600).dataset

    def test_split_proportions_roughly_paper(self, dataset):
        table = dataset.table4()
        total_pos = table["total"]["positives"]
        assert table["train"]["positives"] / total_pos > 0.55
        assert table["test"]["positives"] / total_pos > 0.1

    def test_temporal_split_is_strict(self, dataset):
        t_train, t_val = dataset.split_hours
        for example in dataset.examples:
            if example.split == "train":
                assert example.time <= t_train + 1e-9
            elif example.split == "validation":
                assert t_train - 1e-9 <= example.time <= t_val + 1e-9
            else:
                assert example.time >= t_val - 1e-9

    def test_each_list_has_exactly_one_positive(self, dataset):
        by_list: dict[int, int] = {}
        for example in dataset.examples:
            by_list[example.list_id] = by_list.get(example.list_id, 0) + example.label
        assert all(v == 1 for v in by_list.values())

    def test_negatives_capped(self, dataset):
        cap = dataset.config.max_negatives_per_event
        counts: dict[int, int] = {}
        for example in dataset.examples:
            counts[example.list_id] = counts.get(example.list_id, 0) + 1
        assert max(counts.values()) <= cap + 1

    def test_history_before_excludes_self_and_future(self, dataset):
        for example in dataset.examples[:50]:
            if example.label != 1:
                continue
            history = dataset.history_before(example.channel_id, example.time, 10)
            assert all(s.time < example.time for s in history)

    def test_no_leakage_sequences_precede_split_boundary(self, dataset):
        """Train examples must never see post-boundary history."""
        t_train, _ = dataset.split_hours
        for example in dataset.examples[:300]:
            if example.split != "train":
                continue
            history = dataset.history_before(example.channel_id, example.time, 10)
            assert all(s.time <= t_train + 1e-9 for s in history)

    def test_cold_start_exists(self, dataset):
        stats = dataset.cold_start_stats()
        assert stats["cold_positives"] > 0
        assert stats["cold_positives"] + stats["warm_positives"] == stats["test_positives"]

    def test_too_few_positives_rejected(self, world):
        with pytest.raises(ValueError):
            TargetCoinDataset.build(world, [], exchange_id=0, pair="BTC")
