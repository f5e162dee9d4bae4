"""FileDatasetSource: happy-path semantics and the error taxonomy.

Every malformed-dump scenario must raise :class:`SourceDataError` with a
pointed diagnostic — wrong features are never an acceptable fallback.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.sources import FileDatasetSource, SourceDataError


def _clone(dump_dir, tmp_path, name="clone"):
    target = tmp_path / name
    shutil.copytree(dump_dir, target)
    return target


def _rewrite_csv(path, transform):
    lines = path.read_text().splitlines()
    path.write_text("\n".join(transform(lines)) + "\n")


class TestHappyPath:
    def test_loads_and_describes(self, dump_dir):
        source = FileDatasetSource(dump_dir)
        assert source.kind == "file"
        descriptor = source.descriptor()
        assert descriptor["backend"] == "file"
        assert descriptor["fingerprint"].startswith("file:")
        assert descriptor["n_messages"] == len(source.messages())

    def test_messages_chronological_with_kinds(self, dump_dir):
        source = FileDatasetSource(dump_dir)
        times = [m.time for m in source.messages()]
        assert times == sorted(times)
        assert any(m.is_pump_message for m in source.messages())

    def test_candles_match_the_origin_world(self, short_world, dump_dir):
        """Exported grid values round-trip to the simulator's (1 ulp)."""
        source = FileDatasetSource(dump_dir)
        market = source.market
        lo, hi = market.hour_range
        coins = short_world.coins.listed_coins(0, float(hi))[:5]
        hours = np.full(len(coins), float(hi))
        np.testing.assert_allclose(
            market.log_close(coins, hours),
            short_world.market.log_close(coins, hours),
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            market.hourly_volume(coins, hours),
            short_world.market.hourly_volume(coins, hours),
            rtol=1e-12,
        )

    def test_fractional_hours_floor_to_the_candle(self, dump_dir):
        source = FileDatasetSource(dump_dir)
        lo, hi = source.market.hour_range
        coin = int(source.coins.listed_coins(0, float(hi))[0])
        exact = source.market.log_close(np.array([coin]), np.array([float(hi)]))
        frac = source.market.log_close(np.array([coin]),
                                       np.array([hi + 0.73]))
        np.testing.assert_array_equal(exact, frac)

    def test_listings_and_subscribers(self, short_world, dump_dir):
        source = FileDatasetSource(dump_dir)
        np.testing.assert_array_equal(
            source.coins.listed_coins(0, 1000.0),
            short_world.coins.listed_coins(0, 1000.0),
        )
        assert source.channels.subscriber_counts() == \
            short_world.channels.subscriber_counts()
        assert set(source.channels.seed_channel_ids()) == \
            set(short_world.channels.seed_channel_ids())
        assert source.channels.dead_channel_ids() == \
            short_world.channels.dead_channel_ids()


class TestErrorPaths:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(SourceDataError, match="not a dump directory"):
            FileDatasetSource(tmp_path / "nope")

    def test_missing_meta(self, dump_dir, tmp_path):
        clone = _clone(dump_dir, tmp_path)
        (clone / "meta.json").unlink()
        with pytest.raises(SourceDataError, match="missing meta.json"):
            FileDatasetSource(clone)

    def test_wrong_schema_version(self, dump_dir, tmp_path):
        clone = _clone(dump_dir, tmp_path)
        meta = json.loads((clone / "meta.json").read_text())
        meta["schema_version"] = 999
        (clone / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(SourceDataError, match="schema v999"):
            FileDatasetSource(clone)

    def test_missing_candles_file(self, dump_dir, tmp_path):
        clone = _clone(dump_dir, tmp_path)
        (clone / "candles.csv").unlink()
        with pytest.raises(SourceDataError, match="missing candles.csv"):
            FileDatasetSource(clone)

    def test_missing_column(self, dump_dir, tmp_path):
        clone = _clone(dump_dir, tmp_path)

        def drop_volume(lines):
            header = lines[0].split(",")
            keep = [i for i, c in enumerate(header) if c != "volume"]
            return [",".join(line.split(",")[i] for i in keep)
                    for line in lines]

        _rewrite_csv(clone / "candles.csv", drop_volume)
        with pytest.raises(SourceDataError,
                           match=r"missing required column\(s\) \['volume'\]"):
            FileDatasetSource(clone)

    def test_unsorted_candle_timestamps(self, dump_dir, tmp_path):
        clone = _clone(dump_dir, tmp_path)

        def swap_rows(lines):
            lines[1], lines[2] = lines[2], lines[1]
            return lines

        _rewrite_csv(clone / "candles.csv", swap_rows)
        with pytest.raises(SourceDataError, match="not\\s+sorted by hour"):
            FileDatasetSource(clone)

    def test_unknown_candle_symbol(self, dump_dir, tmp_path):
        clone = _clone(dump_dir, tmp_path)

        def bogus_symbol(lines):
            first = lines[1].split(",")
            first[0] = "NOTACOIN"
            lines[1] = ",".join(first)
            return lines

        _rewrite_csv(clone / "candles.csv", bogus_symbol)
        with pytest.raises(SourceDataError,
                           match="unknown coin symbol 'NOTACOIN'"):
            FileDatasetSource(clone)

    def test_unsorted_message_timestamps(self, dump_dir, tmp_path):
        clone = _clone(dump_dir, tmp_path)
        lines = (clone / "messages.jsonl").read_text().splitlines()
        lines[0], lines[-1] = lines[-1], lines[0]
        (clone / "messages.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(SourceDataError, match="not sorted by\\s+time"):
            FileDatasetSource(clone)

    def test_message_missing_field(self, dump_dir, tmp_path):
        clone = _clone(dump_dir, tmp_path)
        lines = (clone / "messages.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        del record["text"]
        lines[0] = json.dumps(record)
        (clone / "messages.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(SourceDataError, match=r"missing field\(s\) \['text'\]"):
            FileDatasetSource(clone)

    def test_nonpositive_close(self, dump_dir, tmp_path):
        clone = _clone(dump_dir, tmp_path)

        def zero_close(lines):
            first = lines[1].split(",")
            first[2] = "0.0"
            lines[1] = ",".join(first)
            return lines

        _rewrite_csv(clone / "candles.csv", zero_close)
        with pytest.raises(SourceDataError, match="close must be positive"):
            FileDatasetSource(clone)

    def test_unknown_listing_symbol(self, dump_dir, tmp_path):
        clone = _clone(dump_dir, tmp_path)

        def bogus(lines):
            first = lines[1].split(",")
            first[1] = "NOTACOIN"
            lines[1] = ",".join(first)
            return lines

        _rewrite_csv(clone / "listings.csv", bogus)
        with pytest.raises(SourceDataError,
                           match="unknown coin symbol 'NOTACOIN'"):
            FileDatasetSource(clone)

    def test_empty_candle_window_raises(self, dump_dir):
        """A window outside the recorded grid is an error, never zeros."""
        source = FileDatasetSource(dump_dir)
        lo, _hi = source.market.hour_range
        coin = np.array([int(source.coins.listed_coins(0, 1e9)[0])])
        with pytest.raises(SourceDataError, match="no volume candle"):
            source.market.window_volume_profile(coin, float(lo), 72)

    def test_uncovered_price_hour_raises(self, dump_dir):
        source = FileDatasetSource(dump_dir)
        coin = np.array([int(source.coins.listed_coins(0, 1e9)[0])])
        with pytest.raises(SourceDataError, match="no close candle"):
            source.market.log_close(coin, np.array([1e7]))


class TestFeatureSafety:
    def test_features_never_silently_wrong(self, dump_dir, short_collection):
        """Assembling features for a time the dump does not cover fails."""
        from repro.features import coin_feature_matrix

        source = FileDatasetSource(dump_dir)
        coin = np.array([int(source.coins.listed_coins(0, 1e9)[0])])
        with pytest.raises(SourceDataError):
            coin_feature_matrix(source.market, coin, 10**7)


class TestCandidateBlock:
    @pytest.mark.parametrize("backend", ["synthetic", "file"])
    def test_stable_columns_equal_coin_feature_matrix(
            self, backend, short_source, short_collection, dump_dir):
        """A miss's coin-stable columns are the history encoder's rows,
        bit for bit, on both backends."""
        from repro.features import (
            COIN_FEATURE_NAMES,
            FeatureAssembler,
            coin_feature_matrix,
        )
        from repro.markets import pump_candidates

        source = (short_source if backend == "synthetic"
                  else FileDatasetSource(dump_dir))
        dataset = short_collection.dataset
        assembler = FeatureAssembler(source, dataset)
        stable = len(COIN_FEATURE_NAMES)
        times = sorted({e.time for e in dataset.examples})
        assert len(times) > 5
        for time in times:
            coins = pump_candidates(source.coins, 0, time)
            block = assembler.candidate_block(coins, time)
            expected = coin_feature_matrix(source.market, coins, time)
            assert block[:, :stable].tobytes() == expected.tobytes()


class TestMalformedNumerics:
    """Bad numeric values must become SourceDataError, never ValueError."""

    def test_non_numeric_message_field(self, dump_dir, tmp_path):
        clone = _clone(dump_dir, tmp_path)
        lines = (clone / "messages.jsonl").read_text().splitlines()
        record = json.loads(lines[0])
        record["channel_id"] = "oops"
        lines[0] = json.dumps(record)
        (clone / "messages.jsonl").write_text("\n".join(lines) + "\n")
        with pytest.raises(SourceDataError, match="must be\\s+numeric"):
            FileDatasetSource(clone)

    def test_non_numeric_meta_field(self, dump_dir, tmp_path):
        clone = _clone(dump_dir, tmp_path)
        meta = json.loads((clone / "meta.json").read_text())
        meta["seed"] = "not-a-number"
        (clone / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(SourceDataError, match="numeric field is malformed"):
            FileDatasetSource(clone)
