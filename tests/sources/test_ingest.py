"""Ingestion: canonical layout, raw-file normalization, fingerprints."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from repro.sources import (
    FileDatasetSource,
    SourceDataError,
    export_synthetic_dump,
    ingest_raw,
)

# meta.json sampling values every later dataset build would crash on.
BAD_SAMPLING = [("sequence_length", 0), ("sequence_length", -3),
                ("max_negatives_per_event", -1)]


class TestSyntheticExport:
    def test_canonical_files_exist(self, dump_dir):
        for name in ("meta.json", "coins.csv", "candles.csv", "listings.csv",
                     "channels.csv", "messages.jsonl"):
            assert (dump_dir / name).is_file(), name

    def test_meta_knobs_round_trip(self, short_world, dump_dir):
        meta = json.loads((dump_dir / "meta.json").read_text())
        config = short_world.config
        assert meta["seed"] == config.seed
        assert meta["sequence_length"] == config.sequence_length
        assert meta["max_negatives_per_event"] == config.max_negatives_per_event
        assert meta["n_exchanges"] == config.n_exchanges
        assert meta["origin"]["backend"] == "synthetic"

    def test_refuses_nonempty_foreign_directory(self, short_world, tmp_path):
        target = tmp_path / "occupied"
        target.mkdir()
        (target / "precious.txt").write_text("do not clobber")
        with pytest.raises(SourceDataError, match="refusing to write"):
            export_synthetic_dump(short_world, target)

    def test_fingerprint_tracks_content(self, dump_dir, tmp_path):
        import shutil

        clone = tmp_path / "fp-clone"
        shutil.copytree(dump_dir, clone)
        original = FileDatasetSource(dump_dir).fingerprint()
        assert FileDatasetSource(clone).fingerprint() == original
        with open(clone / "messages.jsonl", "a") as handle:
            handle.write(json.dumps({
                "message_id": 10**9, "channel_id": 1, "time": 1e6,
                "text": "tamper", "kind": "generic"}) + "\n")
        assert FileDatasetSource(clone).fingerprint() != original

    def test_compressed_export_loads(self, short_world, short_collection,
                                     tmp_path):
        out = tmp_path / "gz-dump"
        source = export_synthetic_dump(short_world, out,
                                       collection=short_collection,
                                       compress=True)
        assert (out / "candles.csv.gz").is_file()
        assert (out / "messages.jsonl.gz").is_file()
        assert len(source.messages()) == len(short_world.messages)


class TestRawIngest:
    @pytest.fixture()
    def raw_files(self, tmp_path):
        raw = tmp_path / "raw"
        raw.mkdir()
        with open(raw / "coins.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["symbol", "market_cap", "alexa_rank",
                             "reddit_subscribers", "twitter_followers"])
            writer.writerow(["AAA", 1e9, 100, 5000, 9000])
            writer.writerow(["BBB", 5e8, 400, 100, 20])
        with open(raw / "candles.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["symbol", "hour", "close", "volume"])
            # Deliberately unsorted: ingest must canonicalize.
            for hour in (5, 3, 4, 1, 2, 0):
                writer.writerow(["AAA", hour, 1.5 + hour, 100.0])
                writer.writerow(["BBB", hour, 0.25, 40.0])
        with open(raw / "messages.jsonl", "w") as handle:
            records = [
                {"channel_id": 11, "time": 4.5, "text": "Coin: AAA",
                 "is_pump": True},
                {"channel_id": 11, "time": 1.0, "text": "hello world"},
                {"channel_id": 12, "time": 1.0, "text": "gm"},
            ]
            for record in records:
                handle.write(json.dumps(record) + "\n")
        return raw

    def test_normalizes_and_loads(self, raw_files, tmp_path):
        out = tmp_path / "canonical"
        source = ingest_raw(
            out,
            messages=raw_files / "messages.jsonl",
            candles=raw_files / "candles.csv",
            coins=raw_files / "coins.csv",
            seed=3, sequence_length=7, max_negatives_per_event=9,
        )
        assert isinstance(source, FileDatasetSource)
        assert source.coins.symbols == ["AAA", "BBB"]
        assert source.seed == 3
        assert source.sequence_length == 7
        # Candles were sorted; queries answer across the recorded range.
        np.testing.assert_allclose(
            source.market.log_close(np.array([0]), np.array([3.0])),
            np.log([4.5]),
        )
        # Messages sorted by (time, channel_id); is_pump mapped to a kind.
        messages = source.messages()
        assert [m.channel_id for m in messages] == [11, 12, 11]
        assert messages[-1].is_pump_message
        # Channels derived from the stream; every coin listed on exchange 0.
        assert set(source.channels.all_channel_ids()) == {11, 12}
        assert source.channels.subscriber_counts() == {11: 1000, 12: 1000}
        np.testing.assert_array_equal(
            source.coins.listed_coins(0, 0.0), np.array([0, 1])
        )

    def test_duplicate_candles_rejected(self, raw_files, tmp_path):
        with open(raw_files / "candles.csv", "a", newline="") as handle:
            csv.writer(handle).writerow(["AAA", 3, 9.9, 1.0])
        with pytest.raises(SourceDataError, match="duplicate candle"):
            ingest_raw(tmp_path / "dup", messages=raw_files / "messages.jsonl",
                       candles=raw_files / "candles.csv",
                       coins=raw_files / "coins.csv")

    def test_unknown_candle_symbol_rejected(self, raw_files, tmp_path):
        with open(raw_files / "candles.csv", "a", newline="") as handle:
            csv.writer(handle).writerow(["ZZZ", 3, 9.9, 1.0])
        with pytest.raises(SourceDataError, match="unknown coin symbol"):
            ingest_raw(tmp_path / "bad", messages=raw_files / "messages.jsonl",
                       candles=raw_files / "candles.csv",
                       coins=raw_files / "coins.csv")

    def test_missing_raw_column_rejected(self, raw_files, tmp_path):
        (raw_files / "coins.csv").write_text("symbol,market_cap\nAAA,1e9\n")
        with pytest.raises(SourceDataError, match="missing required column"):
            ingest_raw(tmp_path / "cols", messages=raw_files / "messages.jsonl",
                       candles=raw_files / "candles.csv",
                       coins=raw_files / "coins.csv")

    @pytest.mark.parametrize("field, value", BAD_SAMPLING)
    def test_bad_sampling_limits_write_no_dump(self, raw_files, tmp_path,
                                               field, value):
        out = tmp_path / "never"
        with pytest.raises(SourceDataError, match=field):
            ingest_raw(out, messages=raw_files / "messages.jsonl",
                       candles=raw_files / "candles.csv",
                       coins=raw_files / "coins.csv", **{field: value})
        assert not out.exists()

    @pytest.mark.parametrize("field, value", BAD_SAMPLING)
    def test_dump_with_bad_sampling_limits_fails_to_load(
            self, raw_files, tmp_path, field, value):
        out = tmp_path / "edited"
        ingest_raw(out, messages=raw_files / "messages.jsonl",
                   candles=raw_files / "candles.csv",
                   coins=raw_files / "coins.csv")
        meta = json.loads((out / "meta.json").read_text())
        meta[field] = value
        (out / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(SourceDataError, match=f"meta.json: {field}"):
            FileDatasetSource(out)

    def test_zero_negative_cap_means_no_cap(self, raw_files, tmp_path):
        source = ingest_raw(tmp_path / "uncapped",
                            messages=raw_files / "messages.jsonl",
                            candles=raw_files / "candles.csv",
                            coins=raw_files / "coins.csv",
                            max_negatives_per_event=0)
        assert source.max_negatives_per_event == 0


class TestReviewRegressions:
    def test_exchange_names_never_exceed_listing_matrix(self, tmp_path):
        """A name with no listings row would let the serving sessionizer
        emit an exchange id that crashes candidate lookup."""
        import csv as _csv

        raw = tmp_path / "raw"
        raw.mkdir()
        with open(raw / "coins.csv", "w", newline="") as handle:
            writer = _csv.writer(handle)
            writer.writerow(["symbol", "market_cap", "alexa_rank",
                             "reddit_subscribers", "twitter_followers"])
            writer.writerow(["AAA", 1e9, 100, 5000, 9000])
        with open(raw / "candles.csv", "w", newline="") as handle:
            writer = _csv.writer(handle)
            writer.writerow(["symbol", "hour", "close", "volume"])
            writer.writerow(["AAA", 0, 1.0, 10.0])
        with open(raw / "messages.jsonl", "w") as handle:
            handle.write(json.dumps({"channel_id": 1, "time": 0.5,
                                     "text": "pump on Yobit"}) + "\n")
        source = ingest_raw(tmp_path / "out",
                            messages=raw / "messages.jsonl",
                            candles=raw / "candles.csv",
                            coins=raw / "coins.csv")
        assert source.n_exchanges == 1
        assert len(source.exchange_names) == source.n_exchanges
        # "Yobit" is not an advertised name, so the sessionizer can never
        # produce exchange_id=1 against a 1-row listing matrix.
        assert "Yobit" not in source.exchange_names

    def test_recompressed_reingest_replaces_stale_plain_files(
            self, short_world, short_collection, tmp_path):
        """A stale plain candles.csv must not shadow a fresh .csv.gz."""
        out = tmp_path / "redump"
        first = export_synthetic_dump(short_world, out,
                                      collection=short_collection)
        fingerprint = first.fingerprint()
        again = export_synthetic_dump(short_world, out,
                                      collection=short_collection,
                                      compress=True)
        assert not (out / "candles.csv").exists()
        assert (out / "candles.csv.gz").is_file()
        # Same content, different encoding: the dump still reads the
        # fresh files (message count intact), not leftovers.
        assert len(again.messages()) == len(first.messages())
        assert again.fingerprint() != fingerprint  # hashes the gz bytes
