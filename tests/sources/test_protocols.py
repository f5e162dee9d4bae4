"""The protocol seam: adapter surface, descriptors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sources import (
    ChannelDirectory,
    CoinCatalog,
    MarketDataSource,
    SourceDataError,
    SyntheticWorldSource,
    parse_source_spec,
)


class TestSyntheticAdapter:
    def test_zero_copy_components(self, short_world, short_source):
        assert short_source.kind == "synthetic"
        assert short_source.world is short_world
        assert short_source.market is short_world.market
        assert short_source.coins is short_world.coins
        assert short_source.channels is short_world.channels
        assert list(short_source.messages()) == list(short_world.messages)

    def test_rejects_non_world(self):
        with pytest.raises(TypeError, match="wraps a SyntheticWorld"):
            SyntheticWorldSource(42)

    def test_protocol_conformance(self, short_source):
        assert isinstance(short_source.market, MarketDataSource)
        assert isinstance(short_source.coins, CoinCatalog)
        assert isinstance(short_source.channels, ChannelDirectory)

    def test_config_knobs(self, short_world, short_source):
        source = short_source
        config = short_world.config
        assert source.seed == config.seed
        assert source.sequence_length == config.sequence_length
        assert source.max_negatives_per_event == config.max_negatives_per_event
        assert source.n_exchanges == config.n_exchanges
        assert len(source.exchange_names) == config.n_exchanges
        assert source.repro_config() is config

    def test_descriptor_is_stable(self, short_world):
        a = SyntheticWorldSource(short_world).descriptor()
        b = SyntheticWorldSource(short_world).descriptor()
        assert a == b
        assert a["backend"] == "synthetic"
        assert a["fingerprint"].startswith("synthetic:")

    def test_channel_directory_protocol(self, short_world, short_source):
        directory = short_source.channels
        subs = directory.subscriber_counts()
        pump_ids = {c.channel_id for c in short_world.channels.pump_channels}
        assert set(subs) == pump_ids
        assert directory.dead_channel_ids() <= pump_ids
        assert set(directory.seed_channel_ids()) <= set(
            directory.all_channel_ids()
        )


class TestParseSourceSpec:
    def test_synthetic(self, short_world):
        source = parse_source_spec("synthetic", config=short_world.config)
        assert source.kind == "synthetic"
        assert source.seed == short_world.config.seed

    def test_file(self, dump_dir):
        source = parse_source_spec(f"file:{dump_dir}")
        assert source.kind == "file"
        assert source.coins.n_coins > 0

    def test_rejects_unknown(self):
        with pytest.raises(SourceDataError, match="unknown source spec"):
            parse_source_spec("postgres://nope")

    def test_rejects_empty_file_path(self):
        with pytest.raises(SourceDataError, match="needs a dump directory"):
            parse_source_spec("file:")


class TestMarketParity:
    """The adapter must answer market queries through the same object."""

    def test_log_close_identical(self, short_world, short_source):
        coins = np.array([5, 9, 30])
        hours = np.array([100.0, 500.5, 2000.25])
        np.testing.assert_array_equal(
            short_source.market.log_close(coins, hours),
            short_world.market.log_close(coins, hours),
        )

    # Each market query, asked about the coin ids ``ids``.
    QUERIES = {
        "log_close": lambda market, ids:
            market.log_close(ids, np.full(ids.shape, 500.0)),
        "hourly_volume": lambda market, ids:
            market.hourly_volume(ids, np.full(ids.shape, 500.0)),
        "typical_trade_size": lambda market, ids:
            market.typical_trade_size(ids),
        "trade_count_from_volume": lambda market, ids:
            market.trade_count_from_volume(np.ones(ids.shape), ids),
    }

    @pytest.mark.parametrize("backend", ["synthetic", "file"])
    @pytest.mark.parametrize("query", list(QUERIES))
    def test_unknown_coin_ids_are_refused(self, short_source, dump_dir,
                                          backend, query):
        """Both backends refuse ids outside 0..N-1 with the same error;
        the simulator used to answer -1 with another coin's numbers."""
        source = short_source if backend == "synthetic" \
            else parse_source_spec(f"file:{dump_dir}")
        n = source.coins.n_coins
        for bad in (np.array([-1]), np.array([n]), np.array([[3], [n]])):
            with pytest.raises(SourceDataError, match="outside the catalog"):
                self.QUERIES[query](source.market, bad)
