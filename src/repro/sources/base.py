"""The data-plane protocols the pipeline consumes.

Everything downstream of raw data — feature assembly, training, the
predictor, the streaming service — needs exactly four capabilities:

* :class:`MarketDataSource` — OHLCV oracle answering the batched window /
  grid queries of :mod:`repro.features.market_windows`;
* :class:`CoinCatalog` — the coin universe: symbols, stable statistics and
  per-exchange listing lookups;
* :class:`ChannelDirectory` — channel ids, liveness and subscriber counts
  (what a Telegram API exposes about a channel);
* :class:`MessageFeed` — the timestamped announcement stream.

:class:`DataSource` bundles them with the handful of dataset-construction
knobs (seed, sequence length, negative cap).  Two backends ship:
:class:`repro.sources.synthetic.SyntheticWorldSource` adapts the simulator
bit-for-bit, and :class:`repro.sources.filedata.FileDatasetSource` loads
recorded CSV/JSONL dumps.  Every consumer takes a :class:`DataSource`;
a simulated world enters the pipeline wrapped in the adapter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.types import Message
    from repro.utils.config import ReproConfig


class SourceDataError(RuntimeError):
    """The backing data is missing, malformed, or cannot answer a query.

    Raised instead of returning wrong features: an incomplete candle grid
    or an unknown symbol must stop the pipeline with a diagnostic, never
    silently fill zeros into a feature matrix.

    Every construction bumps ``source_errors_total`` in the process-wide
    telemetry registry — the raise sites are scattered across backends,
    and this is the one chokepoint they all share.
    """

    def __init__(self, *args):
        super().__init__(*args)
        from repro.telemetry import default_registry

        default_registry().counter(
            "source_errors_total",
            "Data-source failures (missing/malformed/unanswerable).",
        ).labels().inc()


@runtime_checkable
class CoinCatalog(Protocol):
    """The coin universe: identity, stable statistics, listings.

    Stable statistics are arrays indexed by ``coin_id`` (the CoinGecko-style
    §5.1 features): ``market_cap``, ``alexa_rank``, ``reddit_subscribers``,
    ``twitter_followers``.
    """

    symbols: Sequence[str]
    market_cap: np.ndarray
    alexa_rank: np.ndarray
    reddit_subscribers: np.ndarray
    twitter_followers: np.ndarray

    @property
    def n_coins(self) -> int: ...

    def listed_coins(self, exchange_id: int, hour: float) -> np.ndarray:
        """Coin ids tradable on an exchange at a given hour."""
        ...

    def is_listed(self, coin_id: int, exchange_id: int, hour: float) -> bool: ...

    def symbol_to_id(self) -> dict[str, int]: ...


@runtime_checkable
class MarketDataSource(Protocol):
    """OHLCV oracle answering the feature layer's batched queries.

    ``universe`` exposes the :class:`CoinCatalog` the prices refer to (the
    stable coin statistics ride along with the market data, as they do on
    CoinGecko).  All array arguments broadcast together, matching the
    batched grid queries of :func:`repro.features.market_windows`.
    """

    @property
    def universe(self) -> CoinCatalog: ...

    def log_close(self, coin_ids, hours) -> np.ndarray:
        """Log close price; ``coin_ids`` and ``hours`` broadcast together."""
        ...

    def hourly_volume(self, coin_ids, hours) -> np.ndarray:
        """Traded volume during the hour ending at ``hours``."""
        ...

    def window_volume_profile(self, coin_ids, pump_hour: float,
                              max_hours: int) -> np.ndarray:
        """Hourly volumes at offsets ``1..max_hours`` before ``pump_hour``."""
        ...

    def trade_count_from_volume(self, volume: np.ndarray, coin_ids) -> np.ndarray:
        """Proxy trade count for already-known volumes."""
        ...


@runtime_checkable
class ChannelDirectory(Protocol):
    """What a Telegram-style API exposes about the monitored channels."""

    def all_channel_ids(self) -> list[int]: ...

    def seed_channel_ids(self) -> list[int]:
        """The verified seed list snowball exploration starts from."""
        ...

    def dead_channel_ids(self) -> set[int]:
        """Channels a liveness probe reports deleted/inaccessible."""
        ...

    def subscriber_counts(self) -> dict[int, int]:
        """channel_id -> subscribers, where known."""
        ...


@runtime_checkable
class MessageFeed(Protocol):
    """A replayable source of timestamped announcements."""

    def messages(self) -> "Sequence[Message]":
        """All messages, chronological."""
        ...


class DataSource:
    """Base class for a complete data backend.

    Concrete backends set :attr:`kind` and provide ``market`` / ``coins`` /
    ``channels`` plus :meth:`messages`.  The dataset-construction knobs
    (``seed``, ``sequence_length``, ``max_negatives_per_event``,
    ``n_exchanges``, ``exchange_names``) are attributes so the offline
    pipeline never reaches for a simulator config.
    """

    kind: str = "abstract"

    market: MarketDataSource
    coins: CoinCatalog
    channels: ChannelDirectory

    seed: int
    sequence_length: int
    max_negatives_per_event: int
    n_exchanges: int
    exchange_names: Sequence[str]

    def messages(self) -> "Sequence[Message]":  # pragma: no cover - interface
        raise NotImplementedError

    def descriptor(self) -> dict:
        """Provenance descriptor: backend kind + dataset fingerprint.

        Recorded into trained artifacts (:mod:`repro.registry`) so a model
        always knows what data plane produced it; shown by
        ``repro models inspect``.
        """
        return {"backend": self.kind, "fingerprint": self.fingerprint()}

    def fingerprint(self) -> str:  # pragma: no cover - interface
        """A short stable identifier of the underlying dataset."""
        raise NotImplementedError

    def repro_config(self) -> "ReproConfig":
        """A :class:`ReproConfig` describing this source's data-plane knobs.

        Kept so :class:`~repro.data.dataset.TargetCoinDataset` can keep
        storing one config type regardless of backend.
        """
        from repro.utils.config import ReproConfig

        return ReproConfig(
            seed=self.seed,
            n_coins=self.coins.n_coins,
            n_exchanges=self.n_exchanges,
            sequence_length=self.sequence_length,
            max_negatives_per_event=self.max_negatives_per_event,
        )

