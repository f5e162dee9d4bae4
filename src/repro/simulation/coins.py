"""The coin universe — a CoinGecko substitute (§4.1 data source).

Generates ``n_coins`` ranked coins with mutually-correlated statistics:
market capitalization, Alexa rank (web popularity), Reddit subscribers and
Twitter followers, plus a latent *semantic cluster* (the coin's "theme":
defi, gaming, meme, ...) that drives which coins are discussed together on
Telegram and which coins a pump channel prefers.

Rank-statistics follow the heavy-tailed shapes visible in Figure 3: caps
decay as a power law of rank, social indices decay more slowly with large
idiosyncratic noise (so some mid-cap coins are socially loud — exactly the
coins organizers target).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.markets import EXCHANGE_NAMES
from repro.utils.config import ReproConfig

_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _generate_symbols(n: int, rng: np.random.Generator) -> list[str]:
    """Unique 3-5 letter ticker symbols; the majors get their real names."""
    majors = ["BTC", "ETH", "BNB", "XRP", "ADA", "SOL", "DOGE", "DOT"]
    symbols: list[str] = []
    seen = set()
    for sym in majors[: min(n, len(majors))]:
        symbols.append(sym)
        seen.add(sym)
    while len(symbols) < n:
        length = int(rng.integers(3, 6))
        sym = "".join(rng.choice(list(_ALPHABET), size=length))
        if sym not in seen:
            seen.add(sym)
            symbols.append(sym)
    return symbols


@dataclass
class CoinUniverse:
    """Arrays indexed by ``coin_id`` (0-based; rank = coin_id + 1).

    Attributes
    ----------
    market_cap:
        USD market capitalization three days before any reference time
        (treated as stable, as in §5.1).
    alexa_rank:
        Global web-popularity rank (lower = more popular).
    reddit_subscribers, twitter_followers:
        Social-media indices.
    cluster:
        Latent semantic theme id in ``[0, n_clusters)``.
    listing_hour:
        Per-exchange listing time matrix ``(n_exchanges, n_coins)``; a coin
        is tradable on exchange ``e`` from ``listing_hour[e, c]`` onward
        (``-1`` = never listed).
    """

    config: ReproConfig
    symbols: list[str] = field(default_factory=list)
    market_cap: np.ndarray = field(default_factory=lambda: np.empty(0))
    alexa_rank: np.ndarray = field(default_factory=lambda: np.empty(0))
    reddit_subscribers: np.ndarray = field(default_factory=lambda: np.empty(0))
    twitter_followers: np.ndarray = field(default_factory=lambda: np.empty(0))
    base_price: np.ndarray = field(default_factory=lambda: np.empty(0))
    cluster: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=int))
    listing_hour: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    n_clusters: int = 12

    @classmethod
    def generate(cls, config: ReproConfig) -> "CoinUniverse":
        """Build the universe deterministically from ``config.seed``."""
        rng = np.random.default_rng(config.seed * 7919 + 11)
        n = config.n_coins
        rank = np.arange(1, n + 1, dtype=float)

        # Market cap: power-law decay with lognormal noise; BTC ~ 1e12.
        cap = 1.0e12 * rank**-1.05 * np.exp(rng.normal(0.0, 0.35, n))
        # Alexa rank grows with coin rank, noisy, floor of 1.
        alexa = np.maximum(1.0, 15.0 * rank**0.85 * np.exp(rng.normal(0.0, 0.9, n)))
        # Social indices: decay slower than cap, with heavy idiosyncratic
        # noise so mid-cap coins can have top-1000-like footprints.
        reddit = 3.0e6 * rank**-0.75 * np.exp(rng.normal(0.0, 1.1, n))
        twitter = 8.0e6 * rank**-0.7 * np.exp(rng.normal(0.0, 1.0, n))
        # Price = cap / circulating supply; supply lognormal.
        supply = np.exp(rng.normal(18.0, 2.0, n))
        price = cap / supply

        universe = cls(
            config=config,
            symbols=_generate_symbols(n, rng),
            market_cap=cap,
            alexa_rank=alexa,
            reddit_subscribers=reddit,
            twitter_followers=twitter,
            base_price=price,
            cluster=rng.integers(0, cls.n_clusters, size=n),
            listing_hour=cls._listings(config, rng, n),
        )
        return universe

    @staticmethod
    def _listings(config: ReproConfig, rng: np.random.Generator, n: int) -> np.ndarray:
        """Listing-time matrix; bigger exchanges list more coins, earlier.

        A fraction of coins get listed *during* the horizon, which creates
        the varying negative-sample counts of Table 4 and the never-seen
        coins of the cold-start study.
        """
        n_ex = config.n_exchanges
        listing = np.full((n_ex, n), -1.0)
        rank = np.arange(1, n + 1, dtype=float)
        for e in range(n_ex):
            # Exchange 0 (Binance) always reaches deepest down the rank list.
            depth = n * (0.6 if e == 0 else 0.12 + 0.35 * rng.random())
            prob = np.clip(1.15 - rank / depth, 0.02, 0.98)
            listed = rng.random(n) < prob
            hours = np.where(
                rng.random(n) < 0.55,
                0.0,  # listed before the horizon starts
                rng.uniform(0, config.horizon_hours * 0.9, n),
            )
            listing[e] = np.where(listed, hours, -1.0)
        # The pairing majors are always listed everywhere from hour 0.
        listing[:, :3] = 0.0
        return listing

    # -- queries ---------------------------------------------------------------

    @property
    def n_coins(self) -> int:
        return len(self.symbols)

    def exchange_name(self, exchange_id: int) -> str:
        return EXCHANGE_NAMES[exchange_id % len(EXCHANGE_NAMES)]

    def listed_coins(self, exchange_id: int, hour: float) -> np.ndarray:
        """Coin ids tradable on an exchange at a simulated hour."""
        hours = self.listing_hour[exchange_id]
        return np.flatnonzero((hours >= 0) & (hours <= hour))

    def is_listed(self, coin_id: int, exchange_id: int, hour: float) -> bool:
        listed_at = self.listing_hour[exchange_id, coin_id]
        return bool(listed_at >= 0 and listed_at <= hour)

    def symbol_to_id(self) -> dict[str, int]:
        """Ticker symbol -> coin_id mapping."""
        return {s: i for i, s in enumerate(self.symbols)}

    def social_score(self) -> np.ndarray:
        """Residual social loudness vs. rank expectation, standardized.

        Positive = louder on Reddit/Twitter than its cap rank predicts;
        organizers preferentially target such coins (Figure 3 c-d).
        """
        rank = np.arange(1, self.n_coins + 1, dtype=float)
        expected_reddit = np.log(3.0e6 * rank**-0.75)
        expected_twitter = np.log(8.0e6 * rank**-0.7)
        residual = (np.log(self.reddit_subscribers) - expected_reddit) + (
            np.log(self.twitter_followers) - expected_twitter
        )
        return (residual - residual.mean()) / (residual.std() + 1e-12)
