"""Stable coin features (§5.1): the CoinGecko-style statistics.

The paper collects market cap, price, volume, Alexa rank, Twitter followers
and Reddit subscribers *three days prior* to the pump event, because those
values are stable before the P&D machinery starts moving the market.
"""

from __future__ import annotations

import numpy as np

from repro.sources.base import CoinCatalog, MarketDataSource

STABLE_LEAD_HOURS = 72  # "three days prior to the pump event"

COIN_FEATURE_NAMES = (
    "log_market_cap",
    "log_alexa_rank",
    "log_reddit_subscribers",
    "log_twitter_followers",
    "log_price_3d",
    "log_volume_3d",
)


def stable_columns(universe: CoinCatalog, coin_ids: np.ndarray,
                   log_price: np.ndarray, volume: np.ndarray) -> np.ndarray:
    """The coin-stable rows from each coin's log price and hourly volume
    ``STABLE_LEAD_HOURS`` before its pump.

    Returns ``(len(coin_ids), len(COIN_FEATURE_NAMES))``.  History
    encodes read the price and volume with their own queries
    (:func:`coin_feature_matrix`); a candidate block takes them from the
    ``t - 72`` columns of its window grids.
    """
    return np.stack(
        [
            np.log(universe.market_cap[coin_ids]),
            np.log(universe.alexa_rank[coin_ids]),
            np.log(universe.reddit_subscribers[coin_ids] + 1.0),
            np.log(universe.twitter_followers[coin_ids] + 1.0),
            log_price,
            np.log(volume + 1e-12),
        ],
        axis=1,
    )


def coin_feature_matrix(market: MarketDataSource, coin_ids: np.ndarray,
                        time: float | np.ndarray) -> np.ndarray:
    """Stable statistics for candidate coins at a pump time.

    Returns ``(len(coin_ids), len(COIN_FEATURE_NAMES))``; price and volume
    are taken 72 hours before ``time`` so pre-pump movement cannot leak in.
    ``time`` may be a scalar (one pump event) or an array aligned with
    ``coin_ids`` (batched encoding of histories whose pumps happened at
    different times).
    """
    coin_ids = np.asarray(coin_ids, dtype=np.int64)
    stable_hour = np.broadcast_to(
        np.asarray(time, dtype=np.float64) - STABLE_LEAD_HOURS, coin_ids.shape
    )
    return stable_columns(market.universe, coin_ids,
                          market.log_close(coin_ids, stable_hour),
                          market.hourly_volume(coin_ids, stable_hour))
