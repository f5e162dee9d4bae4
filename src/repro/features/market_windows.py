"""Market-movement features (§5.1): the pre-pump precursor signals.

For each candidate coin the paper computes price/return/volume/trade-count
statistics inside windows ``(x+1, 1]`` hours before the scheduled pump time
for ``x in (1, 3, 6, 12, 24, 48, 60, 72)`` — exactly the windows Figure 4(c)
shows to be informative (insiders accumulate from ~60h out).
"""

from __future__ import annotations

import numpy as np

from repro.sources.base import MarketDataSource

WINDOW_HOURS = (1, 3, 6, 12, 24, 48, 60, 72)

MARKET_FEATURE_NAMES = tuple(
    f"return_{x}h" for x in WINDOW_HOURS
) + tuple(
    f"log_volume_ratio_{x}h" for x in (1, 3, 6, 12, 24)
) + ("log_trade_count_24h",)


def price_window_hours(time: float) -> np.ndarray:
    """The log-price grid's hours: the windows' shared end ``t - 1``, then
    each window's start ``t - x - 1``."""
    return np.array([time - 1.0] + [time - x - 1.0 for x in WINDOW_HOURS])


def window_columns(market: MarketDataSource, coin_ids: np.ndarray,
                   logs: np.ndarray, volumes: np.ndarray) -> np.ndarray:
    """Pre-pump movement features from a candidate block's two window
    grids (:meth:`~repro.features.assembler.FeatureAssembler.candidate_block`
    reads them).

    ``logs`` holds the log prices at :func:`price_window_hours`, and
    ``volumes`` the hourly volumes 1..72 h before the pump, whose first
    ``x`` columns average to the window ``(x+1, 1]``'s hourly volume.
    Volume ratios compare each short window to the 72h window, capturing
    *abnormal* recent activity rather than absolute (cap-driven) levels.
    """
    # return = p(t-1) / p(t-x-1) - 1 for every window x.
    p_end = logs[:, 0]
    columns = [
        np.exp(p_end - logs[:, 1 + i]) - 1.0 for i in range(len(WINDOW_HOURS))
    ]
    base_volume = volumes.mean(axis=1)
    for x in (1, 3, 6, 12, 24):
        ratio = volumes[:, :x].mean(axis=1) / np.maximum(base_volume, 1e-12)
        columns.append(np.log(ratio + 1e-9))
    trade_count = market.trade_count_from_volume(
        volumes[:, :24].mean(axis=1), coin_ids
    )
    columns.append(np.log(trade_count + 1.0))
    return np.stack(columns, axis=1)
