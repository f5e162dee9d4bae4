"""Neutral market-domain facts shared by every data backend.

These used to live in :mod:`repro.simulation.coins`, which made every
consumer of an exchange name or pairing symbol import the *simulator* —
even layers (serving, features, core) that are backend-agnostic and must
also run against recorded real-world dumps (:mod:`repro.sources`).  They
are plain domain facts, not simulation parameters, so they live here with
no dependency on any backend.  :func:`pump_candidates` is the one rule
for which coins a pump announcement is ranked over, shared by dataset
construction and serving.
"""

from __future__ import annotations

# Names of the supported exchanges; index = exchange_id.  The first four
# mirror the paper's Table: Binance, Yobit, Hotbit, Kucoin.
EXCHANGE_NAMES = [
    "Binance", "Yobit", "Hotbit", "Kucoin", "Bittrex", "Gateio",
    "Okex", "Huobi", "Poloniex", "Bitmax", "Bilaxy", "Mexc",
    "Latoken", "Probit", "Coinex", "Bigone", "Whitebit", "Bitmart",
]

# The pairing majors (coin ids 0..2 in every universe); they are never
# pump candidates.
PAIR_SYMBOLS = ["BTC", "ETH", "USDT"]


def pump_candidates(coins, exchange_id: int, hour: float):
    """Coin ids a pump on ``exchange_id`` at ``hour`` may target.

    Every coin the catalog ``coins`` lists there at that hour, except the
    pairing majors: the negatives of a training list and the candidates
    of a served ranking are the same set.
    """
    listed = coins.listed_coins(exchange_id, hour)
    return listed[listed >= len(PAIR_SYMBOLS)]
