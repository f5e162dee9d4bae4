"""Neutral market-domain constants shared by every data backend.

These used to live in :mod:`repro.simulation.coins`, which made every
consumer of an exchange name or pairing symbol import the *simulator* —
even layers (serving, features, core) that are backend-agnostic and must
also run against recorded real-world dumps (:mod:`repro.sources`).  They
are plain domain facts, not simulation parameters, so they live here with
no dependency on any backend.
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
