"""Output checks: every ranking the benchmark receives is verified.

A ranking is carried as ``{"coins": [...], "probs": [...]}`` in rank
order.  Floats go through ``json`` as ``repr`` (shortest round-trip), so
equality here is bit equality.
"""

from __future__ import annotations

import math


def encode_ranking(ranking) -> dict:
    return {"coins": [s.coin_id for s in ranking.scores],
            "probs": [s.probability for s in ranking.scores]}


def corrupt(encoded: dict) -> dict:
    """A copy with the top two coins swapped (for the self-test)."""
    coins = list(encoded["coins"])
    coins[0], coins[1] = coins[1], coins[0]
    return {"coins": coins, "probs": list(encoded["probs"])}


def ranking_problem(encoded: dict, candidates: list[int],
                    reference: dict | None) -> str | None:
    """Why ``encoded`` is wrong, or ``None`` when it passes.

    It must cover exactly the announcement's candidates, be sorted by
    probability, hold finite probabilities in [0, 1] and, when a
    reference is given, equal it bit for bit.
    """
    coins, probs = encoded["coins"], encoded["probs"]
    if len(coins) != len(probs):
        return "coins and probabilities differ in length"
    if sorted(coins) != candidates:
        return (f"ranking covers {len(set(coins))} coins, "
                f"expected the {len(candidates)} candidates")
    if not all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in probs):
        return "probability outside [0, 1] or not finite"
    if any(a < b for a, b in zip(probs, probs[1:])):
        return "ranking is not sorted by probability"
    if reference is not None and (coins != reference["coins"]
                                  or probs != reference["probs"]):
        return "ranking differs from the reference"
    return None


def hit_at_3(encoded: dict, released_coin: int) -> bool:
    return released_coin in encoded["coins"][:3]


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(problem)

    @property
    def success_rate(self) -> float:
        return (self.attempted - self.failed) / max(self.attempted, 1)
