"""Ranking: three columns in rank order; CoinScores exist only when read."""

import numpy as np
import pytest

from repro.core.predictor import CoinScore, Ranking


def ranking(**overrides) -> Ranking:
    fields = dict(channel_id=3, exchange_id=0, pump_time=12.5,
                  coin_ids=[40, 7, 12], symbols=["AA", "BB", "CC"],
                  probabilities=[0.75, 0.5, 0.125])
    fields.update(overrides)
    return Ranking(**fields)


SCORES = [CoinScore(40, "AA", 0.75), CoinScore(7, "BB", 0.5),
          CoinScore(12, "CC", 0.125)]


class TestColumns:
    def test_columns_are_typed(self):
        built = ranking()
        assert built.coin_ids.dtype == np.int64
        assert built.probabilities.dtype == np.float64
        assert built.symbols == ("AA", "BB", "CC")

    def test_columns_must_align(self):
        with pytest.raises(ValueError):
            ranking(symbols=["AA"])

    def test_scores_are_a_list_built_once(self):
        built = ranking()
        assert built.scores == SCORES
        assert built.scores is built.scores
        assert type(built.scores[0].coin_id) is int
        assert type(built.scores[0].probability) is float

    def test_top_builds_k(self):
        assert ranking().top(2) == SCORES[:2]
        assert ranking().top(0) == []
        assert ranking().top(10) == SCORES

    def test_top_refuses_negative_k(self):
        # A negative k used to slice from the end: every coin but the last.
        with pytest.raises(ValueError):
            ranking().top(-1)

    def test_rank_of_searches_the_ids(self):
        built = ranking()
        assert built.rank_of(40) == 1
        assert built.rank_of(12) == 3
        assert built.rank_of(99) == -1
        assert built.rank_of(2 ** 70) == -1

    def test_empty_ranking(self):
        empty = ranking(coin_ids=(), symbols=(), probabilities=())
        assert empty.scores == []
        assert empty.top(3) == []
        assert empty.rank_of(40) == -1

    def test_equality_is_bit_for_bit(self):
        assert ranking() == ranking()
        assert ranking() != ranking(coin_ids=[40, 12, 7])
        assert ranking() != ranking(symbols=["AA", "BB", "CD"])
        assert ranking() != ranking(
            probabilities=[0.75, 0.5, np.nextafter(0.125, 1.0)])
        assert ranking(probabilities=[0.5, 0.0, 0.0]) != ranking(
            probabilities=[0.5, 0.0, -0.0])
        assert ranking() != ranking(pump_time=12.0)
