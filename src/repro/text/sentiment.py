"""Lexicon-and-rule sentiment analysis in the VADER family (Hutto & Gilbert).

The paper extracts sentiment from Telegram trading chatter with VADER and
aggregates hourly statistics (§7).  VADER itself is unavailable offline, so
we implement the same rule family: a valence lexicon (general + crypto
slang), negation handling, booster/dampener intensification, ALL-CAPS and
exclamation emphasis, and the same compound-score normalization
``s / sqrt(s^2 + 15)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

# Valences roughly on VADER's -4..+4 scale.
LEXICON: dict[str, float] = {
    # general positive
    "good": 1.9, "great": 3.1, "excellent": 3.2, "amazing": 2.8, "love": 3.2,
    "like": 1.5, "win": 2.8, "winner": 2.8, "profit": 2.6, "gain": 2.0,
    "gains": 2.2, "up": 1.2, "high": 1.4, "higher": 1.6, "strong": 2.0,
    "bull": 2.4, "bullish": 2.9, "buy": 1.6, "green": 1.8, "safe": 1.5,
    "best": 3.2, "huge": 1.9, "happy": 2.7, "rich": 2.3, "easy": 1.4,
    "opportunity": 1.8, "success": 2.7, "successful": 2.7, "confident": 2.2,
    "hope": 1.9, "hopeful": 2.0, "nice": 1.8, "solid": 1.7, "breakout": 2.1,
    "rocket": 2.5, "soar": 2.6, "soaring": 2.6, "surge": 2.2, "rally": 2.1,
    "rallying": 2.1, "gem": 2.4, "hodl": 1.4, "support": 1.2, "recover": 1.8,
    "recovery": 1.8, "undervalued": 1.6, "adoption": 1.5, "partnership": 1.7,
    # general negative
    "bad": -2.5, "terrible": -3.1, "awful": -3.0, "hate": -2.7, "loss": -2.4,
    "losses": -2.4, "lose": -2.3, "loser": -2.5, "down": -1.2, "low": -1.3,
    "lower": -1.5, "weak": -1.9, "bear": -2.2, "bearish": -2.8, "sell": -1.3,
    "red": -1.6, "risky": -1.8, "risk": -1.2, "fear": -2.2, "panic": -2.9,
    "crash": -3.2, "crashing": -3.2, "dump": -2.6, "dumping": -2.7,
    "scam": -3.3, "fraud": -3.2, "rug": -2.8, "rekt": -2.9, "drop": -1.9,
    "dropping": -2.0, "plunge": -2.7, "plummet": -2.9, "collapse": -3.0,
    "worry": -1.9, "worried": -2.0, "sad": -2.1, "angry": -2.3, "doubt": -1.5,
    "bubble": -1.7, "manipulation": -2.4, "hack": -2.9, "hacked": -3.0,
    "liquidated": -2.6, "bankrupt": -3.1, "worst": -3.1, "trouble": -2.0,
    "dead": -2.6, "bleeding": -2.3, "overvalued": -1.6, "resistance": -0.8,
    "moon": 2.9, "mooning": 3.0, "lambo": 2.2, "ath": 2.3, "fomo": 0.8,
    "fud": -2.0, "shill": -1.4, "whale": 0.3, "volatile": -1.0,
}

BOOSTERS: dict[str, float] = {
    "very": 0.293, "extremely": 0.293, "really": 0.267, "so": 0.293,
    "super": 0.293, "absolutely": 0.293, "totally": 0.267, "incredibly": 0.293,
    "mega": 0.293, "insanely": 0.293,
    # dampeners
    "slightly": -0.293, "somewhat": -0.293, "barely": -0.293, "kinda": -0.267,
    "marginally": -0.293, "little": -0.267,
}

NEGATIONS = frozenset(
    "not no never neither nobody none cannot cant dont doesnt didnt isnt "
    "arent wasnt werent wont wouldnt shouldnt couldnt aint without".split()
)

_WORD = re.compile(r"[a-zA-Z$']+")
_NORMALIZATION_ALPHA = 15.0
_CAPS_BOOST = 0.733
_EXCLAMATION_BOOST = 0.292
_NEGATION_FLIP = -0.74
_NEGATION_WINDOW = 3


@dataclass(frozen=True)
class SentimentScores:
    """VADER-style output: proportions plus the normalized compound score."""

    neg: float
    neu: float
    pos: float
    compound: float


class SentimentAnalyzer:
    """Rule-based sentiment scorer for short social-media messages."""

    def __init__(self, lexicon: dict[str, float] | None = None):
        self.lexicon = dict(LEXICON if lexicon is None else lexicon)

    def _token_valence(self, tokens: list[str], raw_tokens: list[str], i: int) -> float:
        word = tokens[i]
        valence = self.lexicon.get(word)
        if valence is None:
            return 0.0
        # ALL-CAPS emphasis (only meaningful if the message has mixed case).
        if raw_tokens[i].isupper() and len(raw_tokens[i]) > 1:
            valence += _CAPS_BOOST if valence > 0 else -_CAPS_BOOST
        # Booster words scale, negations flip, scanning a 3-token window back.
        scalar = 0.0
        negated = False
        for back in range(1, _NEGATION_WINDOW + 1):
            j = i - back
            if j < 0:
                break
            prev = tokens[j]
            if prev in BOOSTERS:
                # Boosters further away contribute less (VADER's decay).
                scalar += BOOSTERS[prev] * (1.0 - 0.05 * (back - 1))
            if prev in NEGATIONS:
                negated = True
        if valence > 0:
            valence += scalar
        else:
            valence -= scalar
        if negated:
            valence *= _NEGATION_FLIP
        return valence

    def score(self, text: str) -> SentimentScores:
        """Score one message.

        >>> SentimentAnalyzer().score("huge pump, easy profit!!").compound > 0
        True
        """
        raw_tokens = _WORD.findall(text)
        tokens = [t.lower() for t in raw_tokens]
        valences = [
            self._token_valence(tokens, raw_tokens, i) for i in range(len(tokens))
        ]
        total = float(np.sum(valences))
        # Exclamation emphasis (up to 4 count, as in VADER).
        excl = min(text.count("!"), 4)
        if total > 0:
            total += excl * _EXCLAMATION_BOOST
        elif total < 0:
            total -= excl * _EXCLAMATION_BOOST
        compound = total / np.sqrt(total * total + _NORMALIZATION_ALPHA)
        pos_sum = float(sum(v for v in valences if v > 0))
        neg_sum = float(-sum(v for v in valences if v < 0))
        neu_count = float(sum(1 for v in valences if v == 0))
        denom = pos_sum + neg_sum + neu_count
        if denom == 0:
            return SentimentScores(neg=0.0, neu=1.0, pos=0.0, compound=0.0)
        return SentimentScores(
            neg=round(neg_sum / denom, 4),
            neu=round(neu_count / denom, 4),
            pos=round(pos_sum / denom, 4),
            compound=round(float(np.clip(compound, -1, 1)), 4),
        )
