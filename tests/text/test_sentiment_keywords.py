"""Tests for the sentiment analyzer and the keyword filter."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import PUMP_KEYWORDS, KeywordFilter, SentimentAnalyzer
from repro.text.tokenize import clean_message


@pytest.fixture(scope="module")
def analyzer():
    return SentimentAnalyzer()


class TestSentimentPolarity:
    def test_positive_message(self, analyzer):
        assert analyzer.score("huge profit, easy gains, bullish!").compound > 0.3

    def test_negative_message(self, analyzer):
        assert analyzer.score("total scam, panic selling, crash").compound < -0.3

    def test_neutral_message(self, analyzer):
        scores = analyzer.score("the meeting starts at noon")
        assert scores.compound == 0.0
        assert scores.neu == 1.0

    def test_negation_flips_polarity(self, analyzer):
        positive = analyzer.score("this coin is good").compound
        negated = analyzer.score("this coin is not good").compound
        assert positive > 0
        assert negated < 0

    def test_booster_amplifies(self, analyzer):
        plain = analyzer.score("good coin").compound
        boosted = analyzer.score("extremely good coin").compound
        assert boosted > plain

    def test_dampener_reduces(self, analyzer):
        plain = analyzer.score("good coin").compound
        damped = analyzer.score("slightly good coin").compound
        assert damped < plain

    def test_exclamations_amplify(self, analyzer):
        plain = analyzer.score("pump it, moon").compound
        excited = analyzer.score("pump it, moon!!!").compound
        assert excited > plain

    def test_caps_amplify(self, analyzer):
        plain = analyzer.score("this is a moon day").compound
        caps = analyzer.score("this is a MOON day").compound
        assert caps > plain

    def test_crypto_slang_coverage(self, analyzer):
        assert analyzer.score("rekt by the rug pull").compound < 0
        assert analyzer.score("to the moon, lambo time").compound > 0

    def test_empty_text(self, analyzer):
        scores = analyzer.score("")
        assert scores.compound == 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.text(max_size=300))
    def test_property_compound_bounded(self, analyzer, text):
        scores = analyzer.score(text)
        assert -1.0 <= scores.compound <= 1.0
        assert abs(scores.neg + scores.neu + scores.pos - 1.0) < 0.01 or (
            scores.neg == scores.pos == 0.0
        )


class TestKeywordFilter:
    @pytest.fixture
    def filt(self):
        return KeywordFilter(
            coin_symbols=["BTC", "EVX", "NAS"],
            exchange_names=["binance", "yobit"],
        )

    def test_matches_pump_vocabulary(self, filt):
        assert filt.matches("Next pump in 5 minutes!")
        assert filt.matches("HOLD and do not sell")

    def test_matches_uppercase_symbol_release(self, filt):
        assert filt.matches("EVX")
        assert filt.matches("The coin is NAS")

    def test_matches_dollar_tag_case_insensitive(self, filt):
        assert filt.matches("loading up on $evx")

    def test_lowercase_symbol_without_tag_not_coin_match(self, filt):
        # 'evx' lowercase, no $ tag, no keywords: must not match.
        assert not filt.matches("evx is a word here")

    def test_matches_exchange_name(self, filt):
        assert filt.matches("listed on Binance today")

    def test_rejects_ordinary_chatter(self, filt):
        assert not filt.matches("lunch was nice today")

    def test_filter_returns_indices(self, filt):
        messages = ["hello world", "pump now", "weather is fine", "on yobit"]
        assert filt.filter(messages) == [1, 3]

    def test_requires_symbols(self):
        with pytest.raises(ValueError):
            KeywordFilter([], ["binance"])


class RegexKeywordFilter:
    """The two-regex formulation the token match must equal: every
    uppercase symbol through one ``\\b(?:…)\\b`` alternation, every
    ``$sym`` tag through one case-insensitive one."""

    def __init__(self, coin_symbols, exchange_names):
        upper = {s.upper() for s in coin_symbols}
        escaped = sorted((re.escape(s) for s in upper), key=len, reverse=True)
        self.symbol_re = re.compile(r"\b(?:" + "|".join(escaped) + r")\b")
        self.tag_re = re.compile(r"\$(?:" + "|".join(escaped) + r")\b",
                                 re.IGNORECASE)
        self.exchange_names = {e.lower() for e in exchange_names}

    def matches(self, message):
        if self.symbol_re.search(message) or self.tag_re.search(message):
            return True
        cleaned = set(clean_message(message).split())
        return bool(cleaned & PUMP_KEYWORDS or cleaned & self.exchange_names)


# Word characters of every kind ``\w`` admits (ASCII, digits, ``_``, the
# case-folding oddities ß, ſ and the Kelvin sign), and the non-word ones
# that send a symbol to the regex.
_SYMBOL_CHARS = "ABCKSabcks019_-.$\u00df\u017f\u212a"
_FILLER_CHARS = _SYMBOL_CHARS + " !,'#@"


@st.composite
def symbols_and_texts(draw):
    symbols = draw(st.lists(st.text(_SYMBOL_CHARS, min_size=1, max_size=4),
                            min_size=1, max_size=6))
    mention = st.sampled_from(symbols).flatmap(lambda s: st.sampled_from(
        [s, s.upper(), s.lower(), "$" + s, "$" + s.upper(), "$" + s.lower()]))
    piece = st.one_of(mention, st.text(_FILLER_CHARS, max_size=5),
                      st.sampled_from(["pump", "Binance", "lunch"]))
    glue = st.sampled_from(["", "", " ", "-", ".", "$", "_"])
    text = st.lists(st.tuples(piece, glue), max_size=5).map(
        lambda parts: "".join(p + g for p, g in parts))
    return symbols, draw(st.lists(text, min_size=1, max_size=8))


class TestTokenMatchEqualsRegex:
    @settings(max_examples=300, deadline=None)
    @given(symbols_and_texts())
    def test_matches_equal_the_regex_formulation(self, case):
        symbols, texts = case
        filt = KeywordFilter(symbols, ["binance"])
        reference = RegexKeywordFilter(symbols, ["binance"])
        for text in texts:
            assert filt.matches(text) == reference.matches(text), text

    @settings(max_examples=100, deadline=None)
    @given(symbols_and_texts())
    def test_filter_over_repeated_texts_keeps_what_matches_accepts(self, case):
        symbols, texts = case
        filt = KeywordFilter(symbols, ["binance"])
        repeated = texts + texts[::-1] + texts[:1]
        assert filt.filter(repeated) == [
            i for i, text in enumerate(repeated) if filt.matches(text)
        ]

    def test_word_symbols_skip_the_regex(self, tiny_world):
        filt = KeywordFilter(["EVX", "A-B"], ["binance"])
        assert filt.matches("moving A-B today")
        assert not filt.matches("moving A-BC today")
        assert filt.matches("EVX_ not a mention, EVX is") and not filt.matches(
            "EVX_ only")
        # The simulator's symbols are all word runs: no regex per message.
        assert KeywordFilter(tiny_world.coins.symbols, [])._symbol_re is None
