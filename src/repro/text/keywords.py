"""Keyword matching — the first stage of pump-message detection (§3.2).

The paper "reserves any message that mentions a coin or exchange name, or
includes keywords such as 'pump', 'target', 'hold', 'sell', etc.", cutting
4.67M messages down to 2.19M before the ML classifier runs.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from repro.text.tokenize import clean_message

PUMP_KEYWORDS = frozenset(
    """pump pumping pumped target hold holding sell selling buy buying signal
    countdown announcement profit gain next coin name exchange pair btc
    minutes hours ready soon vip dump moon""".split()
)

_WORD_RUN = re.compile(r"\w+")


class KeywordFilter:
    """Reserve messages mentioning coins, exchanges or pump vocabulary.

    Coin symbols are matched case-sensitively in the raw text when uppercase
    (the release format, e.g. ``"FIC"``) and case-insensitively as ``$sym``
    tags; exchange names and keywords match on cleaned lowercase text.

    An uppercase mention is a ``\\bSYM\\b`` match.  A symbol made only of
    word characters (``re``'s ``\\w``: letters, digits, ``_``) matches that
    way exactly when it is a whole ``\\w+`` run of the message, so such
    symbols are looked up as the message's word tokens in a frozenset.  The
    ``\\b(?:…)\\b`` regex is compiled only for symbols holding any other
    character (``-``, ``.``, ``$``, …) and runs only when there are some.
    The ``$sym`` tag regex covers every symbol.  :meth:`filter` decides
    each distinct text once.
    """

    def __init__(self, coin_symbols: Sequence[str], exchange_names: Sequence[str],
                 extra_keywords: Iterable[str] = ()):
        if not coin_symbols:
            raise ValueError("at least one coin symbol is required")
        self.coin_symbols = {s.upper() for s in coin_symbols}
        self.exchange_names = {e.lower() for e in exchange_names}
        self.keywords = set(PUMP_KEYWORDS) | {k.lower() for k in extra_keywords}
        self._word_symbols = frozenset(
            s for s in self.coin_symbols if _WORD_RUN.fullmatch(s)
        )
        other = self.coin_symbols - self._word_symbols
        self._symbol_re = (
            re.compile(r"\b(?:" + _alternation(other) + r")\b") if other else None
        )
        self._tag_re = re.compile(
            r"\$(?:" + _alternation(self.coin_symbols) + r")\b", re.IGNORECASE
        )

    def matches(self, message: str) -> bool:
        """True when the message must be kept for classification."""
        if not self._word_symbols.isdisjoint(_WORD_RUN.findall(message)):
            return True
        if self._symbol_re is not None and self._symbol_re.search(message):
            return True
        if self._tag_re.search(message):
            return True
        cleaned = set(clean_message(message).split())
        if cleaned & self.keywords:
            return True
        return bool(cleaned & self.exchange_names)

    def filter(self, messages: Sequence[str]) -> list[int]:
        """Indices of messages that pass the filter."""
        keep = {text: self.matches(text) for text in set(messages)}
        return [i for i, m in enumerate(messages) if keep[m]]


def _alternation(symbols: Iterable[str]) -> str:
    """Escaped symbols, longest first, joined for a ``(?:…)`` group."""
    return "|".join(sorted((re.escape(s) for s in symbols), key=len,
                           reverse=True))
