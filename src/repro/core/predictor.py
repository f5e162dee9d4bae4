"""TargetCoinPredictor — the deployment-facing API of the paper's intro.

Given a pump announcement (channel, exchange, scheduled time), rank *every
eligible coin listed on that exchange* by pump probability one hour before
the pump — "real-time efficiency to ensure the timeliness" (§1).

The predictor wraps a trained ranker with the feature assembly it was
trained on, so scoring a new announcement is a single call:

>>> predictor = TargetCoinPredictor(source, dataset, model)     # doctest: +SKIP
>>> ranking = predictor.rank(channel_id, exchange_id=0, pump_time=t)  # doctest: +SKIP
>>> ranking.top(5)                                              # doctest: +SKIP

``source`` is any :class:`repro.sources.DataSource` backend — the
predictor itself is backend-agnostic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from repro.core.snn import Batch
from repro.data.dataset import ServingSlice, TargetCoinDataset
from repro.features.assembler import FeatureAssembler
from repro.features.sequence import SequenceFeatures, encode_history
from repro.markets import pump_candidates
from repro.ml.scaling import StandardScaler
from repro.nn import Module, no_grad, run_compiled, stable_sigmoid
from repro.sources.base import DataSource
from repro.telemetry import span
from repro.utils.payload import (
    compact_json,
    json_strings,
    payload_float as _payload_float,
    payload_int as _payload_int,
    payload_list as _payload_list,
    payload_str as _payload_str,
)


@dataclass(frozen=True)
class CoinScore:
    """One candidate coin's predicted pump probability."""

    coin_id: int
    symbol: str
    probability: float


@dataclass(frozen=True)
class RankRequest:
    """One announcement to score: where and when the pump will happen.

    ``candidates`` optionally carries a precomputed eligible-coin set so a
    caller that already resolved it (e.g. a serving gate) avoids a second
    :meth:`TargetCoinPredictor.candidates` lookup.
    """

    channel_id: int
    exchange_id: int
    pump_time: float
    candidates: np.ndarray | None = field(default=None, compare=False)


# Pluggable feature providers for :meth:`TargetCoinPredictor.rank_many`.
# ``FeaturesFn(exchange_id, coins, time)`` returns the *raw* (unscaled)
# coin + market feature block for the candidates; ``HistoryFn(channel_id,
# time)`` returns the channel's chronological pump history strictly before
# ``time``.  A serving layer substitutes memoized versions of both.
FeaturesFn = Callable[[int, np.ndarray, float], np.ndarray]
HistoryFn = Callable[[int, float], "Sequence"]


@dataclass(eq=False)
class Ranking:
    """Scored candidates of one announcement, in rank order.

    The ranking is three parallel columns, best coin first: ``coin_ids``
    (int64), ``probabilities`` (float64) and ``symbols``.  Per-coin
    :class:`CoinScore` objects are built only when read — :attr:`scores`
    builds them all once, :meth:`top` builds ``k`` — so a serving path
    that encodes the columns straight to the wire (:meth:`to_json`)
    never builds one.  Equality compares the columns bit for bit.  Every
    probability must be finite, so every ranking encodes to strict JSON.
    """

    channel_id: int
    exchange_id: int
    pump_time: float
    coin_ids: np.ndarray
    probabilities: np.ndarray
    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        self.coin_ids = np.asarray(self.coin_ids, dtype=np.int64)
        self.probabilities = np.asarray(self.probabilities, dtype=np.float64)
        self.symbols = tuple(self.symbols)
        if not (len(self.coin_ids) == len(self.probabilities)
                == len(self.symbols)):
            raise ValueError("a ranking's coin_ids, probabilities and "
                             "symbols must have one entry per coin")
        if not np.isfinite(self.probabilities).all():
            raise ValueError("a ranking's probabilities must be finite")

    @cached_property
    def scores(self) -> list[CoinScore]:
        """Every candidate as a :class:`CoinScore`, best first."""
        return self.top(len(self.symbols))

    def top(self, k: int) -> list[CoinScore]:
        """The ``k`` best-ranked candidates."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        return list(map(CoinScore, self.coin_ids[:k].tolist(),
                        self.symbols[:k], self.probabilities[:k].tolist()))

    def rank_of(self, coin_id: int) -> int:
        """1-based rank of a coin, or -1 if not a candidate."""
        hits = np.flatnonzero(self.coin_ids == coin_id)
        return int(hits[0]) + 1 if len(hits) else -1

    def __eq__(self, other) -> bool:
        if not isinstance(other, Ranking):
            return NotImplemented
        return (self.channel_id == other.channel_id
                and self.exchange_id == other.exchange_id
                and self.pump_time == other.pump_time
                and self.symbols == other.symbols
                and self.coin_ids.tobytes() == other.coin_ids.tobytes()
                and self.probabilities.tobytes()
                == other.probabilities.tobytes())

    def to_payload(self) -> dict:
        """JSON-safe wire form; probabilities survive bit-for-bit.

        ``json`` serializes floats with ``repr`` (shortest round-tripping
        form), so a ranking decoded from this payload compares exactly
        equal to the in-process original — the property the gateway's
        parity tests pin.
        """
        return {
            "channel_id": self.channel_id,
            "exchange_id": self.exchange_id,
            "pump_time": self.pump_time,
            "scores": [
                {"coin_id": coin_id, "symbol": symbol,
                 "probability": probability}
                for coin_id, symbol, probability in zip(
                    self.coin_ids.tolist(), self.symbols,
                    self.probabilities.tolist())
            ],
        }

    def to_json(self) -> str:
        """:meth:`to_payload` as compact JSON, written from the columns.

        The text is ``json.dumps(self.to_payload(), separators=(",", ":"))``
        byte for byte: ids and probabilities go through ``repr`` as in
        ``json``, and each symbol's string literal comes from
        :func:`~repro.utils.payload.json_strings`, so a catalog's symbols
        are escaped once per process, not once per ranking.
        """
        scores = ",".join(map(_SCORE_JSON.__mod__, zip(
            self.coin_ids.tolist(), json_strings(self.symbols),
            self.probabilities.tolist())))
        return (f'{{"channel_id":{compact_json(self.channel_id)},'
                f'"exchange_id":{compact_json(self.exchange_id)},'
                f'"pump_time":{compact_json(self.pump_time)},'
                f'"scores":[{scores}]}}')

    @classmethod
    def from_payload(cls, payload: dict) -> "Ranking":
        """Decode :meth:`to_payload`, walking ``scores`` once into the
        columns.

        A malformed entry raises the ``ValueError`` the ``payload_*``
        readers word: a non-object entry, a missing field, a bool where a
        number belongs, a non-finite probability.  An integral float
        ``coin_id`` and an int ``probability`` are accepted.
        """
        if not isinstance(payload, dict):
            raise ValueError("ranking must be an object")
        channel_id = _payload_int(payload, "channel_id")
        exchange_id = _payload_int(payload, "exchange_id")
        pump_time = _payload_float(payload, "pump_time")
        coin_ids, symbols, probabilities = [], [], []
        for entry in _payload_list(payload, "scores"):
            try:
                coin_id, symbol, probability = _SCORE_FIELDS(entry)
            except (KeyError, TypeError):
                coin_id, symbol, probability = _score_entry(entry)
            else:
                # The exact types json.loads gives a well-formed entry; a
                # finite float is the one that survives ``p - p == 0``.
                if not (type(coin_id) is int and type(symbol) is str
                        and type(probability) is float
                        and probability - probability == 0.0):
                    coin_id, symbol, probability = _score_entry(entry)
            coin_ids.append(coin_id)
            symbols.append(symbol)
            probabilities.append(probability)
        try:
            coin_ids = np.array(coin_ids, dtype=np.int64)
        except OverflowError:
            raise ValueError("field 'coin_id' must be a 64-bit integer") \
                from None
        return cls(channel_id=channel_id, exchange_id=exchange_id,
                   pump_time=pump_time, coin_ids=coin_ids,
                   probabilities=np.array(probabilities, dtype=np.float64),
                   symbols=symbols)


#: One score of :meth:`Ranking.to_json`; ``%r`` of a finite float is what
#: ``json`` writes for it.
_SCORE_JSON = '{"coin_id":%d,"symbol":%s,"probability":%r}'

_SCORE_FIELDS = operator.itemgetter("coin_id", "symbol", "probability")


def _score_entry(entry) -> tuple[int, str, float]:
    """One ``scores`` entry through the strict readers (exact messages)."""
    if not isinstance(entry, dict):
        raise ValueError("score entry must be an object")
    return (_payload_int(entry, "coin_id"), _payload_str(entry, "symbol"),
            _payload_float(entry, "probability"))


class TargetCoinPredictor:
    """Rank listed coins for an announced pump event.

    Parameters
    ----------
    source:
        The data backend (market/universe oracle) used to compute features.
    dataset:
        The extracted P&D dataset (provides the channel vocabulary,
        per-channel pump histories and the train split for feature
        standardization), or just its
        :class:`~repro.data.dataset.ServingSlice` when ``scalers`` are
        given — what a predictor bound from an artifact holds.
    model:
        A trained deep ranker (SNN or any Table 5 competitor).
    assembler:
        The fitted :class:`FeatureAssembler`; rebuilt if omitted.
    scalers:
        Pre-fitted ``(numeric_scaler, seq_scaler)`` pair, e.g. restored
        from a :mod:`repro.registry` artifact; fitted on the dataset's
        train split when omitted.
    """

    def __init__(self, source: DataSource,
                 dataset: TargetCoinDataset | ServingSlice, model: Module,
                 assembler: FeatureAssembler | None = None,
                 scalers: tuple[StandardScaler, StandardScaler] | None = None):
        self.source = source
        self.dataset = dataset
        self.model = model
        self.assembler = assembler or FeatureAssembler(source, dataset)
        self._channel_index = self.assembler.channel_index
        # The catalog's symbols as an array, so a ranking takes its
        # symbols in rank order with one fancy index.
        self._symbols = np.asarray(source.coins.symbols, dtype=object)
        # Training provenance carried into saved artifacts (set by
        # train_predictor / from_artifact; stays empty for ad-hoc builds).
        self.provenance: dict = {}
        # Shared with the assembler: encodings computed during assembly are
        # reused by scaler fitting and by offline and serving ranks (and
        # vice versa).
        self._sequence_cache = self.assembler.sequence_cache
        if scalers is not None:
            self._numeric_scaler, self._seq_scaler = scalers
        else:
            self._numeric_scaler = StandardScaler()
            self._seq_scaler = StandardScaler()
            self._fit_scalers()

    def _fit_scalers(self) -> None:
        """Fit feature scalers on raw train-split features.

        Rows of one ranking list share channel and time, and a candidate
        row does not depend on its batch-mates, so each sampled list's
        rows come from one :meth:`FeatureAssembler.candidate_block` and
        go back to their sample positions: the scaler sees the rows in
        sample order, as if computed one at a time.
        """
        train_rows = [e for e in self.dataset.examples if e.split == "train"]
        if not train_rows:
            raise ValueError("dataset has no training rows")
        rng = np.random.default_rng(0)
        sample = rng.choice(len(train_rows), size=min(2000, len(train_rows)),
                            replace=False)
        # Sample positions per list, lists in first-appearance order.
        lists: dict[int, list[int]] = {}
        for position, idx in enumerate(sample):
            lists.setdefault(train_rows[int(idx)].list_id, []).append(position)
        numeric_blocks = []
        seq_blocks = []
        for positions in lists.values():
            examples = [train_rows[int(sample[p])] for p in positions]
            first = examples[0]
            coins = np.array([e.coin_id for e in examples])
            numeric_blocks.append(self.assembler.numeric_rows(
                first.channel_id,
                self.assembler.candidate_block(coins, first.time),
            ))
            seq = self._sequence_cache.get(first.channel_id, first.time)
            if seq.mask.sum():
                seq_blocks.append(seq.numeric[seq.mask > 0])
        stacked = np.vstack(numeric_blocks)
        numeric = np.empty_like(stacked)
        numeric[np.concatenate(list(lists.values()))] = stacked
        self._numeric_scaler.fit(numeric)
        if seq_blocks:
            self._seq_scaler.fit(np.vstack(seq_blocks))
        else:
            from repro.features.sequence import SEQUENCE_NUMERIC_NAMES

            self._seq_scaler.fit(np.zeros((2, len(SEQUENCE_NUMERIC_NAMES))))

    def coin_market_block(self, exchange_id: int, coins: np.ndarray,
                          time: float) -> np.ndarray:
        """Raw channel-independent features for candidates: the
        assembler's :meth:`~FeatureAssembler.candidate_block`, so served
        rows are the rows offline assembly built.

        Channel-independent, so a serving layer can memoize it per
        (exchange, time) and share it across concurrent announcements.
        """
        return self.assembler.candidate_block(coins, time)

    # -- artifact lifecycle (see repro.registry) -----------------------------

    def to_artifact(self, provenance: dict | None = None):
        """Snapshot this predictor into a servable, saveable bundle.

        Returns a :class:`repro.registry.PredictorArtifact`; call its
        ``save(path)`` (or :func:`repro.registry.save_artifact`) to
        persist it.
        """
        from repro.registry import PredictorArtifact

        return PredictorArtifact.from_predictor(self, provenance=provenance)

    @classmethod
    def from_artifact(cls, artifact, source,
                      dataset: TargetCoinDataset | None = None
                      ) -> "TargetCoinPredictor":
        """Reconstruct a predictor from an artifact — no training involved.

        ``artifact`` is a :class:`repro.registry.PredictorArtifact` or a
        path to a saved artifact directory; ``source`` is the data backend
        (which need not be the backend the model was trained on, as long
        as it describes the same channel/coin universe).  Without
        ``dataset`` the predictor ranks from the artifact's serving slice
        (see :meth:`repro.registry.PredictorArtifact.to_predictor`).
        """
        from repro.registry import PredictorArtifact

        if not isinstance(artifact, PredictorArtifact):
            artifact = PredictorArtifact.load(artifact)
        return artifact.to_predictor(source, dataset)

    def candidates(self, exchange_id: int, pump_time: float) -> np.ndarray:
        """Eligible coins: listed on the exchange, not a pairing major."""
        return pump_candidates(self.source.coins, exchange_id, pump_time)

    def knows_channel(self, channel_id: int) -> bool:
        """True when the channel was part of the training universe."""
        return channel_id in self._channel_index

    def rank(self, channel_id: int, exchange_id: int,
             pump_time: float) -> Ranking:
        """Score every candidate coin for one announced pump."""
        return self.rank_many(
            [RankRequest(channel_id, exchange_id, pump_time)]
        )[0]

    def rank_many(self, requests: Sequence[RankRequest], *,
                  features_fn: FeaturesFn | None = None,
                  history_fn: HistoryFn | None = None) -> list[Ranking]:
        """Score several announcements in one model forward pass.

        All candidate rows are concatenated into a single :class:`Batch`, so
        N concurrent announcements cost one pass instead of N.  The batch
        carries each request's pump history once, and the model encodes
        it once for all of that request's candidates.  The model is
        row-independent (no batch-coupled layers), hence per-row scores
        match :meth:`rank` on each request individually.

        ``features_fn`` / ``history_fn`` override the default raw-feature and
        pump-history lookups (see :data:`FeaturesFn`, :data:`HistoryFn`) —
        the hooks a serving cache plugs into.  Either way the history is
        encoded through the content-keyed sequence cache.
        """
        if not requests:
            return []
        seq_len = self.assembler.sequence_length
        if history_fn is None:
            def history_fn(channel_id, time):
                return self.dataset.history_before(channel_id, time, seq_len)
        rankings: list[Ranking | None] = [None] * len(requests)
        # Requests whose candidate set turned out non-empty, in batch order.
        scored_indices: list[int] = []
        per_request_coins: list[np.ndarray] = []
        numeric_blocks: list[np.ndarray] = []
        channel_rows: list[np.ndarray] = []
        histories: list[SequenceFeatures] = []
        for index, request in enumerate(requests):
            if request.channel_id not in self._channel_index:
                raise KeyError(
                    f"channel {request.channel_id} unseen during training"
                )
            coins = request.candidates
            if coins is None:
                coins = self.candidates(request.exchange_id, request.pump_time)
            if len(coins) == 0:
                # Nothing listed (yet) for this announcement: an empty
                # ranking, not an exception and not a model invocation —
                # an always-on serving loop must outlive it.
                rankings[index] = Ranking(
                    channel_id=request.channel_id,
                    exchange_id=request.exchange_id,
                    pump_time=request.pump_time,
                    coin_ids=(), probabilities=(), symbols=(),
                )
                continue
            scored_indices.append(index)
            if features_fn is not None:
                block = features_fn(request.exchange_id, coins,
                                    request.pump_time)
            else:
                block = self.coin_market_block(request.exchange_id, coins,
                                                request.pump_time)
            numeric_blocks.append(self._numeric_scaler.transform(
                self.assembler.numeric_rows(request.channel_id, block)
            ))
            histories.append(self._sequence_cache.encode(
                history_fn(request.channel_id, request.pump_time),
                encode_history,
            ))
            per_request_coins.append(coins)
            channel_rows.append(
                np.full(len(coins), self._channel_index[request.channel_id])
            )
        if not per_request_coins:
            return rankings
        total = sum(len(c) for c in per_request_coins)
        # A lone candidate or a lone history would hit BLAS gemv kernels
        # (see Batch.pad_singletons); the demux below reads only the first
        # ``total`` probabilities, so the padding is never surfaced.
        batch = Batch(
            channel_idx=np.concatenate(channel_rows),
            coin_idx=np.concatenate(per_request_coins),
            numeric=np.vstack(numeric_blocks),
            seq_coin_idx=np.stack([seq.coin_ids for seq in histories]),
            seq_numeric=np.stack([
                self._seq_scaler.transform(seq.numeric) * seq.mask[:, None]
                for seq in histories
            ]),
            seq_mask=np.stack([seq.mask for seq in histories]),
            label=np.zeros(total),
            seq_index=np.repeat(np.arange(len(histories)),
                                [len(c) for c in per_request_coins]),
        ).pad_singletons()
        self.model.eval()
        # One traced plan (shared with batch evaluation and the streaming
        # service) scores the whole micro-batch; eager is the fallback.
        with span("nn.forward", rows=total, histories=len(histories),
                  model=type(self.model).__name__) as forward:
            logits = run_compiled(self.model, batch)
            if logits is None:
                forward.set("compiled", False)
                with no_grad():
                    logits = self.model(batch).numpy()
        probs = stable_sigmoid(logits)
        offset = 0
        for index, coins in zip(scored_indices, per_request_coins):
            request = requests[index]
            slice_probs = probs[offset:offset + len(coins)]
            offset += len(coins)
            order = np.argsort(-slice_probs)
            ranked = coins[order]
            rankings[index] = Ranking(
                channel_id=request.channel_id,
                exchange_id=request.exchange_id,
                pump_time=request.pump_time,
                coin_ids=ranked,
                probabilities=slice_probs[order],
                symbols=self._symbols[ranked].tolist(),
            )
        return rankings
