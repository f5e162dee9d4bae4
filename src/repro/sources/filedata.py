"""FileDatasetSource — recorded CSV/JSONL dumps as a data backend.

Loads the canonical dump layout (produced by ``repro ingest``, see
:mod:`repro.sources.ingest`)::

    <dump>/
        meta.json          # schema marker + dataset-construction knobs
        coins.csv          # coin_id,symbol,market_cap,alexa_rank,
                           #   reddit_subscribers,twitter_followers
                           #   [,typical_trade_size]
        candles.csv[.gz]   # symbol,hour,close,volume  (hourly, sorted)
        listings.csv       # exchange_id,symbol,listed_from_hour
        channels.csv       # channel_id,subscribers,kind,is_seed,is_dead
        messages.jsonl[.gz]# {"message_id","channel_id","time","text","kind"}

Every structural problem — a missing column, unsorted timestamps, an
unknown coin symbol, a candle query outside the recorded grid — raises
:class:`~repro.sources.base.SourceDataError` with a pointed diagnostic.
The loader never guesses: wrong features are strictly worse than no
features.

Market semantics: prices and volumes are hourly candles, so a query at a
fractional hour ``t`` answers with the candle of ``floor(t)`` (the hour
bar containing ``t``).  The synthetic backend interpolates inside the
hour; recorded data cannot, and the difference is part of the backend
contract, not a bug.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import json
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.sources.base import DataSource, SourceDataError
from repro.types import ALL_KINDS, Message

META_NAME = "meta.json"
COINS_NAME = "coins.csv"
CANDLES_NAME = "candles.csv"
LISTINGS_NAME = "listings.csv"
CHANNELS_NAME = "channels.csv"
MESSAGES_NAME = "messages.jsonl"

DUMP_KIND = "repro/source-dump"
DUMP_SCHEMA_VERSION = 1

COIN_COLUMNS = ("coin_id", "symbol", "market_cap", "alexa_rank",
                "reddit_subscribers", "twitter_followers")
CANDLE_COLUMNS = ("symbol", "hour", "close", "volume")
LISTING_COLUMNS = ("exchange_id", "symbol", "listed_from_hour")
CHANNEL_COLUMNS = ("channel_id", "subscribers", "kind", "is_seed", "is_dead")

# Per-coin typical trade size fallback divisor (mirrors the simulator's
# trade-count proxy: typical trade ≈ mean hourly volume / 180).
_TRADE_SIZE_DIVISOR = 180.0


def resolve_file(root: Path, name: str) -> Path:
    """Resolve a dump file, allowing a transparent ``.gz`` variant."""
    plain = root / name
    if plain.is_file():
        return plain
    gz = root / (name + ".gz")
    if gz.is_file():
        return gz
    raise SourceDataError(
        f"dump {root} is missing {name} (or {name}.gz)"
    )


def _open_text(path: Path):
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def _count_rows(path: Path, n: int) -> None:
    """Record ``n`` ingested rows under the file's table name.

    The label is the canonical table stem (``coins``, ``candles``, ...)
    so plain and ``.gz`` variants land in the same series.
    """
    from repro.telemetry import default_registry

    table = path.name[:-3] if path.name.endswith(".gz") else path.name
    table = table.rsplit(".", 1)[0]
    default_registry().counter(
        "source_rows_total", "Rows read from source dump tables.", ("table",),
    ).labels(table=table).inc(n)


def read_csv_table(path: Path, required: Sequence[str]) -> list[dict]:
    """Read a CSV into dict rows, checking the required header columns.

    Shared by the canonical loaders and raw ingestion so the column
    diagnostics stay in one place.
    """
    path = Path(path)
    if not path.is_file():
        raise SourceDataError(f"input {path} does not exist")
    with _open_text(path) as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        missing = [c for c in required if c not in header]
        if missing:
            raise SourceDataError(
                f"{path} is missing required column(s) {missing}; "
                f"found {list(header)}"
            )
        rows = list(reader)
    _count_rows(path, len(rows))
    return rows


_read_csv = read_csv_table


def parse_message_record(path: Path, line_no: int, line: str) -> dict:
    """Decode one ``messages.jsonl`` line and check its required fields.

    Shared by the canonical loader and raw ingestion; kind handling
    (defaulting, ``is_pump`` mapping) stays with each caller.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise SourceDataError(
            f"{path} line {line_no}: invalid JSON ({exc})"
        ) from exc
    missing = [k for k in ("channel_id", "time", "text") if k not in record]
    if missing:
        raise SourceDataError(
            f"{path} line {line_no}: missing field(s) {missing}"
        )
    # Coerce the numeric fields here so both loaders surface bad values as
    # SourceDataError diagnostics, never bare ValueError tracebacks.
    try:
        record["channel_id"] = int(record["channel_id"])
        record["time"] = float(record["time"])
        if "message_id" in record:
            record["message_id"] = int(record["message_id"])
    except (TypeError, ValueError) as exc:
        raise SourceDataError(
            f"{path} line {line_no}: channel_id/time/message_id must be "
            f"numeric ({exc})"
        ) from exc
    return record


def check_sampling_limits(sequence_length: int,
                          max_negatives_per_event: int) -> None:
    """Refuse ``meta.json`` sampling values no dataset can be built from.

    Shared by the loader and raw ingestion, so a dump that would crash
    every later ``train``/``serve`` is never written and never loaded.
    ``max_negatives_per_event`` 0 is valid: it means no cap.
    """
    if sequence_length < 1:
        raise SourceDataError(
            f"sequence_length must be >= 1 (got {sequence_length})"
        )
    if max_negatives_per_event < 0:
        raise SourceDataError(
            f"max_negatives_per_event must be >= 0, 0 meaning no cap "
            f"(got {max_negatives_per_event})"
        )


def _parse_float(path: Path, row_no: int, column: str, raw: str) -> float:
    try:
        return float(raw)
    except (TypeError, ValueError) as exc:
        raise SourceDataError(
            f"{path} row {row_no}: column {column!r} is not a number "
            f"({raw!r})"
        ) from exc


def _parse_int(path: Path, row_no: int, column: str, raw: str) -> int:
    try:
        return int(float(raw))
    except (TypeError, ValueError) as exc:
        raise SourceDataError(
            f"{path} row {row_no}: column {column!r} is not an integer "
            f"({raw!r})"
        ) from exc


class FileCoinCatalog:
    """Coin identity + stable statistics backed by ``coins.csv``."""

    def __init__(self, path: Path, n_exchanges: int):
        rows = _read_csv(path, COIN_COLUMNS)
        if not rows:
            raise SourceDataError(f"{path} holds no coins")
        n = len(rows)
        self.symbols: list[str] = [""] * n
        self.market_cap = np.zeros(n)
        self.alexa_rank = np.zeros(n)
        self.reddit_subscribers = np.zeros(n)
        self.twitter_followers = np.zeros(n)
        self.typical_trade_size: np.ndarray | None = None
        has_trade_size = "typical_trade_size" in rows[0]
        trade_size = np.zeros(n) if has_trade_size else None
        seen_ids: set[int] = set()
        seen_symbols: set[str] = set()
        for row_no, row in enumerate(rows, start=2):
            coin_id = _parse_int(path, row_no, "coin_id", row["coin_id"])
            if coin_id in seen_ids:
                raise SourceDataError(
                    f"{path} row {row_no}: duplicate coin_id {coin_id}"
                )
            if not 0 <= coin_id < n:
                raise SourceDataError(
                    f"{path} row {row_no}: coin_id {coin_id} out of range; "
                    f"ids must be contiguous 0..{n - 1} "
                    "(run `repro ingest` to canonicalize a raw dump)"
                )
            symbol = (row["symbol"] or "").strip()
            if not symbol:
                raise SourceDataError(f"{path} row {row_no}: empty symbol")
            if symbol in seen_symbols:
                raise SourceDataError(
                    f"{path} row {row_no}: duplicate symbol {symbol!r}"
                )
            seen_ids.add(coin_id)
            seen_symbols.add(symbol)
            self.symbols[coin_id] = symbol
            cap = _parse_float(path, row_no, "market_cap", row["market_cap"])
            alexa = _parse_float(path, row_no, "alexa_rank", row["alexa_rank"])
            if cap <= 0 or alexa <= 0:
                raise SourceDataError(
                    f"{path} row {row_no}: market_cap and alexa_rank must be "
                    f"positive (features take their logs); got {cap}, {alexa}"
                )
            self.market_cap[coin_id] = cap
            self.alexa_rank[coin_id] = alexa
            self.reddit_subscribers[coin_id] = _parse_float(
                path, row_no, "reddit_subscribers", row["reddit_subscribers"]
            )
            self.twitter_followers[coin_id] = _parse_float(
                path, row_no, "twitter_followers", row["twitter_followers"]
            )
            if trade_size is not None:
                trade_size[coin_id] = _parse_float(
                    path, row_no, "typical_trade_size",
                    row["typical_trade_size"]
                )
        if trade_size is not None:
            self.typical_trade_size = trade_size
        # Listing matrix filled by the source after listings.csv is read.
        self.listing_hour = np.full((n_exchanges, n), -1.0)

    @property
    def n_coins(self) -> int:
        return len(self.symbols)

    def listed_coins(self, exchange_id: int, hour: float) -> np.ndarray:
        hours = self.listing_hour[exchange_id]
        return np.flatnonzero((hours >= 0) & (hours <= hour))

    def is_listed(self, coin_id: int, exchange_id: int, hour: float) -> bool:
        listed_at = self.listing_hour[exchange_id, coin_id]
        return bool(listed_at >= 0 and listed_at <= hour)

    def symbol_to_id(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.symbols)}


class FileMarketData:
    """Hourly candle grid satisfying the :class:`MarketDataSource` protocol.

    Internally a ``(n_coins, n_recorded_hours)`` dense grid over the sorted
    union of recorded hours, with NaN marking (coin, hour) cells the dump
    does not cover — a query touching such a cell raises
    :class:`SourceDataError` instead of fabricating a price.
    """

    def __init__(self, universe: FileCoinCatalog, path: Path):
        self.universe = universe
        self._path = path
        rows = _read_csv(path, CANDLE_COLUMNS)
        if not rows:
            raise SourceDataError(f"{path} holds no candles")
        symbol_map = universe.symbol_to_id()
        n_rows = len(rows)
        coin_ids = np.empty(n_rows, dtype=np.int64)
        hours = np.empty(n_rows, dtype=np.int64)
        closes = np.empty(n_rows)
        volumes = np.empty(n_rows)
        last_seen: dict[int, int] = {}
        for i, row in enumerate(rows):
            row_no = i + 2
            symbol = (row["symbol"] or "").strip()
            coin_id = symbol_map.get(symbol)
            if coin_id is None:
                raise SourceDataError(
                    f"{path} row {row_no}: unknown coin symbol {symbol!r} "
                    f"(not in {COINS_NAME})"
                )
            hour = _parse_int(path, row_no, "hour", row["hour"])
            prev = last_seen.get(coin_id)
            if prev is not None and hour <= prev:
                raise SourceDataError(
                    f"{path} row {row_no}: candles for {symbol!r} are not "
                    f"sorted by hour (hour {hour} after {prev}); run "
                    "`repro ingest` to canonicalize a raw dump"
                )
            last_seen[coin_id] = hour
            close = _parse_float(path, row_no, "close", row["close"])
            if close <= 0:
                raise SourceDataError(
                    f"{path} row {row_no}: close must be positive, got {close}"
                )
            volume = _parse_float(path, row_no, "volume", row["volume"])
            if volume < 0:
                raise SourceDataError(
                    f"{path} row {row_no}: volume must be non-negative, "
                    f"got {volume}"
                )
            coin_ids[i] = coin_id
            hours[i] = hour
            closes[i] = close
            volumes[i] = volume
        self._hours = np.unique(hours)
        n_coins = universe.n_coins
        columns = np.searchsorted(self._hours, hours)
        self._log_close = np.full((n_coins, len(self._hours)), np.nan)
        self._volume = np.full((n_coins, len(self._hours)), np.nan)
        self._log_close[coin_ids, columns] = np.log(closes)
        self._volume[coin_ids, columns] = volumes
        if universe.typical_trade_size is not None:
            self._trade_size = universe.typical_trade_size.astype(float)
        else:
            # Derive per-coin typical trade sizes from the recorded volumes
            # (coins without candles fall back to the global mean).
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                mean_volume = np.nanmean(self._volume, axis=1)
                overall = np.nanmean(mean_volume)
            if np.isnan(overall):
                overall = 1.0
            mean_volume = np.where(np.isnan(mean_volume), overall, mean_volume)
            self._trade_size = mean_volume / _TRADE_SIZE_DIVISOR

    # -- grid lookup ----------------------------------------------------------

    @property
    def hour_range(self) -> tuple[int, int]:
        """(first, last) recorded hour."""
        return int(self._hours[0]), int(self._hours[-1])

    def _coin_index(self, coin_ids) -> np.ndarray:
        """``coin_ids`` as int64, refusing ids outside the catalog."""
        coin_ids = np.asarray(coin_ids, dtype=np.int64)
        n = self.universe.n_coins
        if coin_ids.size and (coin_ids.min() < 0 or coin_ids.max() >= n):
            raise SourceDataError(
                f"candle query references coin ids outside the catalog "
                f"(0..{n - 1})"
            )
        return coin_ids

    def _lookup(self, grid: np.ndarray, coin_ids, hours,
                what: str) -> np.ndarray:
        coin_ids = self._coin_index(coin_ids)
        hours = np.asarray(hours, dtype=float)
        coin_ids, hours = np.broadcast_arrays(coin_ids, hours)
        flat_coins = coin_ids.reshape(-1)
        hour_idx = np.floor(hours).astype(np.int64).reshape(-1)
        columns = np.searchsorted(self._hours, hour_idx)
        in_range = columns < len(self._hours)
        matched = np.zeros(len(hour_idx), dtype=bool)
        matched[in_range] = self._hours[columns[in_range]] == hour_idx[in_range]
        values = np.full(len(hour_idx), np.nan)
        values[matched] = grid[flat_coins[matched], columns[matched]]
        bad = np.flatnonzero(~matched | np.isnan(values))
        if len(bad):
            examples = ", ".join(
                f"({self.universe.symbols[flat_coins[i]]}, hour {hour_idx[i]})"
                for i in bad[:4]
            )
            lo, hi = self.hour_range
            raise SourceDataError(
                f"{self._path}: no {what} candle recorded for {len(bad)} "
                f"queried (coin, hour) cell(s), e.g. {examples}; the dump "
                f"covers hours [{lo}, {hi}] with gaps — re-ingest with wider "
                "coverage instead of serving wrong features"
            )
        return values.reshape(coin_ids.shape)

    def require_window(self, coin_ids: np.ndarray, window_hours: np.ndarray,
                       context: str) -> None:
        """Assert every (coin, hour) cell of a window is recorded.

        Raises :class:`SourceDataError` naming the uncovered window —
        the up-front form of the per-query diagnostic in :meth:`_lookup`,
        used to reject dumps that cannot support signal lookbacks before
        any score is computed.
        """
        coin_ids = np.asarray(coin_ids, dtype=np.int64)
        window_hours = np.asarray(window_hours, dtype=np.int64)
        lo, hi = int(window_hours[0]), int(window_hours[-1])
        columns = np.searchsorted(self._hours, window_hours)
        in_range = columns < len(self._hours)
        matched = np.zeros(len(window_hours), dtype=bool)
        matched[in_range] = \
            self._hours[columns[in_range]] == window_hours[in_range]
        if not matched.all():
            missing = window_hours[~matched]
            rec_lo, rec_hi = self.hour_range
            raise SourceDataError(
                f"{self._path}: {context} window [{lo}, {hi}] is not "
                f"covered: {len(missing)} hour(s) unrecorded (first: hour "
                f"{int(missing[0])}); the dump covers hours "
                f"[{rec_lo}, {rec_hi}] — re-ingest with wider coverage"
            )
        cells = self._log_close[np.ix_(coin_ids, columns)]
        gaps = np.isnan(cells) | np.isnan(self._volume[np.ix_(coin_ids,
                                                              columns)])
        if gaps.any():
            row, col = np.nonzero(gaps)
            examples = ", ".join(
                f"({self.universe.symbols[coin_ids[r]]}, hour "
                f"{int(window_hours[c])})"
                for r, c in list(zip(row, col))[:4]
            )
            raise SourceDataError(
                f"{self._path}: {context} window [{lo}, {hi}] has "
                f"{int(gaps.sum())} uncovered (coin, hour) cell(s), e.g. "
                f"{examples} — re-ingest with wider coverage"
            )

    # -- MarketDataSource protocol -------------------------------------------

    def log_close(self, coin_ids, hours) -> np.ndarray:
        return self._lookup(self._log_close, coin_ids, hours, "close")

    def close_price(self, coin_ids, hours) -> np.ndarray:
        return np.exp(self.log_close(coin_ids, hours))

    def hourly_volume(self, coin_ids, hours) -> np.ndarray:
        return self._lookup(self._volume, coin_ids, hours, "volume")

    def window_volume_profile(self, coin_ids, pump_hour: float,
                              max_hours: int) -> np.ndarray:
        coin_ids = np.asarray(coin_ids, dtype=np.int64)
        offsets = np.arange(1, max_hours + 1, dtype=float)
        grid_hours = pump_hour - offsets
        return self.hourly_volume(
            coin_ids[:, None],
            np.broadcast_to(grid_hours, (len(coin_ids), max_hours)),
        )

    def typical_trade_size(self, coin_ids) -> np.ndarray:
        return self._trade_size[self._coin_index(coin_ids)]

    def trade_count_from_volume(self, volume: np.ndarray,
                                coin_ids) -> np.ndarray:
        return volume / np.maximum(self.typical_trade_size(coin_ids), 1e-12)


class FileChannelDirectory:
    """Channel roster backed by ``channels.csv``."""

    def __init__(self, path: Path):
        rows = _read_csv(path, CHANNEL_COLUMNS)
        self._all: list[int] = []
        self._seeds: list[int] = []
        self._dead: set[int] = set()
        self._subscribers: dict[int, int] = {}
        seen: set[int] = set()
        for row_no, row in enumerate(rows, start=2):
            channel_id = _parse_int(path, row_no, "channel_id",
                                    row["channel_id"])
            if channel_id in seen:
                raise SourceDataError(
                    f"{path} row {row_no}: duplicate channel_id {channel_id}"
                )
            seen.add(channel_id)
            self._all.append(channel_id)
            if _parse_int(path, row_no, "is_seed", row["is_seed"]):
                self._seeds.append(channel_id)
            if _parse_int(path, row_no, "is_dead", row["is_dead"]):
                self._dead.add(channel_id)
            kind = (row["kind"] or "").strip() or "pump"
            if kind == "pump":
                self._subscribers[channel_id] = _parse_int(
                    path, row_no, "subscribers", row["subscribers"]
                )

    def all_channel_ids(self) -> list[int]:
        return list(self._all)

    def seed_channel_ids(self) -> list[int]:
        return list(self._seeds)

    def dead_channel_ids(self) -> set[int]:
        return set(self._dead)

    def subscriber_counts(self) -> dict[int, int]:
        return dict(self._subscribers)


def _load_messages(path: Path) -> list[Message]:
    messages: list[Message] = []
    last_time: float | None = None
    with _open_text(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            record = parse_message_record(path, line_no, line)
            time = record["time"]
            if last_time is not None and time < last_time:
                raise SourceDataError(
                    f"{path} line {line_no}: messages are not sorted by "
                    f"time ({time} after {last_time}); run `repro ingest` "
                    "to canonicalize a raw dump"
                )
            last_time = time
            kind = record.get("kind", "generic")
            if kind not in ALL_KINDS:
                raise SourceDataError(
                    f"{path} line {line_no}: unknown message kind {kind!r} "
                    f"(expected one of {sorted(ALL_KINDS)})"
                )
            messages.append(Message(
                message_id=int(record.get("message_id", line_no)),
                channel_id=int(record["channel_id"]),
                time=time,
                text=str(record["text"]),
                kind=kind,
            ))
    _count_rows(path, len(messages))
    return messages


class FileDatasetSource(DataSource):
    """A complete data backend over a recorded dump directory."""

    kind = "file"

    def __init__(self, path: str | Path):
        self.path = Path(path)
        if not self.path.is_dir():
            raise SourceDataError(
                f"{self.path} is not a dump directory; produce one with "
                "`repro ingest`"
            )
        meta = self._read_meta()
        try:
            self.seed = int(meta["seed"])
            self.sequence_length = int(meta["sequence_length"])
            self.max_negatives_per_event = int(meta["max_negatives_per_event"])
            self.n_exchanges = int(meta["n_exchanges"])
        except (TypeError, ValueError) as exc:
            raise SourceDataError(
                f"{self.path / META_NAME}: numeric field is malformed ({exc})"
            ) from exc
        try:
            check_sampling_limits(self.sequence_length,
                                  self.max_negatives_per_event)
        except SourceDataError as exc:
            raise SourceDataError(f"{self.path / META_NAME}: {exc}") from None
        self.exchange_names = list(meta["exchange_names"])
        if len(self.exchange_names) < self.n_exchanges:
            raise SourceDataError(
                f"{self.path / META_NAME}: exchange_names lists "
                f"{len(self.exchange_names)} names but n_exchanges="
                f"{self.n_exchanges}"
            )
        # Never advertise names beyond the listing matrix: the serving
        # sessionizer maps names to exchange ids, and an id with no
        # listings row would crash candidate lookup instead of skipping.
        self.exchange_names = self.exchange_names[: self.n_exchanges]
        self.meta = meta
        self.coins = FileCoinCatalog(
            resolve_file(self.path, COINS_NAME), self.n_exchanges
        )
        self._load_listings()
        self.market = FileMarketData(
            self.coins, resolve_file(self.path, CANDLES_NAME)
        )
        self.channels = FileChannelDirectory(
            resolve_file(self.path, CHANNELS_NAME)
        )
        self._messages = _load_messages(
            resolve_file(self.path, MESSAGES_NAME)
        )
        self._fingerprint: str | None = None

    def _read_meta(self) -> dict:
        meta_path = self.path / META_NAME
        if not meta_path.is_file():
            raise SourceDataError(
                f"{self.path} is missing {META_NAME}; not a repro dump"
            )
        try:
            meta = json.loads(meta_path.read_text())
        except json.JSONDecodeError as exc:
            raise SourceDataError(
                f"{meta_path} is not valid JSON: {exc}"
            ) from exc
        if not isinstance(meta, dict) or meta.get("kind") != DUMP_KIND:
            raise SourceDataError(
                f"{meta_path} is not a {DUMP_KIND} manifest"
            )
        if meta.get("schema_version") != DUMP_SCHEMA_VERSION:
            raise SourceDataError(
                f"{meta_path}: dump schema v{meta.get('schema_version')} is "
                f"not loadable (supports v{DUMP_SCHEMA_VERSION}); re-run "
                "`repro ingest`"
            )
        missing = [k for k in ("seed", "sequence_length",
                               "max_negatives_per_event", "n_exchanges",
                               "exchange_names") if k not in meta]
        if missing:
            raise SourceDataError(
                f"{meta_path} is missing field(s) {missing}"
            )
        return meta

    def _load_listings(self) -> None:
        path = resolve_file(self.path, LISTINGS_NAME)
        rows = _read_csv(path, LISTING_COLUMNS)
        symbol_map = self.coins.symbol_to_id()
        for row_no, row in enumerate(rows, start=2):
            exchange_id = _parse_int(path, row_no, "exchange_id",
                                     row["exchange_id"])
            if not 0 <= exchange_id < self.n_exchanges:
                raise SourceDataError(
                    f"{path} row {row_no}: exchange_id {exchange_id} out of "
                    f"range 0..{self.n_exchanges - 1}"
                )
            symbol = (row["symbol"] or "").strip()
            coin_id = symbol_map.get(symbol)
            if coin_id is None:
                raise SourceDataError(
                    f"{path} row {row_no}: unknown coin symbol {symbol!r} "
                    f"(not in {COINS_NAME})"
                )
            self.coins.listing_hour[exchange_id, coin_id] = _parse_float(
                path, row_no, "listed_from_hour", row["listed_from_hour"]
            )

    # -- DataSource interface -------------------------------------------------

    def messages(self) -> Sequence[Message]:
        return self._messages

    def validate_signal_coverage(self, times: Sequence[float] | None = None,
                                 lookback_hours: int | None = None) -> int:
        """Check candle coverage for every signal lookback window up front.

        Signals are only ever evaluated at announcement times — the
        detected release messages with a parseable symbol (the same set
        ``repro ingest`` budgets candle coverage for).  For each such
        time the ``lookback_hours`` integer hours ending at
        ``floor(t) - 1`` must be recorded for every listed tradable
        coin.  Raises :class:`SourceDataError` naming the first
        uncovered window, so a dump with holes fails at
        :class:`~repro.signals.SignalEngine` construction instead of
        producing NaN scores mid-serve.

        Returns the number of distinct anchor windows checked.
        """
        from repro.markets import PAIR_SYMBOLS

        if lookback_hours is None:
            from repro.signals.base import SIGNAL_LOOKBACK_HOURS

            lookback_hours = SIGNAL_LOOKBACK_HOURS
        if times is None:
            # Mirror ingest's coverage budget (`_needed_hours`): re-run the
            # §3 pipeline and take sample times plus detected release
            # messages with a resolvable symbol.
            from repro.data.pipeline import collect
            from repro.data.sessions import parse_release_symbol

            collection = collect(self)
            symbol_map = self.coins.symbol_to_id()
            needed = {s.time for s in collection.samples}
            needed |= {
                m.time for m in collection.detection.detected
                if parse_release_symbol(m.text, symbol_map) is not None
            }
            times = sorted(needed)
        listing = self.coins.listing_hour
        checked: set[int] = set()
        for time in sorted({float(t) for t in times}):
            anchor = int(np.floor(time)) - 1
            if anchor in checked:
                continue
            checked.add(anchor)
            window = np.arange(anchor - lookback_hours + 1, anchor + 1,
                               dtype=np.int64)
            listed = np.flatnonzero(
                ((listing >= 0) & (listing <= time)).any(axis=0)
            )
            listed = listed[listed >= len(PAIR_SYMBOLS)]
            if len(listed) == 0:
                continue
            self.market.require_window(
                listed, window,
                f"signal lookback (announcement at t={time:.2f})",
            )
        return len(checked)

    def fingerprint(self) -> str:
        if self._fingerprint is None:
            digest = hashlib.sha256()
            for name in (META_NAME, COINS_NAME, CANDLES_NAME, LISTINGS_NAME,
                         CHANNELS_NAME, MESSAGES_NAME):
                file_path = resolve_file(self.path, name)
                digest.update(name.encode())
                digest.update(file_path.read_bytes())
            self._fingerprint = f"file:{digest.hexdigest()[:16]}"
        return self._fingerprint

    def descriptor(self) -> dict:
        return {
            "backend": self.kind,
            "fingerprint": self.fingerprint(),
            "path": str(self.path),
            "n_coins": self.coins.n_coins,
            "n_channels": len(self.channels.all_channel_ids()),
            "n_messages": len(self._messages),
        }
