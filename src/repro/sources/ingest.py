"""Dump ingestion — raw data → the canonical ``repro.sources`` layout.

Two entry points, both behind ``repro ingest``:

* :func:`export_synthetic_dump` replays a :class:`SyntheticWorld` into a
  canonical dump — the cheapest way to produce a real, file-backed
  dataset (and the backbone of the ``file-source-roundtrip`` CI job).
  By default only the candle hours the extracted P&D samples actually
  query are exported (``hours="needed"``), keeping dumps small; pass
  ``hours="all"`` for a full grid.
* :func:`ingest_raw` normalizes loosely-formatted recorded files
  (unsorted candles, symbol-keyed rows, missing optional tables) into the
  canonical layout, validating as it goes.

Both finish by loading the freshly written dump through
:class:`~repro.sources.filedata.FileDatasetSource`, so an ingest that
succeeds is a dump that serves.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.markets import EXCHANGE_NAMES
from repro.sources.base import SourceDataError
from repro.sources.filedata import (
    CANDLES_NAME,
    CHANNELS_NAME,
    COINS_NAME,
    DUMP_KIND,
    DUMP_SCHEMA_VERSION,
    LISTINGS_NAME,
    MESSAGES_NAME,
    META_NAME,
    FileDatasetSource,
    check_sampling_limits,
    parse_message_record,
    read_csv_table,
)
from repro.sources.synthetic import SyntheticWorldSource

# Candle hours exported around every sample time: features read back to
# t-73 (the 72h window ends one hour before the pump), stable stats to
# t-72, and serving's time bucketing can shift evaluation up to one hour
# earlier — 80 hours of margin covers all of it with headroom.
NEEDED_HOURS_MARGIN = 80


def _unlink_other_variant(plain: Path, compress: bool) -> None:
    """Remove the stale plain/.gz sibling before writing the other one.

    Re-ingesting into a previous dump with a different ``compress``
    setting must not leave the old variant behind —
    :func:`~repro.sources.filedata.resolve_file` prefers the plain file,
    so a stale one would silently shadow the fresh data.
    """
    stale = plain if compress else plain.with_name(plain.name + ".gz")
    stale.unlink(missing_ok=True)


def _write_csv(path: Path, header: Sequence[str],
               rows: Iterable[Sequence], compress: bool = False) -> Path:
    _unlink_other_variant(path, compress)
    if compress:
        path = path.with_name(path.name + ".gz")
        handle = gzip.open(path, "wt", encoding="utf-8", newline="")
    else:
        handle = open(path, "w", encoding="utf-8", newline="")
    with handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _write_jsonl(path: Path, records: Iterable[dict],
                 compress: bool = False) -> Path:
    _unlink_other_variant(path, compress)
    if compress:
        path = path.with_name(path.name + ".gz")
        handle = gzip.open(path, "wt", encoding="utf-8")
    else:
        handle = open(path, "w", encoding="utf-8")
    with handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def _write_meta(out_dir: Path, *, seed: int, sequence_length: int,
                max_negatives_per_event: int, n_exchanges: int,
                exchange_names: Sequence[str], origin: dict) -> None:
    meta = {
        "kind": DUMP_KIND,
        "schema_version": DUMP_SCHEMA_VERSION,
        "seed": int(seed),
        "sequence_length": int(sequence_length),
        "max_negatives_per_event": int(max_negatives_per_event),
        "n_exchanges": int(n_exchanges),
        "exchange_names": list(exchange_names),
        "origin": origin,
    }
    (out_dir / META_NAME).write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n"
    )


def _prepare_out_dir(out_dir: str | Path) -> Path:
    out_dir = Path(out_dir)
    if out_dir.is_file():
        raise SourceDataError(f"{out_dir} is an existing file, not a directory")
    if out_dir.is_dir() and any(out_dir.iterdir()) \
            and not (out_dir / META_NAME).is_file():
        raise SourceDataError(
            f"refusing to write into non-empty {out_dir}: it is not a "
            "previous dump — pick a fresh directory"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


# -- synthetic export ---------------------------------------------------------


def _needed_hours(source, collection, margin: int) -> np.ndarray:
    """The candle hours the extracted samples (and serving) will query."""
    from repro.data.sessions import parse_release_symbol

    symbol_map = source.coins.symbol_to_id()
    times = {s.time for s in collection.samples}
    times |= {
        m.time for m in collection.detection.detected
        if parse_release_symbol(m.text, symbol_map) is not None
    }
    hours: set[int] = set()
    for t in times:
        base = math.floor(t)
        hours.update(range(base - margin, base + 2))
    return np.array(sorted(hours), dtype=np.int64)


def export_synthetic_dump(world, out_dir: str | Path, *, collection=None,
                          hours: str = "needed",
                          margin: int = NEEDED_HOURS_MARGIN,
                          compress: bool = False) -> FileDatasetSource:
    """Replay a synthetic world into a canonical file dump.

    ``collection`` (a :class:`~repro.data.pipeline.CollectionResult`) is
    re-run when omitted; with ``hours="needed"`` it determines which candle
    hours must be exported.  The dump replays the *entire* message stream
    and channel roster, so a model trained from the dump sees the same
    channel universe as one trained on the world directly — which is what
    lets one artifact serve on either backend.
    """
    if hours not in ("needed", "all"):
        raise ValueError("hours must be 'needed' or 'all'")
    source = SyntheticWorldSource(world)
    out_dir = _prepare_out_dir(out_dir)
    if collection is None:
        from repro.data.pipeline import collect

        collection = collect(source)

    coins = source.coins
    market = source.market
    config = source.repro_config()

    # Coins that can ever appear in a feature row: listed anywhere, or
    # pumped in an extracted sample (histories encode them at pump time).
    listed_any = np.flatnonzero((coins.listing_hour >= 0).any(axis=0))
    coin_set = sorted(set(listed_any.tolist())
                      | {s.coin_id for s in collection.samples})
    coin_ids = np.array(coin_set, dtype=np.int64)

    if hours == "needed":
        hour_grid = _needed_hours(source, collection, margin)
    else:
        horizon = getattr(config, "horizon_hours", 0)
        hour_grid = np.arange(-margin, int(horizon) + 1, dtype=np.int64)

    # coins.csv — every coin, so the catalog is complete even where no
    # candles were exported (stable stats are independent of the grid).
    trade_size = market.typical_trade_size(np.arange(coins.n_coins))
    _write_csv(
        out_dir / COINS_NAME,
        ("coin_id", "symbol", "market_cap", "alexa_rank",
         "reddit_subscribers", "twitter_followers", "typical_trade_size"),
        (
            (c, coins.symbols[c], repr(float(coins.market_cap[c])),
             repr(float(coins.alexa_rank[c])),
             repr(float(coins.reddit_subscribers[c])),
             repr(float(coins.twitter_followers[c])),
             repr(float(trade_size[c])))
            for c in range(coins.n_coins)
        ),
    )

    # candles.csv — one batched market query per quantity.
    log_close = market.log_close(coin_ids[:, None],
                                 hour_grid[None, :].astype(float))
    volume = market.hourly_volume(coin_ids[:, None],
                                  hour_grid[None, :].astype(float))
    closes = np.exp(log_close)

    def candle_rows():
        for i, c in enumerate(coin_ids):
            symbol = coins.symbols[int(c)]
            for j, h in enumerate(hour_grid):
                yield (symbol, int(h), repr(float(closes[i, j])),
                       repr(float(volume[i, j])))

    _write_csv(out_dir / CANDLES_NAME, ("symbol", "hour", "close", "volume"),
               candle_rows(), compress=compress)

    # listings.csv — the full matrix, restricted to exported exchanges.
    def listing_rows():
        for e in range(source.n_exchanges):
            for c in np.flatnonzero(coins.listing_hour[e] >= 0):
                yield (e, coins.symbols[int(c)],
                       repr(float(coins.listing_hour[e, int(c)])))

    _write_csv(out_dir / LISTINGS_NAME, LISTING_HEADER, listing_rows())

    # channels.csv — the whole roster with liveness + seed flags.
    directory = source.channels
    seeds = set(directory.seed_channel_ids())
    dead = directory.dead_channel_ids()
    subscribers = directory.subscriber_counts()
    _write_csv(
        out_dir / CHANNELS_NAME,
        ("channel_id", "subscribers", "kind", "is_seed", "is_dead"),
        (
            (cid, subscribers.get(cid, 0),
             "pump" if cid in subscribers else "noise",
             int(cid in seeds), int(cid in dead))
            for cid in directory.all_channel_ids()
        ),
    )

    # messages.jsonl — canonical (time, channel_id, message_id) order.
    ordered = sorted(source.messages(),
                     key=lambda m: (m.time, m.channel_id, m.message_id))
    _write_jsonl(
        out_dir / MESSAGES_NAME,
        (
            {"message_id": m.message_id, "channel_id": m.channel_id,
             "time": m.time, "text": m.text, "kind": m.kind}
            for m in ordered
        ),
        compress=compress,
    )

    _write_meta(
        out_dir,
        seed=source.seed,
        sequence_length=source.sequence_length,
        max_negatives_per_event=source.max_negatives_per_event,
        n_exchanges=source.n_exchanges,
        exchange_names=source.exchange_names,
        origin=source.descriptor(),
    )
    # Self-check: an ingest that succeeds is a dump that loads.
    return FileDatasetSource(out_dir)


LISTING_HEADER = ("exchange_id", "symbol", "listed_from_hour")


# -- raw-file ingestion -------------------------------------------------------


def ingest_raw(out_dir: str | Path, *, messages: str | Path,
               candles: str | Path, coins: str | Path,
               channels: str | Path | None = None,
               listings: str | Path | None = None,
               seed: int = 0, sequence_length: int = 20,
               max_negatives_per_event: int = 80,
               exchange_names: Sequence[str] | None = None,
               compress: bool = False) -> FileDatasetSource:
    """Normalize raw recorded files into a canonical dump.

    Raw inputs may be unsorted and symbol-keyed; this pass sorts candles by
    ``(symbol, hour)``, messages by ``(time, channel_id, message_id)``,
    assigns contiguous coin ids in the coins file's row order, and fills
    the optional tables with documented defaults (every message channel
    becomes a live seed pump channel; every coin is listed on exchange 0
    from the first recorded candle hour).
    """
    check_sampling_limits(sequence_length, max_negatives_per_event)
    out_dir = _prepare_out_dir(out_dir)

    # Coins: contiguous ids in input order.
    coin_rows = read_csv_table(
        Path(coins),
        ("symbol", "market_cap", "alexa_rank", "reddit_subscribers",
         "twitter_followers"),
    )
    if not coin_rows:
        raise SourceDataError(f"{coins} holds no coins")
    symbols: list[str] = []
    seen: set[str] = set()
    for row in coin_rows:
        symbol = (row["symbol"] or "").strip()
        if not symbol or symbol in seen:
            raise SourceDataError(
                f"{coins}: empty or duplicate symbol {symbol!r}"
            )
        seen.add(symbol)
        symbols.append(symbol)
    has_trade_size = "typical_trade_size" in coin_rows[0]
    header = list(COIN_HEADER) + (
        ["typical_trade_size"] if has_trade_size else []
    )
    _write_csv(
        out_dir / COINS_NAME, header,
        (
            [i, symbols[i], row["market_cap"], row["alexa_rank"],
             row["reddit_subscribers"], row["twitter_followers"]]
            + ([row["typical_trade_size"]] if has_trade_size else [])
            for i, row in enumerate(coin_rows)
        ),
    )

    # Candles: validate symbols, sort, reject duplicates.
    candle_rows = read_csv_table(Path(candles), ("symbol", "hour", "close",
                                                "volume"))
    known = set(symbols)
    parsed = []
    for row in candle_rows:
        symbol = (row["symbol"] or "").strip()
        if symbol not in known:
            raise SourceDataError(
                f"{candles}: unknown coin symbol {symbol!r} (not in {coins})"
            )
        try:
            hour = int(float(row["hour"]))
        except (TypeError, ValueError) as exc:
            raise SourceDataError(
                f"{candles}: non-integer hour {row['hour']!r}"
            ) from exc
        parsed.append((symbol, hour, row["close"], row["volume"]))
    parsed.sort(key=lambda r: (r[0], r[1]))
    for previous, current in zip(parsed, parsed[1:]):
        if previous[:2] == current[:2]:
            raise SourceDataError(
                f"{candles}: duplicate candle for {current[0]!r} at hour "
                f"{current[1]}"
            )
    min_hour = min((r[1] for r in parsed), default=0)
    _write_csv(out_dir / CANDLES_NAME, ("symbol", "hour", "close", "volume"),
               parsed, compress=compress)

    # Messages: sort canonically, default kinds.
    records = []
    messages_path = Path(messages)
    if not messages_path.is_file():
        raise SourceDataError(f"raw input {messages_path} does not exist")
    with open(messages_path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            record = parse_message_record(messages_path, line_no, line)
            kind = record.get("kind")
            if kind is None:
                kind = "announcement" if record.get("is_pump") else "generic"
            records.append({
                "message_id": int(record.get("message_id", line_no)),
                "channel_id": int(record["channel_id"]),
                "time": float(record["time"]),
                "text": str(record["text"]),
                "kind": kind,
            })
    records.sort(key=lambda r: (r["time"], r["channel_id"], r["message_id"]))
    _write_jsonl(out_dir / MESSAGES_NAME, records, compress=compress)

    # Channels: given file, or derived from the message stream.
    if channels is not None:
        channel_rows = read_csv_table(Path(channels), ("channel_id",))
        rows = []
        for row in channel_rows:
            try:
                rows.append((
                    int(float(row["channel_id"])),
                    int(float(row.get("subscribers") or 1000)),
                    (row.get("kind") or "pump").strip() or "pump",
                    int(float(row.get("is_seed") or 1)),
                    int(float(row.get("is_dead") or 0)),
                ))
            except (TypeError, ValueError) as exc:
                raise SourceDataError(
                    f"{channels}: malformed channel row {row!r} ({exc})"
                ) from exc
    else:
        rows = [(cid, 1000, "pump", 1, 0)
                for cid in sorted({r["channel_id"] for r in records})]
    _write_csv(out_dir / CHANNELS_NAME,
               ("channel_id", "subscribers", "kind", "is_seed", "is_dead"),
               rows)

    # Listings: given file (exchange by id or name), or everything on
    # exchange 0 from the first recorded hour.
    names = list(exchange_names or EXCHANGE_NAMES)
    if listings is not None:
        listing_rows = read_csv_table(
            Path(listings), ("exchange", "symbol", "listed_from_hour")
        )
        resolved = []
        name_to_id = {n.lower(): i for i, n in enumerate(names)}
        max_exchange = 0
        for row in listing_rows:
            raw_exchange = (row["exchange"] or "").strip()
            try:
                exchange_id = int(raw_exchange)
            except ValueError:
                exchange_id = name_to_id.get(raw_exchange.lower(), -1)
                if exchange_id < 0:
                    raise SourceDataError(
                        f"{listings}: unknown exchange {raw_exchange!r}"
                    ) from None
            symbol = (row["symbol"] or "").strip()
            if symbol not in known:
                raise SourceDataError(
                    f"{listings}: unknown coin symbol {symbol!r}"
                )
            max_exchange = max(max_exchange, exchange_id)
            resolved.append((exchange_id, symbol, row["listed_from_hour"]))
        n_exchanges = max_exchange + 1
        _write_csv(out_dir / LISTINGS_NAME, LISTING_HEADER, resolved)
    else:
        n_exchanges = 1
        _write_csv(out_dir / LISTINGS_NAME, LISTING_HEADER,
                   ((0, s, min_hour) for s in symbols))

    # One name per listing-matrix row, no more: a name beyond the matrix
    # would let the serving sessionizer emit an exchange id that crashes
    # candidate lookup instead of cleanly skipping.
    if n_exchanges > len(names):
        names += [f"exchange-{i}" for i in range(len(names), n_exchanges)]
    _write_meta(
        out_dir,
        seed=seed,
        sequence_length=sequence_length,
        max_negatives_per_event=max_negatives_per_event,
        n_exchanges=n_exchanges,
        exchange_names=names[:n_exchanges],
        origin={"backend": "raw-ingest", "messages": str(messages),
                "candles": str(candles)},
    )
    return FileDatasetSource(out_dir)


COIN_HEADER = ("coin_id", "symbol", "market_cap", "alexa_rank",
               "reddit_subscribers", "twitter_followers")
