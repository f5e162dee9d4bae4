"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``world``     — generate a synthetic world and print its summary.
``collect``   — run the §3 data-collection pipeline (Tables 1-4 summaries).
``analyze``   — run the §4 observational studies (Figures 3-6 numbers).
``train``     — train a ranker, report HR@k; ``--save`` writes a full
                servable artifact (``repro.registry``) and ``--register``
                publishes it into the model registry.
``serve``     — replay the test period through the streaming prediction
                service (``repro.serving``); ``--load`` boots from a saved
                artifact (path or ``name[@version]``) without retraining;
                ``--gateway URL`` replays against a remote gateway instead.
``gateway``   — serve the versioned HTTP/JSON prediction API
                (``repro.gateway``): rank/observe/models/reload/healthz/
                stats endpoints over a hot-swappable registry artifact.
                ``--store DB`` makes the stream durable (``repro.store``)
                and rehydrates it on boot; ``--max-inflight`` /
                ``--deadline-ms`` bound load and latency.
``history``   — backtest-style queries over a ``--store`` event log:
                ``summary``, ``alerts`` (channel/window filters), ``hr``
                (hit rate @ k over the logged alerts).
``telemetry`` — scrape a running gateway: ``metrics`` fetches + validates
                the Prometheus exposition (``--require`` gates CI on a
                series being live), ``traces`` pretty-prints recent span
                trees.
``ingest``    — build a canonical file dump (``repro.sources``): either
                export a synthetic replay or normalize raw CSV/JSONL files.
``models``    — list / inspect / validate registry contents.
``forecast``  — run the §7 BTC forecasting comparison (Table 8-lite).
``lint``      — run the project's static-analysis rules (``repro.lint``):
                layering, dependency policy, lock discipline,
                determinism, wire-contract drift.  ``--strict`` is the
                CI gate; ``--write-baseline`` grandfathers existing
                findings.

``train`` and ``serve`` accept ``--source synthetic`` (default) or
``--source file:<dump-dir>`` — the data plane is pluggable end to end, so
a model trained on one backend can be served from another through the
registry.  All world-building commands accept ``--scale
{tiny,small,paper}`` and ``--seed N``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from repro.utils import ReproConfig, format_table


# The deep rankers make_model() can build (classic lr/rf go through
# ClassicRanker and cannot drive the predictor's Batch interface).
DEEP_MODEL_CHOICES = ("dnn", "lstm", "bilstm", "gru", "bigru", "tcn", "snn")

DEFAULT_REGISTRY = "models"


def _fail(command: str, message: str) -> int:
    """Uniform operational-error exit: message to stderr, code 2."""
    print(f"repro {command}: {message}", file=sys.stderr)
    return 2


def _resolve_artifact_path(ref: str, registry_root: str, command: str):
    """Resolve ``--load`` (a path or ``name[@version]``) to an artifact dir.

    A ref containing a path separator is always a filesystem path; a bare
    ref resolves against the registry first, falling back to a local
    directory of that name — so a stray ``./snn`` directory in the cwd
    cannot silently shadow the registered model ``snn``.

    Returns ``(path, error_code)``; exactly one is ``None``.
    """
    from repro.registry import ModelRegistry, RegistryError, parse_ref

    candidate = Path(ref)
    if "/" in ref or os.sep in ref:
        if candidate.exists():
            return candidate, None
        return None, _fail(
            command, f"cannot load {ref!r}: no such artifact directory"
        )
    name, version = parse_ref(ref)
    registry = ModelRegistry(registry_root)
    try:
        return registry.resolve(name, version), None
    except RegistryError as exc:
        # Fall back to a local directory only when the registry has no
        # model of this name at all — a registered-but-broken entry (or a
        # typo'd version) must surface its real error, not be silently
        # shadowed by a same-named cwd directory.
        try:
            known = bool(registry.versions(name))
        except RegistryError:
            known = False
        if known:
            return None, _fail(command, f"cannot load {ref!r}: {exc}")
    if candidate.exists():
        return candidate, None
    return None, _fail(
        command,
        f"cannot load {ref!r}: not a registered model under "
        f"{registry_root!r}, and not an artifact directory",
    )


def _build_source(args, command: str):
    """Resolve ``--source`` into a data backend.

    Returns ``(source, error_code)``; exactly one is ``None``.  The
    synthetic backend is generated from ``--scale``/``--seed``; a file
    backend ignores both (the dump fixes its own universe).
    """
    from repro.sources import SourceDataError, parse_source_spec

    try:
        return parse_source_spec(
            getattr(args, "source", "synthetic"), config=_config(args)
        ), None
    except SourceDataError as exc:
        return None, _fail(command, str(exc))


def _open_store(args, command: str):
    """Open ``--store`` as a durable event log, if one was requested.

    Returns ``(store_or_None, error_code)``; at most one is non-None.
    """
    path = getattr(args, "store", "")
    if not path:
        return None, None
    from repro.store import SQLiteEventStore, StoreError

    try:
        return SQLiteEventStore(path), None
    except StoreError as exc:
        return None, _fail(command, str(exc))


def _boot(args, command: str, *, train: bool = False,
          replay: bool = True):
    """The start ``serve`` and ``gateway`` share, run once per process.

    Resolves ``--load``, builds ``--source`` and loads the predictor from
    the artifact — or, with ``train`` (``serve`` without ``--load``),
    trains it.  With ``replay`` (``serve``, which replays the held-out
    stream) it runs ``collect`` first and binds the artifact to the
    collected dataset; without it (``gateway``) the predictor ranks from
    the artifact's own histories, so neither §3 nor the message stream
    runs, and the collection returned is ``None``.  Returns ``((source,
    collection, predictor, artifact_path), error_code)``; exactly one is
    ``None``.  Every failure is reported here, so ``gateway`` exits 2
    before it binds a socket.
    """
    from repro.core import TargetCoinPredictor, train_predictor
    from repro.data import collect
    from repro.registry import ArtifactError
    from repro.sources import SourceDataError

    artifact_path = None
    if not train:
        artifact_path, error = _resolve_artifact_path(
            args.load, args.registry, command
        )
        if error is not None:
            return None, error
    source, error = _build_source(args, command)
    if error is not None:
        return None, error
    try:
        collection = collect(source) if replay else None
        if train:
            predictor = train_predictor(
                source, collection,
                model=args.model if args.model is not None else "snn",
                epochs=args.epochs if args.epochs is not None else 8,
                seed=args.seed,
            )
        else:
            predictor = TargetCoinPredictor.from_artifact(
                artifact_path, source,
                collection.dataset if replay else None,
            )
    except ArtifactError as exc:
        return None, _fail(command, f"cannot load {artifact_path}: {exc}")
    except SourceDataError as exc:
        return None, _fail(command, str(exc))
    return (source, collection, predictor, artifact_path), None


def _config(args) -> ReproConfig:
    builders = {
        "tiny": ReproConfig.tiny,
        "small": ReproConfig.small,
        "paper": ReproConfig.paper,
    }
    return builders[args.scale](seed=args.seed)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", choices=("tiny", "small", "paper"),
                        default="tiny", help="world size preset")
    parser.add_argument("--seed", type=int, default=7)


def cmd_world(args) -> int:
    from repro.simulation import SyntheticWorld

    world = SyntheticWorld.generate(_config(args))
    summary = world.summary()
    print(format_table(["quantity", "value"], list(summary.items()),
                       title="synthetic world"))
    return 0


def cmd_collect(args) -> int:
    from repro.data import collect
    from repro.sources import parse_source_spec

    result = collect(parse_source_spec("synthetic", config=_config(args)))
    print("exploration:", result.exploration.summary())
    for name, report in result.detection.reports.items():
        print(f"detector {name}: auc={report.auc:.3f} f1={report.f1:.3f}")
    print("table2:", result.table2())
    table4 = result.dataset.table4()
    print(format_table(
        ["split", "positives", "total"],
        [[s, table4[s]["positives"], table4[s]["total"]] for s in table4],
        title="table 4",
    ))
    return 0


def cmd_analyze(args) -> int:
    from repro.analysis import (
        channel_level_study,
        coin_level_study,
        event_study,
        semantic_study,
        volume_onset_hour,
    )
    from repro.data import collect
    from repro.simulation import SyntheticWorld
    from repro.sources import SyntheticWorldSource

    world = SyntheticWorld.generate(_config(args))
    samples = collect(SyntheticWorldSource(world)).samples
    coins = coin_level_study(world, samples)
    print(f"repump rate: {coins.repump_rate:.3f}")
    print(f"cap cohort closest to pumped: {coins.closest_cohort('market_cap')}")
    events = event_study(world, max_events=60)
    print(f"peak return window: x={events.peak_window()} "
          f"({events.window_returns_pumped[events.peak_window()]:.3f})")
    print(f"volume onset: ~{volume_onset_hour(events):.0f}h before pump")
    channels = channel_level_study(world, samples, min_history=3)
    for feature, scatter in channels.scatters.items():
        print(f"homogeneity[{feature}]: {scatter.homogeneity_ratio:.3f}")
    semantics = semantic_study(world, samples, n_pairs=300)
    for strategy in ("same_channel", "pumped_set", "all_coins"):
        print(f"semantic sim[{strategy}]: {semantics.mean(strategy):.3f}")
    return 0


def cmd_train(args) -> int:
    from repro.core import train_predictor
    from repro.registry import ModelRegistry, RegistryError

    # Fail fast on unusable save/register targets: don't spend the
    # training run to find out.
    if args.register:
        try:
            ModelRegistry.check_name(args.register)
        except RegistryError as exc:
            return _fail("train", str(exc))
        if Path(args.registry).is_file():
            return _fail(
                "train",
                f"--registry target {args.registry!r} is an existing file, "
                "not a directory",
            )
    if args.save:
        from repro.registry import check_save_target

        problem = check_save_target(args.save)
        if problem is not None:
            return _fail("train", f"--save: {problem}")

    from repro.sources import SourceDataError

    source, error = _build_source(args, "train")
    if error is not None:
        return error
    try:
        # A file dump with gaps surfaces here (collection, assembly or
        # scaler fitting query the candle grid) — diagnostic, not traceback.
        predictor = train_predictor(
            source, model=args.model, epochs=args.epochs, seed=args.seed,
            signals=args.signals,
        )
    except SourceDataError as exc:
        return _fail("train", str(exc))
    provenance = predictor.provenance
    print(format_table(
        ["metric", "value"],
        [[f"HR@{k}", f"{v:.4f}"] for k, v in provenance["hr"].items()],
        title=f"{args.model} on the test split",
    ))
    if source.kind == "synthetic":
        # --scale only shapes the synthetic backend; recording it for a
        # file dump would claim a world size that never applied.
        provenance["scale"] = args.scale
    if args.save or args.register:
        from repro.registry import ArtifactError, save_artifact

        step = "save artifact"
        try:
            if args.save:
                path = save_artifact(predictor, args.save)
                print(f"artifact saved to {path} "
                      f"(serve it with: repro serve --load {path})")
            if args.register:
                step = "register artifact"
                registry = ModelRegistry(args.registry)
                if args.save:
                    # Reuse the bundle just written: one snapshot, and the
                    # registered copy is byte-identical to the saved one.
                    entry = registry.import_artifact(path, args.register)
                else:
                    entry = registry.publish(predictor, args.register)
                print(f"registered {entry.name}@{entry.version} "
                      f"under {args.registry} (latest)")
        except (ArtifactError, RegistryError, OSError) as exc:
            # A failed registration does not undo a successful --save —
            # the step name keeps the diagnostic truthful either way.
            return _fail("train", f"cannot {step}: {exc}")
    return 0


def _print_replay_outcome(result, args) -> None:
    """Shared epilogue of a local or remote test-period replay."""
    print(format_table(
        ["metric", "value"],
        list(result.stats.summary().items()),
        title="serving metrics",
    ))
    hits = [a for a in result.alerts if 0 < a.announced_rank <= args.top_k]
    if result.alerts:
        print(f"alerts: {len(result.alerts)}; released coin in "
              f"top-{args.top_k}: {len(hits) / len(result.alerts):.0%}")
    if args.jsonl:
        print(f"alert records appended to {args.jsonl}")


def _serve_remote(args) -> int:
    """``repro serve --gateway URL``: replay against a remote gateway."""
    from repro.data import collect
    from repro.gateway import (
        GatewayClient,
        GatewayClientError,
        GatewayConnectionError,
        replay_against_gateway,
    )
    from repro.serving import ConsoleAlertSink, JsonLinesAlertSink
    from repro.sources import SourceDataError

    if args.load or args.model is not None or args.epochs is not None:
        print("repro serve: --load/--model/--epochs are ignored with "
              "--gateway (the remote gateway owns the model)",
              file=sys.stderr)
    try:
        client = GatewayClient(args.gateway)
    except ValueError as exc:
        return _fail("serve", f"bad --gateway URL: {exc}")
    try:
        health = client.healthz()
    except GatewayClientError as exc:
        return _fail("serve", str(exc))
    model = health.model or {}
    print(f"replaying against gateway {client.base_url} "
          f"(model {model.get('ref') or model.get('arch') or '?'})")
    source, error = _build_source(args, "serve")
    if error is not None:
        return error
    sinks = [ConsoleAlertSink(top_k=args.top_k)]
    if args.jsonl:
        sinks.append(JsonLinesAlertSink(args.jsonl, top_k=args.top_k))
    try:
        collection = collect(source)
        result = replay_against_gateway(
            source, collection, client, sinks=tuple(sinks),
            max_batch=args.max_batch,
        )
    except SourceDataError as exc:
        return _fail("serve", str(exc))
    except GatewayClientError as exc:
        return _fail("serve", str(exc))
    finally:
        for sink in sinks:
            sink.close()
    _print_replay_outcome(result, args)
    return 0


def cmd_serve(args) -> int:
    if args.max_batch < 1:
        return _fail("serve", "--max-batch must be >= 1")
    if args.top_k < 1:
        return _fail("serve", "--top-k must be >= 1")
    if args.gateway:
        return _serve_remote(args)
    if args.load and (args.model is not None or args.epochs is not None):
        print("repro serve: --model/--epochs are ignored with --load "
              "(the artifact fixes the architecture and weights)",
              file=sys.stderr)
    boot, error = _boot(args, "serve", train=not args.load)
    if error is not None:
        return error
    source, collection, predictor, artifact_path = boot
    if artifact_path is not None:
        print(f"serving from artifact {artifact_path} (no training)")

    from repro.serving import ConsoleAlertSink, JsonLinesAlertSink, replay_test_period
    from repro.sources import SourceDataError

    store, error = _open_store(args, "serve")
    if error is not None:
        return error
    sinks = [ConsoleAlertSink(top_k=args.top_k)]
    if args.jsonl:
        sinks.append(JsonLinesAlertSink(args.jsonl, top_k=args.top_k))
    try:
        result = replay_test_period(
            source, collection, predictor, sinks=tuple(sinks),
            bucket_hours=args.bucket_hours,
            max_batch=args.max_batch, store=store,
        )
        if store is not None:
            store.append_stats(result.stats.summary())
    except SourceDataError as exc:
        return _fail("serve", str(exc))
    finally:
        for sink in sinks:
            sink.close()
        if store is not None:
            store.flush()
            store.close()

    _print_replay_outcome(result, args)
    if store is not None:
        print(f"event log appended to {args.store} "
              f"(inspect with: repro history summary --store {args.store})")
    return 0


def cmd_gateway(args) -> int:
    """``repro gateway``: boot once, bind, then serve through the worker
    loop — in-process for ``--workers 1``, forked under a supervisor for
    ``--workers N``.

    The parent boots everything forks share copy-on-write (the market
    source and the predictor loaded from the artifact, histories
    included — no §3 collection and no message stream); each worker
    builds its *own* store connection, service and app (``_build`` runs
    post-fork — SQLite connections must not cross a fork).
    """
    if args.max_batch < 1:
        return _fail("gateway", "--max-batch must be >= 1")
    if not 0 <= args.port <= 65535:
        return _fail("gateway", "--port must be in [0, 65535]")
    if args.max_inflight is not None and args.max_inflight < 1:
        return _fail("gateway", "--max-inflight must be >= 1")
    if args.deadline_ms is not None and args.deadline_ms <= 0:
        return _fail("gateway", "--deadline-ms must be > 0")
    if args.snapshot_s <= 0:
        return _fail("gateway", "--snapshot-s must be > 0")
    if args.drain_s <= 0:
        return _fail("gateway", "--drain-s must be > 0")
    if args.workers < 1:
        return _fail("gateway", "--workers must be >= 1")
    if args.slow_ms < 0:
        return _fail("gateway", "--slow-ms must be >= 0")

    boot, error = _boot(args, "gateway", replay=False)
    if error is not None:
        return error
    _source, _collection, predictor, artifact_path = boot

    from repro.gateway import GatewayApp, describe_model
    from repro.gateway.pool import (
        bind_pool_sockets,
        print_line,
        run_pool,
        worker_serve,
    )
    from repro.registry import ArtifactError, ModelRegistry
    from repro.serving import PredictionService
    from repro.store import rehydrate_service
    from repro.telemetry import TelemetryHub

    try:
        descriptor = describe_model(args.load, artifact_path)
    except ArtifactError as exc:
        return _fail("gateway", f"cannot load {artifact_path}: {exc}")
    # Opened here only to fail before binding; every worker opens its
    # own connection after the fork.
    store, error = _open_store(args, "gateway")
    if error is not None:
        return error
    if store is not None:
        store.close()

    try:
        sockets, port = bind_pool_sockets(args.host, args.port,
                                          args.workers)
    except OSError as exc:
        return _fail("gateway",
                     f"cannot bind {args.host}:{args.port}: {exc}")

    def _build(worker_id: int):
        store, error = _open_store(args, "gateway")
        if error is not None:
            raise SystemExit(error)
        service = PredictionService(predictor,
                                    bucket_hours=args.bucket_hours,
                                    store=store)
        if store is not None:
            recovered = rehydrate_service(service, store)
            if recovered["observations"] or recovered["alerts"]:
                print_line(
                    f"rehydrated from {args.store}: "
                    f"{recovered['observations']} observations, "
                    f"{recovered['alerts']} alerts, stats snapshot "
                    f"{'restored' if recovered['stats_snapshot'] else 'absent'}"
                )
        app = GatewayApp(
            service, registry=ModelRegistry(args.registry), model=descriptor,
            max_batch=args.max_batch,
            telemetry=TelemetryHub(slow_ms=args.slow_ms),
        )
        return app, store

    def _serve(worker_id, listen_socket, metrics_dir=None) -> int:
        return worker_serve(
            worker_id, listen_socket, _build,
            verbose=args.verbose, max_inflight=args.max_inflight,
            deadline_ms=args.deadline_ms, snapshot_s=args.snapshot_s,
            drain_s=args.drain_s, metrics_dir=metrics_dir,
        )

    host = sockets[0].getsockname()[0]
    pool = f", {args.workers} workers" if args.workers > 1 else ""
    print(f"gateway listening on http://{host}:{port} "
          f"(model {args.load}, registry {args.registry}{pool})", flush=True)
    print("endpoints: POST /v1/rank  POST /v1/rank/batch  POST /v1/observe")
    print("           GET /v1/models  POST /v1/models/reload  "
          "GET /v1/healthz  GET /v1/stats")
    print("           GET /v1/metrics  GET /v1/trace/recent", flush=True)
    if args.store:
        print(f"event log: {args.store} "
              f"(snapshot every {args.snapshot_s:g}s)", flush=True)
    if args.workers == 1:
        return _serve(0, sockets[0])
    import functools
    import tempfile

    with tempfile.TemporaryDirectory(
            prefix="repro-gateway-metrics-") as metrics_dir:
        return run_pool(sockets, args.workers,
                        functools.partial(_serve, metrics_dir=metrics_dir),
                        drain_s=args.drain_s)


def cmd_history(args) -> int:
    """Backtest-style queries against a durable event log (repro.store)."""
    from repro.store import SQLiteEventStore, StoreError

    if args.history_command == "alerts" and args.top_k < 1:
        return _fail("history", "--top-k must be >= 1")
    path = Path(args.store)
    if not path.exists():
        return _fail("history", f"no event log at {args.store}")
    try:
        store = SQLiteEventStore(path)
    except StoreError as exc:
        return _fail("history", f"cannot open {args.store}: {exc}")

    try:
        if args.history_command == "summary":
            counts = store.counts()
            span = store.time_span()
            rows = [(table, str(count)) for table, count in counts.items()]
            rows.append(("scored_rows", str(store.scored_rows())))
            if span is not None:
                rows.append(("alert_time_span",
                             f"{span[0]:.3f} .. {span[1]:.3f} h"))
            print(format_table(["table", "rows"], rows,
                               title=f"event log @ {args.store}"))
            snapshot = store.latest_stats()
            if snapshot is not None:
                print("latest stats snapshot:")
                for key in sorted(snapshot):
                    print(f"  {key} = {snapshot[key]}")
            return 0

        if args.history_command == "alerts":
            alerts = store.alerts(
                channel_id=args.channel, since=args.since,
                until=args.until, limit=args.limit,
            )
            if args.json:
                for alert in alerts:
                    print(alert.wire_json)
                return 0
            if not alerts:
                print("no alerts match")
                return 0
            rows = []
            for alert in alerts:
                top = ", ".join(
                    f"{score.symbol}:{score.probability:.4f}"
                    for score in alert.top(args.top_k)
                )
                rank = alert.announced_rank
                rows.append((
                    f"{alert.announcement.time:.3f}",
                    str(alert.announcement.channel_id),
                    str(rank) if rank else "-",
                    top,
                ))
            print(format_table(
                ["time(h)", "channel", "hit@rank", f"top-{args.top_k}"],
                rows, title=f"{len(alerts)} alerts @ {args.store}"))
            return 0

        # hr — hit rate over a window of the log
        since, until = args.since, args.until
        if args.last_hours is not None:
            span = store.time_span()
            if span is None:
                return _fail("history", "event log holds no alerts")
            since, until = span[1] - args.last_hours, span[1]
        hits, total = store.hit_rate(args.k, since=since, until=until)
        window = ""
        if since is not None or until is not None:
            lo = f"{since:.3f}" if since is not None else "start"
            hi = f"{until:.3f}" if until is not None else "end"
            window = f" in [{lo}, {hi}] h"
        if total == 0:
            print(f"HR@{args.k}: no labeled alerts{window}")
            return 0
        print(f"HR@{args.k} = {hits / total:.4f} "
              f"({hits}/{total} labeled alerts{window})")
        return 0
    except StoreError as exc:
        return _fail("history", f"query failed: {exc}")
    except ValueError as exc:  # an out-of-range --k or --limit
        return _fail("history", str(exc))
    finally:
        store.close()


def _print_span_tree(node: dict, depth: int = 0) -> None:
    pad = "  " * depth
    duration = node.get("duration_ms")
    timing = f"{duration:.3f}ms" if isinstance(duration, (int, float)) else "?"
    attributes = node.get("attributes") or {}
    detail = " ".join(f"{k}={v}" for k, v in attributes.items())
    line = f"{pad}{node.get('name', '?')}  {timing}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    for child in node.get("children") or []:
        _print_span_tree(child, depth + 1)


def cmd_telemetry(args) -> int:
    """Scrape and pretty-print a running gateway's telemetry."""
    from repro.gateway import GatewayClient, GatewayClientError
    from repro.telemetry import ExpositionError, parse_text

    try:
        client = GatewayClient(args.url)
    except ValueError as exc:
        return _fail("telemetry", f"bad --url: {exc}")
    if args.telemetry_command == "metrics":
        try:
            text = client.metrics_text()
        except GatewayClientError as exc:
            return _fail("telemetry", str(exc))
        try:
            samples = parse_text(text)
        except ExpositionError as exc:
            return _fail("telemetry",
                         f"invalid exposition from {args.url}: {exc}")
        if args.raw:
            sys.stdout.write(text)
        else:
            rows = [
                (
                    sample.name,
                    "{%s}" % ",".join(f'{k}="{v}"' for k, v in sample.labels)
                    if sample.labels else "",
                    f"{sample.value:g}",
                )
                for sample in samples
            ]
            print(format_table(["series", "labels", "value"], rows,
                               title=f"metrics @ {args.url}"))
        # --require SERIES: CI gate — the series must exist with a nonzero
        # sample somewhere (counters that never fired render as absent or
        # all-zero; both mean the instrumentation is broken).
        failed = []
        for series in args.require or ():
            hits = [s for s in samples if s.name == series]
            if not hits or all(s.value == 0 for s in hits):
                failed.append(series)
        if failed:
            return _fail(
                "telemetry",
                "required series absent or all-zero: " + ", ".join(failed),
            )
        return 0

    # traces
    try:
        traces = client.recent_traces(args.limit)
    except GatewayClientError as exc:
        return _fail("telemetry", str(exc))
    if args.json:
        print(json.dumps(traces, indent=2))
        return 0
    if not traces:
        print("no traces recorded yet")
        return 0
    for i, root in enumerate(traces):
        if i:
            print()
        print(f"trace {root.get('trace_id', '?')}")
        _print_span_tree(root)
    return 0


def cmd_models(args) -> int:
    from repro.registry import (
        ArtifactError,
        ModelRegistry,
        RegistryError,
        parse_ref,
    )

    registry = ModelRegistry(args.registry)

    if args.models_command == "list":
        if not Path(args.registry).is_dir():
            # Same contract as `validate`: a typo'd root must not read as
            # an empty-but-healthy registry.
            return _fail("models",
                         f"registry {args.registry!r} does not exist")
        from repro.registry import registry_payload

        # The exact document GET /v1/models serves (sans "current"): one
        # serializer, so the CLI and HTTP views cannot drift.
        payload = registry_payload(registry)
        if args.json:
            import json

            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        entries = payload["models"]
        if not entries:
            print(f"no models registered under {args.registry!r}")
            return 0
        rows = []
        for entry in entries:
            row = [entry["name"], entry["version"],
                   "*" if entry["latest"] else ""]
            if "error" in entry:
                # One corrupt bundle (bad manifest, malformed fields,
                # missing files, …) must not take down the listing —
                # `models validate` prints the full diagnostic.
                rows.append(row + ["(unreadable)", "", "", ""])
                continue
            provenance = entry["provenance"]
            hr = provenance.get("hr")
            rows.append(row + [
                entry["model"], entry["n_parameters"],
                provenance.get("scale", "?"),
                hr.get("10", "") if isinstance(hr, dict) else "",
            ])
        print(format_table(
            ["model", "version", "latest", "arch", "params", "scale", "HR@10"],
            rows, title=f"registry {args.registry}",
        ))
        broken = sum("error" in entry for entry in entries)
        if broken:
            print(f"{broken} artifact(s) unreadable — run "
                  f"`repro models --registry {args.registry} validate` "
                  "for diagnostics", file=sys.stderr)
        return 0

    if args.models_command == "inspect":
        from repro.registry import manifest_payload, read_manifest, verify_files

        path, error = _resolve_artifact_path(args.ref, args.registry, "models")
        if error is not None:
            return error
        try:
            # Manifest-only: same integrity guarantee as a full load, but
            # no decompression of the parameter arrays.
            manifest = read_manifest(path)
            verify_files(path, manifest)
        except ArtifactError as exc:
            return _fail("models", f"cannot inspect {path}: {exc!r}")
        payload = manifest_payload(path, manifest)
        if args.json:
            import json

            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        provenance = payload.pop("provenance")
        rows = []
        for key, value in payload.items():
            if isinstance(value, list):  # signal_channels
                value = ",".join(map(str, value)) or "-"
            rows.append([key, "?" if value is None else value])
        # One level of nesting is flattened so structured entries (e.g.
        # the data-source descriptor) stay grep-able rows.
        for key, value in sorted(provenance.items()):
            if isinstance(value, dict):
                rows += [[f"provenance.{key}.{sub}", nested]
                         for sub, nested in sorted(value.items())]
            else:
                rows.append([f"provenance.{key}", value])
        print(format_table(["field", "value"], rows, title="artifact"))
        return 0

    if args.models_command == "validate":
        if not Path(args.registry).is_dir():
            # A green check against a typo'd root would be worse than an
            # error — there is nothing there to validate.
            return _fail("models",
                         f"registry {args.registry!r} does not exist")
        try:
            if args.ref:
                name, version = parse_ref(args.ref)
                problems = registry.validate(name, version)
                checked = len([version] if version
                              else registry.versions(name))
            else:
                problems = registry.validate()
                checked = sum(len(registry.versions(n))
                              for n in registry.models())
        except RegistryError as exc:
            return _fail("models", str(exc))
        if problems:
            for problem in problems:
                print(f"INVALID  {problem}", file=sys.stderr)
            return 1
        if not checked:
            print(f"no models registered under {args.registry!r}")
            return 0
        print(f"registry {args.registry!r}: {checked} artifact(s) verified, "
              "no problems")
        return 0

    raise AssertionError(f"unhandled models subcommand {args.models_command}")


def cmd_ingest(args) -> int:
    from repro.sources import SourceDataError, export_synthetic_dump, ingest_raw

    raw_inputs = args.messages or args.candles or args.coins
    if args.from_synthetic and raw_inputs:
        return _fail("ingest", "--from-synthetic and raw --messages/--candles/"
                               "--coins inputs are mutually exclusive")
    if not args.from_synthetic and not raw_inputs:
        return _fail("ingest", "nothing to ingest: pass --from-synthetic or "
                               "raw --messages/--candles/--coins files")
    try:
        if args.from_synthetic:
            from repro.simulation import SyntheticWorld

            config = _config(args)
            if args.horizon is not None:
                if args.horizon < 1:
                    return _fail("ingest", "--horizon must be >= 1")
                config = config.with_(horizon_hours=args.horizon)
            if args.phases:
                from repro.simulation import generate_phase_world

                world = generate_phase_world(config)
            else:
                world = SyntheticWorld.generate(config)
            source = export_synthetic_dump(
                world, args.out, hours=args.hours, compress=args.compress,
            )
        else:
            missing = [name for name, value in
                       (("--messages", args.messages),
                        ("--candles", args.candles),
                        ("--coins", args.coins)) if not value]
            if missing:
                return _fail("ingest",
                             f"raw ingestion needs {', '.join(missing)}")
            source = ingest_raw(
                args.out,
                messages=args.messages, candles=args.candles,
                coins=args.coins, channels=args.channels or None,
                listings=args.listings or None,
                seed=args.seed, sequence_length=args.sequence_length,
                max_negatives_per_event=args.max_negatives,
                compress=args.compress,
            )
    except SourceDataError as exc:
        return _fail("ingest", str(exc))
    descriptor = source.descriptor()
    print(format_table(
        ["field", "value"], sorted(descriptor.items()),
        title=f"dump written to {args.out}",
    ))
    print(f"train from it with: repro train --source file:{args.out}")
    return 0


def cmd_forecast(args) -> int:
    from repro.forecasting import BTCForecastDataset, run_forecasting_experiment
    from repro.simulation import SyntheticWorld

    world = SyntheticWorld.generate(_config(args))
    dataset = BTCForecastDataset.build(world, span=args.span)
    experiment = run_forecasting_experiment(
        world, span=args.span, model_names=tuple(args.models.split(",")),
        epochs=args.epochs, dataset=dataset,
    )
    rows = [
        [name, round(experiment.mae_price[name], 2),
         round(experiment.mae_price_telegram[name], 2),
         round(experiment.improvement(name), 2),
         round(experiment.cost[name], 3)]
        for name in experiment.mae_price
    ]
    print(format_table(["model", "MAE(P)", "MAE(P+T)", "impr", "cost"], rows,
                       title=f"BTC forecasting, span={args.span}h"))
    return 0


def cmd_signals(args) -> int:
    from repro.data import collect
    from repro.signals import SignalEngine, SignalError, SignalRanker
    from repro.signals.scorer import DEFAULT_INTERACTIONS
    from repro.sources import SourceDataError

    source, error = _build_source(args, "signals")
    if error is not None:
        return error
    try:
        # A recorded dump with candle holes fails here, up front, with the
        # uncovered window named — never with NaN scores downstream.
        engine = SignalEngine.from_source(source)
        collection = collect(source)
        ranker = SignalRanker(source, engine=engine)
        heuristic_hr = ranker.evaluate(collection.dataset)
    except (SourceDataError, SignalError) as exc:
        return _fail("signals", str(exc))

    scorer = engine.scorer
    print(format_table(
        ["signal", "weight", "scale"],
        [[s.name, scorer.weight_of(s.name), scorer.scale_of(s.name)]
         for s in engine.signals],
        title=f"signal battery ({source.fingerprint()})",
    ))
    print(format_table(
        ["interaction", "threshold", "bonus"],
        [[f"{i.first} & {i.second}", i.threshold, i.bonus]
         for i in DEFAULT_INTERACTIONS],
        title="composite interaction bonuses",
    ))
    print(format_table(
        ["metric", "value"],
        [[f"HR@{k}", f"{v:.3f}"] for k, v in heuristic_hr.items()],
        title="heuristic SignalRanker on the test split",
    ))

    if not (args.lift or args.require_lift is not None):
        return 0

    # Head-to-head: the same ranker architecture trained message-only vs
    # with the signal channels appended — the HR@k lift measure.
    from repro.core import Trainer, run_target_coin_experiment
    from repro.features import FeatureAssembler

    results: dict[str, dict[int, float]] = {}
    for label, eng in (("message-only", None), ("message+signal", engine)):
        assembled = FeatureAssembler(source, collection.dataset,
                                     signal_engine=eng).assemble()
        outcome = run_target_coin_experiment(
            assembled, (args.model,),
            Trainer(epochs=args.epochs, seed=args.seed), seed=args.seed,
        )
        results[label] = outcome.hr[args.model]
    base, aware = results["message-only"], results["message+signal"]
    print(format_table(
        ["k", "message-only", "message+signal", "lift"],
        [[k, f"{base[k]:.3f}", f"{aware[k]:.3f}", f"{aware[k] - base[k]:+.3f}"]
         for k in base],
        title=f"{args.model} trained with vs without signal channels",
    ))
    if args.require_lift is not None:
        k = args.require_lift
        if k not in base:
            return _fail("signals",
                         f"--require-lift {k}: no HR@{k} in {sorted(base)}")
        if aware[k] < base[k]:
            return _fail(
                "signals",
                f"HR@{k} regression: message+signal {aware[k]:.3f} < "
                f"message-only {base[k]:.3f}",
            )
        print(f"lift check passed: HR@{k} message+signal {aware[k]:.3f} >= "
              f"message-only {base[k]:.3f}")
    return 0


def cmd_lint(args) -> int:
    from repro.lint import cli as lint_cli

    return lint_cli.run(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_world = sub.add_parser("world", help="generate and summarize a world")
    _add_common(p_world)
    p_world.set_defaults(fn=cmd_world)

    p_collect = sub.add_parser("collect", help="run the data pipeline")
    _add_common(p_collect)
    p_collect.set_defaults(fn=cmd_collect)

    p_analyze = sub.add_parser("analyze", help="run the §4 studies")
    _add_common(p_analyze)
    p_analyze.set_defaults(fn=cmd_analyze)

    p_train = sub.add_parser("train", help="train a target-coin ranker")
    _add_common(p_train)
    p_train.add_argument("--source", default="synthetic", metavar="SPEC",
                         help="data backend: 'synthetic' (generated from "
                              "--scale/--seed) or 'file:<dump-dir>'")
    p_train.add_argument("--model", default="snn", choices=DEEP_MODEL_CHOICES)
    p_train.add_argument("--epochs", type=int, default=8)
    p_train.add_argument("--signals", action="store_true",
                         help="append the repro.signals microstructure "
                              "channels to the numeric features (recorded "
                              "in the artifact manifest)")
    p_train.add_argument("--save", default="",
                         help="directory to save a full servable artifact "
                              "(weights + scalers + vocab + provenance)")
    p_train.add_argument("--register", default="", metavar="NAME",
                         help="publish the artifact into the model registry "
                              "under this name")
    p_train.add_argument("--registry", default=DEFAULT_REGISTRY,
                         help="model registry root directory")
    p_train.set_defaults(fn=cmd_train)

    p_serve = sub.add_parser(
        "serve", help="replay the test period through the streaming service"
    )
    _add_common(p_serve)
    p_serve.add_argument("--source", default="synthetic", metavar="SPEC",
                         help="data backend: 'synthetic' (generated from "
                              "--scale/--seed) or 'file:<dump-dir>'")
    # Defaults are applied in cmd_serve (snn / 8 epochs) so an explicit
    # --model/--epochs combined with --load can be flagged as ignored.
    p_serve.add_argument("--model", default=None, choices=DEEP_MODEL_CHOICES)
    p_serve.add_argument("--epochs", type=int, default=None)
    p_serve.add_argument("--top-k", type=int, default=3,
                         help="coins shown per alert")
    p_serve.add_argument("--jsonl", default="",
                         help="also append alerts to this JSON-lines file")
    p_serve.add_argument("--store", default="", metavar="DB",
                         help="append every streamed event to this durable "
                              "SQLite event log (repro.store)")
    p_serve.add_argument("--bucket-hours", type=float, default=1.0,
                         help="feature-cache time bucket (0 = exact times)")
    p_serve.add_argument("--max-batch", type=int, default=64,
                         help="max concurrent announcements per forward pass")
    p_serve.add_argument("--load", default="", metavar="REF",
                         help="boot from a saved artifact instead of "
                              "training: a directory path or a registry "
                              "name[@version]")
    p_serve.add_argument("--registry", default=DEFAULT_REGISTRY,
                         help="model registry root used to resolve --load")
    p_serve.add_argument("--gateway", default="", metavar="URL",
                         help="replay against a remote repro gateway "
                              "instead of an in-process model (detection "
                              "and sessionization stay local; every "
                              "ranking goes over HTTP)")
    p_serve.set_defaults(fn=cmd_serve)

    p_gateway = sub.add_parser(
        "gateway", help="serve the HTTP/JSON prediction API (repro.gateway)"
    )
    _add_common(p_gateway)
    p_gateway.add_argument("--source", default="synthetic", metavar="SPEC",
                           help="data backend: 'synthetic' (generated from "
                                "--scale/--seed) or 'file:<dump-dir>'")
    p_gateway.add_argument("--load", required=True, metavar="REF",
                           help="artifact to serve: a directory path or a "
                                "registry name[@version]")
    p_gateway.add_argument("--registry", default=DEFAULT_REGISTRY,
                           help="model registry root (resolves --load and "
                                "backs GET /v1/models + /v1/models/reload)")
    p_gateway.add_argument("--host", default="127.0.0.1",
                           help="bind address")
    p_gateway.add_argument("--port", type=int, default=8787,
                           help="bind port (0 picks a free one)")
    p_gateway.add_argument("--max-batch", type=int, default=256,
                           help="largest accepted /v1/rank/batch request")
    p_gateway.add_argument("--bucket-hours", type=float, default=1.0,
                           help="feature-cache time bucket (0 = exact times)")
    p_gateway.add_argument("--verbose", action="store_true",
                           help="log one structured JSON line per HTTP "
                                "request to stderr")
    p_gateway.add_argument("--slow-ms", type=float, default=500.0,
                           help="requests at or above this duration dump "
                                "their span tree to the structured log")
    p_gateway.add_argument("--store", default="", metavar="DB",
                           help="durable SQLite event log: every streamed "
                                "event is appended as it flows, and on boot "
                                "the service rehydrates history + stats "
                                "from it (crash-safe restarts)")
    p_gateway.add_argument("--max-inflight", type=int, default=None,
                           metavar="N",
                           help="load-shed (429 overloaded) once more than "
                                "N scoring requests are in flight")
    p_gateway.add_argument("--deadline-ms", type=float, default=None,
                           metavar="MS",
                           help="default per-request deadline budget; "
                                "clients override via the "
                                "X-Repro-Deadline-Ms header")
    p_gateway.add_argument("--snapshot-s", type=float, default=30.0,
                           metavar="S",
                           help="seconds between periodic stats snapshots "
                                "appended to --store")
    p_gateway.add_argument("--drain-s", type=float, default=10.0,
                           metavar="S",
                           help="max seconds to wait for in-flight requests "
                                "on SIGTERM/Ctrl-C before exiting")
    p_gateway.add_argument("--workers", type=int, default=1, metavar="N",
                           help="worker processes accepting on one port "
                                "(SO_REUSEPORT where available); a "
                                "supervisor restarts crashed workers and "
                                "fans SIGTERM out for graceful drain")
    p_gateway.set_defaults(fn=cmd_gateway)

    p_history = sub.add_parser(
        "history",
        help="query a durable event log written by serve/gateway --store",
    )
    history_sub = p_history.add_subparsers(dest="history_command",
                                           required=True)
    p_hsummary = history_sub.add_parser(
        "summary", help="row counts, latest stats snapshot, time span"
    )
    p_hsummary.add_argument("--store", required=True, metavar="DB",
                            help="event log path")
    p_hsummary.set_defaults(fn=cmd_history)
    p_halerts = history_sub.add_parser(
        "alerts", help="list persisted alerts (backtest-style filters)"
    )
    p_halerts.add_argument("--store", required=True, metavar="DB",
                           help="event log path")
    p_halerts.add_argument("--channel", type=int, default=None,
                           help="only alerts for this channel id")
    p_halerts.add_argument("--since", type=float, default=None,
                           metavar="HOURS", help="window start (hours)")
    p_halerts.add_argument("--until", type=float, default=None,
                           metavar="HOURS", help="window end (hours)")
    p_halerts.add_argument("--limit", type=int, default=None,
                           help="most recent N alerts only")
    p_halerts.add_argument("--top-k", type=int, default=3,
                           help="coins shown per alert")
    p_halerts.add_argument("--json", action="store_true",
                           help="print each alert's wire JSON, one per line")
    p_halerts.set_defaults(fn=cmd_history)
    p_hr = history_sub.add_parser(
        "hr", help="hit rate @ k over the logged alerts"
    )
    p_hr.add_argument("--store", required=True, metavar="DB",
                      help="event log path")
    p_hr.add_argument("--k", type=int, default=3,
                      help="count a hit when the pumped coin ranks <= k")
    p_hr.add_argument("--since", type=float, default=None, metavar="HOURS",
                      help="window start (hours)")
    p_hr.add_argument("--until", type=float, default=None, metavar="HOURS",
                      help="window end (hours)")
    p_hr.add_argument("--last-hours", type=float, default=None,
                      metavar="HOURS",
                      help="window = the trailing HOURS before the newest "
                           "logged alert (overrides --since/--until)")
    p_hr.set_defaults(fn=cmd_history)

    p_telemetry = sub.add_parser(
        "telemetry", help="scrape a running gateway's metrics and traces"
    )
    telemetry_sub = p_telemetry.add_subparsers(dest="telemetry_command",
                                               required=True)
    p_metrics = telemetry_sub.add_parser(
        "metrics", help="fetch + validate GET /v1/metrics"
    )
    p_metrics.add_argument("--url", default="http://127.0.0.1:8787",
                           help="gateway base URL")
    p_metrics.add_argument("--raw", action="store_true",
                           help="print the exposition verbatim instead of "
                                "a table")
    p_metrics.add_argument("--require", action="append", metavar="SERIES",
                           help="fail (exit 1) unless this series exists "
                                "with a nonzero sample; repeatable")
    p_metrics.set_defaults(fn=cmd_telemetry)
    p_traces = telemetry_sub.add_parser(
        "traces", help="fetch + pretty-print GET /v1/trace/recent"
    )
    p_traces.add_argument("--url", default="http://127.0.0.1:8787",
                          help="gateway base URL")
    p_traces.add_argument("--limit", type=int, default=None,
                          help="most recent N traces only")
    p_traces.add_argument("--json", action="store_true",
                          help="print raw JSON span trees")
    p_traces.set_defaults(fn=cmd_telemetry)

    p_models = sub.add_parser(
        "models", help="list / inspect / validate saved predictor artifacts"
    )
    p_models.add_argument("--registry", default=DEFAULT_REGISTRY,
                          help="model registry root directory")
    models_sub = p_models.add_subparsers(dest="models_command", required=True)
    p_list = models_sub.add_parser(
        "list", help="list registered models and versions"
    )
    p_list.add_argument("--json", action="store_true",
                        help="machine-readable output (the GET /v1/models "
                             "document)")
    p_inspect = models_sub.add_parser(
        "inspect", help="show one artifact's manifest summary"
    )
    p_inspect.add_argument("ref", help="artifact directory or name[@version]")
    p_inspect.add_argument("--json", action="store_true",
                           help="machine-readable manifest summary")
    p_validate = models_sub.add_parser(
        "validate", help="integrity-check artifacts (schema + checksums)"
    )
    p_validate.add_argument("ref", nargs="?", default="",
                            help="name[@version]; omit to check everything")
    p_models.set_defaults(fn=cmd_models)

    p_ingest = sub.add_parser(
        "ingest", help="build a canonical file dump for --source file:..."
    )
    _add_common(p_ingest)
    p_ingest.add_argument("--out", required=True,
                          help="output dump directory")
    p_ingest.add_argument("--from-synthetic", action="store_true",
                          help="export a synthetic replay (world built from "
                               "--scale/--seed) as a file dump")
    p_ingest.add_argument("--horizon", type=int, default=None,
                          help="override the synthetic world's horizon "
                               "hours (smaller = smaller dump)")
    p_ingest.add_argument("--phases", action="store_true",
                          help="attach accumulation/ignition phase overlays "
                               "to the synthetic world before export (see "
                               "repro.simulation.phases)")
    p_ingest.add_argument("--hours", choices=("needed", "all"),
                          default="needed",
                          help="candle hours to export: only those the "
                               "extracted samples query, or the full grid")
    p_ingest.add_argument("--messages", default="",
                          help="raw messages JSONL to normalize")
    p_ingest.add_argument("--candles", default="",
                          help="raw hourly-candles CSV to normalize")
    p_ingest.add_argument("--coins", default="",
                          help="raw coin-catalog CSV to normalize")
    p_ingest.add_argument("--channels", default="",
                          help="optional raw channels CSV")
    p_ingest.add_argument("--listings", default="",
                          help="optional raw listings CSV")
    p_ingest.add_argument("--sequence-length", type=int, default=20,
                          help="pump-history length recorded in meta.json")
    p_ingest.add_argument("--max-negatives", type=int, default=80,
                          help="negative-sampling cap recorded in meta.json")
    p_ingest.add_argument("--compress", action="store_true",
                          help="gzip the candle/message files")
    p_ingest.set_defaults(fn=cmd_ingest)

    p_lint = sub.add_parser(
        "lint", help="run the project's static-analysis rules (repro.lint)"
    )
    # The lint CLI owns its flags so `repro lint` and
    # `python -m repro.lint.cli` cannot drift apart.
    from repro.lint.cli import add_arguments as _add_lint_arguments

    _add_lint_arguments(p_lint)
    p_lint.set_defaults(fn=cmd_lint)

    p_signals = sub.add_parser(
        "signals",
        help="market-microstructure signal battery: heuristic HR@k and "
             "trained-ranker lift (repro.signals)",
    )
    _add_common(p_signals)
    p_signals.add_argument("--source", default="synthetic+phases",
                           metavar="SPEC",
                           help="data backend: 'synthetic', "
                                "'synthetic+phases' (default — pumps with "
                                "accumulation/ignition anatomy) or "
                                "'file:<dump-dir>'")
    p_signals.add_argument("--model", default="snn",
                           choices=DEEP_MODEL_CHOICES,
                           help="ranker architecture for the --lift "
                                "head-to-head")
    p_signals.add_argument("--epochs", type=int, default=8)
    p_signals.add_argument("--lift", action="store_true",
                           help="also train message-only vs message+signal "
                                "rankers and print the HR@k lift table")
    p_signals.add_argument("--require-lift", type=int, default=None,
                           metavar="K",
                           help="exit non-zero unless the message+signal "
                                "ranker's HR@K is >= the message-only "
                                "baseline's (implies --lift)")
    p_signals.set_defaults(fn=cmd_signals)

    p_forecast = sub.add_parser("forecast", help="run the §7 comparison")
    _add_common(p_forecast)
    p_forecast.add_argument("--span", type=int, default=48, choices=(12, 24, 48, 96))
    p_forecast.add_argument("--models", default="gru,snn")
    p_forecast.add_argument("--epochs", type=int, default=5)
    p_forecast.set_defaults(fn=cmd_forecast)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe mid-print (`repro history
        # ... | head`).  Point stdout at devnull so the interpreter's
        # shutdown flush does not raise a second time, and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
