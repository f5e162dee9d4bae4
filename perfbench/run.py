"""Serving benchmark at the paper's 437-candidate scale (``--scale small``).

    python3 perfbench/run.py --workload {replay,rank,rank_observe}
        --seed N --seconds S --trace {0,1}

Workloads (README.md in this directory says why each was chosen):

``replay``        the held-out test period through ``StreamEngine`` in a
                  fresh serving process per pass (detector → sessionizer
                  → ``PredictionService.rank_batch`` → sink).
``rank``          two keep-alive clients in a closed loop of ``POST
                  /v1/rank`` sentinels against ``repro gateway``.
``rank_observe``  one client, chronological ``/v1/rank`` + ``/v1/observe``
                  per announcement against ``repro gateway --store``.

``--trace 0`` measures and prints the end-to-end metrics; ``--trace 1``
measures once untraced and once with the layer wrappers of
:mod:`spans`, and prints the per-layer metrics.  Every ranking is
checked in both.  The last stdout line is the JSON result; a copy with
the steadiness context goes to ``.perfbench_work/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import context
import prep
from checks import Tally, corrupt, encode_ranking, hit_at_3, ranking_problem
from prep import ROOT, SRC, WORK, child_env
from spans import layer_metrics, load_spans, setup_breakdown
from wire import Gateway, closed_loop, collection_paused, metric_total

HERE = Path(__file__).resolve().parent
WORKLOADS = ("replay", "rank", "rank_observe")
# Seconds one unit of work takes on the reference 2-core box: a replay
# pass, one cycle of the rank requests, one rank_observe pass.  They fix
# each workload's sample count for a given --seconds, so the tail
# percentile is taken over the same n whatever the code's speed.
UNIT_SECONDS = {"replay": 9.5, "rank": 2.6, "rank_observe": 5.4}
SETUP_REPEATS = 3
CLIENTS = 2
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s", "alerts_per_s": "1/s", "alert_latency_mean_ms": "ms",
    "hit_rate_at_3": "ratio", "success_rate": "ratio", "peak_rss_mb": "MiB",
}
# Printed with every untraced run but not in the result line.  p50 and
# the tail are not steady enough to gate on a 2-core VM: rank_observe's
# latencies are bimodal (about half the requests miss the feature cache),
# so its median falls in the gap between the modes and moved 11-26%
# between runs, and its tail up to 37%.  messages_per_s (replay) and
# observe_latency_p50_ms (rank_observe) exist on one workload only.
REPORTED_UNITS = {"alert_latency_p50_ms": "ms", "alert_latency_tail_ms": "ms",
                  "messages_per_s": "1/s", "observe_latency_p50_ms": "ms"}
PER_LAYER_UNITS = {
    "online.detect.calls": "count", "online.detect.busy_s": "s",
    "online.detect.pump_ratio": "ratio", "online.session.busy_s": "s",
    "service.rank_batch.calls": "count", "service.rank_batch.busy_s": "s",
    "service.rank_batch.mean_batch": "count",
    "cache.features.hit_ratio": "ratio", "cache.features.miss_busy_s": "s",
    "features.sequence.calls": "count", "features.sequence.busy_s": "s",
    "nn.forward.calls": "count", "nn.forward.rows": "count",
    "nn.forward.busy_s": "s", "nn.forward.eager_fallbacks": "count",
    "predictor.candidates.busy_s": "s", "predictor.rank_many.self_s": "s",
    "gateway.rank.server_ms_p50": "ms", "gateway.rank.wait_ms_p50": "ms",
    "gateway.wire_ms_p50": "ms",
    "gateway.microbatch.requests_per_flush": "ratio",
    "gateway.observe.server_ms_p50": "ms",
    "store.appends.announcements": "count", "store.appends.alerts": "count",
    "store.appends.observations": "count", "store.append.busy_s": "s",
    "store.duplicates": "count",
    "setup.source_s": "s", "setup.collect_s": "s",
    "setup.artifact_load_s": "s", "setup.service_init_s": "s",
    "setup.spawn_overhead_s": "s",
    "proc.cpu_share": "ratio",
    "trace.overhead_alerts_per_s": "1/s", "trace.coverage": "ratio",
}
SETUP_STEPS = ("setup.source_s", "setup.collect_s", "setup.artifact_load_s",
               "setup.service_init_s")


class Run:
    """State of one benchmark invocation."""

    def __init__(self, args, prep_dir: Path, run_dir: Path):
        self.args = args
        self.prep_dir = prep_dir
        self.run_dir = run_dir
        refs = json.loads((prep_dir / "refs.json").read_text())
        self.alerts = refs["alerts"]
        self.stream_messages = refs["messages"]
        self.tally = Tally()
        self._corrupt_next = args.corrupt
        self.units = max(1, math.ceil(args.seconds
                                      / UNIT_SECONDS[args.workload]))

    def check_ranking(self, encoded: dict, index: int, reference: str,
                      announcement: dict | None = None) -> bool:
        """Record one ranking's check; True when the released coin is in
        the top 3."""
        if self._corrupt_next:
            encoded, self._corrupt_next = corrupt(encoded), False
        expected = self.alerts[index]
        problem = ranking_problem(encoded, expected["candidates"],
                                  expected[reference])
        if problem is None and announcement is not None:
            sent = expected["announcement"]
            if (announcement["channel_id"], announcement["exchange_id"],
                    announcement["time"]) != (sent["channel_id"],
                                              sent["exchange_id"],
                                              sent["time"]):
                problem = "ranking is for another announcement"
        self.tally.record(problem)
        return hit_at_3(encoded, expected["announcement"]["coin_id"])

    def sentinel(self, index: int):
        from repro.serving import Announcement

        a = Announcement.from_payload(self.alerts[index]["announcement"])
        return a, Announcement(a.channel_id, -1, a.exchange_id, a.pair,
                               a.time)


class Segment:
    """What one measured stretch (several processes) produced."""

    def __init__(self) -> None:
        self.setups: list[float] = []
        self.setup_steps: list[dict] = []
        self.latencies_ms: list[float] = []
        self.wire_ms: list[float] = []
        self.observe_ms: list[float] = []
        self.window_s = 0.0
        self.alerts = 0
        self.hits = 0
        self.messages = 0
        self.pump_messages = 0
        self.cpu_s = 0.0
        self.rss_mb: list[float] = []
        self.traces: list[tuple[Path, tuple[float, float]]] = []
        self.scrapes: list[list] = []  # parsed /v1/metrics, per gateway
        # The serving process's OpenBLAS threads, when it reports them (a
        # gateway shares this process's environment, hence its count).
        self.openblas_threads: int | None = None
        # Alerts the timed part is designed to produce (fixes the tail
        # percentile whatever the code's speed or failures).
        self.planned = 0

    @property
    def alerts_per_s(self) -> float:
        """Alerts completed over the summed timed windows."""
        return self.alerts / self.window_s


# -- replay -------------------------------------------------------------------


def replay_env() -> dict:
    """The replay process's environment: OpenBLAS on one thread.  With its
    default two threads the lone serving process spins on both cores, and
    any other work on the box stalls its forward passes (README.md has the
    figures).  On an idle box one thread is no slower."""
    env = child_env()
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def replay_segment(run: Run, setup_repeats: int, traced: bool) -> Segment:
    seg = Segment()
    tag = "traced" if traced else "plain"
    for i in range(max(run.units, setup_repeats)):
        out = run.run_dir / f"replay-{tag}-{i}.json"
        command = [sys.executable, str(HERE / "replay_child.py"),
                   run.args.scale, str(run.prep_dir), str(out)]
        run_pass = i < run.units
        spans = run.run_dir / f"spans-replay-{i}.jsonl"
        if run_pass:
            command.append("--pass")
            if traced:
                command += ["--spans", str(spans)]
        subprocess.run(command, env=replay_env(), check=True,
                       timeout=CHILD_TIMEOUT_S)
        report = json.loads(out.read_text())
        out.unlink()
        seg.openblas_threads = report["openblas_threads"]
        seg.setups.append(report["setup_s"])
        seg.setup_steps.append(report["setup"])
        if not run_pass:
            continue
        measured = report["pass"]
        seg.planned += len(run.alerts)
        seg.window_s += measured["end"] - measured["start"]
        seg.latencies_ms += measured["latencies_ms"]
        seg.messages += measured["messages"]
        seg.pump_messages += measured["pump_messages"]
        seg.cpu_s += measured["cpu_s"]
        seg.rss_mb.append(report["peak_rss_mb"])
        alerts = measured["alerts"]
        run.tally.record(None if len(alerts) == len(run.alerts)
                         and measured["messages"] == run.stream_messages
                         else f"pass produced {len(alerts)} alerts from "
                              f"{measured['messages']} messages")
        for index, alert in enumerate(alerts[:len(run.alerts)]):
            seg.alerts += 1
            seg.hits += run.check_ranking(alert["ranking"], index, "replay",
                                          alert["announcement"])
        if traced:
            seg.traces.append((spans, (measured["start"], measured["end"])))
    return seg


# -- wire workloads -------------------------------------------------------------


def _boot(run: Run, name: str, seg: Segment, *, traced: bool,
          store: Path | None = None):
    spans = run.run_dir / f"spans-{name}.jsonl" if traced else None
    gateway = Gateway(run.args.scale, run.prep_dir, run.run_dir, name,
                      store=store, spans=spans)
    seg.setups.append(gateway.setup_s)
    return gateway, spans


def _finish(run: Run, gateway, spans, seg: Segment, window, *,
            announcements: int = 0) -> None:
    """Scrape, check the counters, record memory, stop the gateway."""
    from repro.gateway import GatewayClient
    from repro.telemetry import parse_text

    try:
        with GatewayClient(gateway.url) as client:
            samples = parse_text(client.metrics_text())
        seg.scrapes.append(samples)
        if announcements:
            appends = sum(metric_total(samples, "store_appends_total",
                                       table=table)
                          for table in ("announcements", "alerts",
                                        "observations"))
            run.tally.record(None if appends == 3 * announcements else
                             f"store_appends_total {appends:g}, expected "
                             f"{3 * announcements}")
            duplicates = metric_total(samples, "store_duplicates_total")
            run.tally.record(None if duplicates == 0 else
                             f"store_duplicates_total {duplicates:g}")
        seg.rss_mb.append(context.peak_rss_mb(gateway.pid))
    finally:
        gateway.stop()
    if spans is not None:
        seg.traces.append((spans, window))
        seg.setup_steps.append(_gateway_setup_steps(spans, gateway.setup_s))


def _gateway_setup_steps(spans_path: Path, setup_s: float) -> dict:
    steps = setup_breakdown(load_spans(spans_path))
    steps["setup.spawn_overhead_s"] = setup_s - sum(steps.values())
    return steps


def rank_segment(run: Run, setup_repeats: int, traced: bool) -> Segment:
    """Closed loop of sentinel ranks.  The timed cycles are spread over
    every boot (each after its own untimed warm pass), so one slow
    stretch of the machine weighs on a part of the window only."""
    seg = Segment()
    tag = "traced" if traced else "plain"
    rng = random.Random(run.args.seed)
    n = len(run.alerts)
    boots = max(1, setup_repeats)

    def call(client, index):
        return client.rank(run.sentinel(index)[1])

    def record(results, indices, timed_part: bool) -> None:
        for index, (latency_s, server_ms, outcome) in zip(indices, results):
            if isinstance(outcome, Exception):
                run.tally.record(f"rank failed: {outcome}")
                continue
            hit = run.check_ranking(
                encode_ranking(outcome.ranking), index, "sentinel",
                outcome.announcement.to_payload())
            if timed_part:
                seg.alerts += 1
                seg.hits += hit
                seg.latencies_ms.append(latency_s * 1000.0)
                seg.wire_ms.append(latency_s * 1000.0 - (server_ms or 0.0))

    for boot in range(boots):
        cycles = run.units // boots + (boot < run.units % boots)
        warm = rng.sample(range(n), n)
        timed = [i for _ in range(cycles) for i in rng.sample(range(n), n)]
        seg.planned += len(timed)
        gateway, spans = _boot(run, f"rank-{tag}-{boot}", seg, traced=traced)
        began = ended = time.perf_counter()
        try:
            record(closed_loop(gateway.url, warm, CLIENTS, call), warm,
                   False)
            with collection_paused():
                cpu_before = context.process_cpu_seconds(gateway.pid)
                began = time.perf_counter()
                results = closed_loop(gateway.url, timed, CLIENTS, call)
                ended = time.perf_counter()
            seg.cpu_s += context.process_cpu_seconds(gateway.pid) - cpu_before
            seg.window_s += ended - began
            record(results, timed, True)
        finally:
            _finish(run, gateway, spans, seg, (began, ended))
    return seg


def rank_observe_segment(run: Run, setup_repeats: int,
                         traced: bool) -> Segment:
    """Per boot, one chronological pass of rank(sentinel) + observe;
    replies are checked after the pass, outside the timed window."""
    from repro.gateway import GatewayClient, GatewayClientError

    seg = Segment()
    tag = "traced" if traced else "plain"
    rng = random.Random(run.args.seed)
    # Chronological; announcements released at the same instant go in a
    # seeded order (history is strictly-before, so rankings must not move).
    order = sorted(range(len(run.alerts)), key=lambda i: (
        run.alerts[i]["announcement"]["time"], rng.random()))
    for boot in range(max(run.units, setup_repeats)):
        store = run.run_dir / f"store-{tag}-{boot}.db"
        gateway, spans = _boot(run, f"rank_observe-{tag}-{boot}", seg,
                               traced=traced, store=store)
        seg.planned += len(order)
        began = ended = time.perf_counter()
        replies = []
        try:
            with GatewayClient(gateway.url) as client, collection_paused():
                cpu_before = context.process_cpu_seconds(gateway.pid)
                began = time.perf_counter()
                for index in order:
                    real, sentinel = run.sentinel(index)
                    t0 = time.perf_counter()
                    try:
                        alert = client.rank(sentinel)
                        t1 = time.perf_counter()
                        rank_server_ms = client.last_server_duration_ms
                        reply = client.observe(real,
                                               event_id=real.event_id())
                        t2 = time.perf_counter()
                    except GatewayClientError as exc:
                        run.tally.record(f"rank/observe failed: {exc}")
                        continue
                    replies.append((index, alert, reply))
                    seg.latencies_ms.append((t1 - t0) * 1000.0)
                    seg.observe_ms.append((t2 - t1) * 1000.0)
                    seg.wire_ms.append((t1 - t0) * 1000.0
                                       - (rank_server_ms or 0.0))
                    ended = t2
                seg.cpu_s += (context.process_cpu_seconds(gateway.pid)
                              - cpu_before)
            seg.alerts += len(replies)
            seg.window_s += ended - began
            for index, alert, reply in replies:
                seg.hits += run.check_ranking(
                    encode_ranking(alert.ranking), index, "replay",
                    alert.announcement.to_payload())
                run.tally.record("observe reported a duplicate"
                                 if reply.duplicate else None)
        finally:
            _finish(run, gateway, spans, seg, (began, ended),
                    announcements=len(order))
        store.unlink(missing_ok=True)
    return seg


SEGMENTS = {"replay": replay_segment, "rank": rank_segment,
            "rank_observe": rank_observe_segment}


# -- metrics --------------------------------------------------------------------


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n)))


def end_to_end(run: Run, seg: Segment) -> tuple[dict, dict]:
    q = tail_percentile(seg.planned)
    lat = seg.latencies_ms
    metrics = {
        "setup_s": statistics.median(seg.setups),
        "alerts_per_s": seg.alerts_per_s,
        "alert_latency_mean_ms": statistics.fmean(lat),
        "hit_rate_at_3": seg.hits / max(seg.alerts, 1),
        "success_rate": run.tally.success_rate,
        "peak_rss_mb": statistics.median(seg.rss_mb),
    }
    extra = {"alert_latency_p50_ms": statistics.median(lat),
             "alert_latency_tail_ms":
                 statistics.quantiles(lat, n=100, method="inclusive")[q - 1],
             "tail_percentile": q, "tail_n": len(lat)}
    if run.args.workload == "replay":
        extra["messages_per_s"] = seg.messages / seg.window_s
    if seg.observe_ms:
        extra["observe_latency_p50_ms"] = statistics.median(seg.observe_ms)
    return metrics, extra


def per_layer(run: Run, plain: Segment, traced: Segment) -> dict:
    layers = layer_metrics([(load_spans(path), window)
                            for path, window in traced.traces])
    steps = {name: statistics.median(s.get(name, 0.0)
                                     for s in traced.setup_steps)
             for name in SETUP_STEPS + ("setup.spawn_overhead_s",)}
    requests = sum(metric_total(s, "gateway_microbatch_requests_total")
                   for s in traced.scrapes)
    flushes = sum(metric_total(s, "gateway_microbatch_flushes_total")
                  for s in traced.scrapes)
    layers.update(steps)
    layers.update({
        "online.detect.pump_ratio":
            traced.pump_messages / traced.messages if traced.messages
            else 0.0,
        "gateway.wire_ms_p50":
            statistics.median(traced.wire_ms) if traced.wire_ms else 0.0,
        "gateway.microbatch.requests_per_flush":
            requests / flushes if flushes else 0.0,
        "store.duplicates": sum(metric_total(s, "store_duplicates_total")
                                for s in traced.scrapes),
        "proc.cpu_share": plain.cpu_s / plain.window_s,
        "trace.overhead_alerts_per_s":
            traced.alerts_per_s - plain.alerts_per_s,
    })
    return {name: layers[name] for name in PER_LAYER_UNITS}


def client_retries() -> float:
    """This process's ``client_retries_total``, over every endpoint."""
    from repro.telemetry import default_registry

    retries = default_registry().get("client_retries_total")
    return sum(value for _, value in retries.samples()) if retries else 0.0


# -- entry point ----------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=prep.SCALES, default="small",
                        help="world size (tiny is for the self-test)")
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt the first ranking checked (the "
                             "self-test's proof that checks bite)")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no program under test at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    prep_dir = prep.ensure(args.scale)
    run_dir = WORK / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    run = Run(args, prep_dir, run_dir)
    segment = SEGMENTS[args.workload]

    steadiness = {"machine": context.machine(),
                  "openblas_threads": context.openblas_threads(),
                  "calibration_s": context.calibration_seconds()}
    window = context.Window()
    if args.trace:
        # Per-layer figures carry no bound: one boot's share of the work
        # untraced, then the same traced, keeps a traced run short.
        run.units = math.ceil(run.units / SETUP_REPEATS)
        plain = segment(run, 1, traced=False)
        traced = segment(run, 1, traced=True)
    else:
        plain = segment(run, SETUP_REPEATS, traced=False)
    steadiness.update(window.close())
    if plain.openblas_threads is not None:
        steadiness["openblas_threads"] = plain.openblas_threads
    steadiness["proc.cpu_share"] = plain.cpu_s / plain.window_s
    if args.workload != "replay":
        retries = client_retries()
        run.tally.record(None if retries == 0 else
                         f"client_retries_total {retries:g}")
    if args.trace:
        metrics, units = per_layer(run, plain, traced), PER_LAYER_UNITS
        extra = {"untraced_alerts_per_s": plain.alerts_per_s,
                 "traced_alerts_per_s": traced.alerts_per_s}
    else:
        metrics, extra = end_to_end(run, plain)
        units = END_TO_END_UNITS

    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, value in extra.items():
        unit = REPORTED_UNITS.get(name, "")
        print(f"{name} = {value:.6g} {unit}".rstrip())
    print("context: " + json.dumps(steadiness))
    if run.tally.reasons:
        print("failed checks: " + "; ".join(run.tally.reasons))
    result = {
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    out_dir = WORK / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({**result, "extra": extra,
                              "context": steadiness,
                              "failed_checks": run.tally.reasons}, indent=1))
    if args.trace:
        spans_dir = out_dir / f"spans-{args.workload}-seed{args.seed}"
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir()
        for path, _ in traced.traces:
            shutil.move(str(path), spans_dir / path.name)
    shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
