"""Gateway wire overhead and scale-out: HTTP clients vs in-process calls.

ISSUE 5's operational question: what does the JSON-over-HTTP hop cost
relative to calling :class:`PredictionService` directly?  Both paths
score the *same* fixed announcement mix through the same trained ranker;
the in-process baseline runs the calls sequentially in-process, the
gateway path hammers ``POST /v1/rank`` from several threads of
:class:`GatewayClient`s against a real :class:`ThreadingHTTPServer`.

PR 9 adds the scale-out sweep: the real ``repro gateway`` CLI booted as
a worker pool (``--workers``, cross-connection micro-batching enabled),
hammered by 1/4/16/32 keep-alive clients, with bit-for-bit parity
between the pooled wire path and an in-process ``rank_one`` asserted on
every sweep.

Announcements carry the ``coin_id=-1`` sentinel so neither path mutates
channel history — the workload is stationary and every request is
directly comparable.  Reported: req/s plus client-observed p50/p99
latency (``benchmarks/results/bench_gateway_throughput`` and
``bench_gateway_scaling``), stamped with the machine context the numbers
were recorded on.
"""

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from benchmarks._reporting import machine_context, report
from benchmarks.conftest import run_once
from repro.core import train_predictor
from repro.data import collect
from repro.gateway import GatewayApp, GatewayClient, serve_in_thread
from repro.registry import ModelRegistry
from repro.serving import Announcement, PredictionService
from repro.simulation import SyntheticWorld
from repro.sources import SyntheticWorldSource
from repro.utils import ReproConfig

EPOCHS = int(os.environ.get("REPRO_BENCH_EPOCHS", "8"))
CLIENT_THREADS = 4
REQUESTS_PER_CLIENT = 25

# Scale-out sweep: fixed request total so req/s is comparable across
# client counts; 192 divides evenly by every swept concurrency.
WORKER_COUNTS = (1, 4)
CLIENT_COUNTS = (1, 4, 16, 32)
SWEEP_REQUESTS = 192
# The pre-pool recording (PR 6 seed, connection-per-request clients, no
# micro-batching) this sweep's speedup line is measured against.
PRE_POOL_BASELINE_RPS = 60.0


@pytest.fixture(scope="module")
def gateway_setup():
    source = SyntheticWorldSource(SyntheticWorld.generate(ReproConfig.tiny()))
    collection = collect(source)
    predictor = train_predictor(source, collection, epochs=EPOCHS, seed=0)
    positives = [
        e for e in collection.dataset.examples
        if e.label == 1 and e.split == "test"
    ]
    announcements = [
        Announcement(channel_id=e.channel_id, coin_id=-1, exchange_id=0,
                     pair="BTC", time=e.time)
        for e in positives[:8]
    ]
    assert announcements, "tiny world produced no test positives"
    return source, collection, predictor, announcements


def percentiles(latencies_ms):
    return (float(np.percentile(latencies_ms, 50)),
            float(np.percentile(latencies_ms, 99)))


def test_gateway_throughput(benchmark, gateway_setup):
    source, collection, predictor, announcements = gateway_setup
    total = CLIENT_THREADS * REQUESTS_PER_CLIENT
    workload = [announcements[i % len(announcements)] for i in range(total)]

    # -- in-process baseline -------------------------------------------------
    baseline_service = PredictionService(predictor)
    baseline_latencies = []
    started = time.perf_counter()
    for announcement in workload:
        tick = time.perf_counter()
        alert = baseline_service.rank_one(announcement)
        baseline_latencies.append((time.perf_counter() - tick) * 1000.0)
        assert alert.ranking.scores
    baseline_seconds = time.perf_counter() - started
    baseline_rps = total / baseline_seconds

    # -- gateway: concurrent clients over real HTTP --------------------------
    gateway_service = PredictionService(predictor)
    app = GatewayApp(gateway_service)
    server, _thread = serve_in_thread(app)
    try:
        shared_latencies = [[] for _ in range(CLIENT_THREADS)]
        errors: list[BaseException] = []
        start_line = threading.Barrier(CLIENT_THREADS + 1)

        def hammer(worker: int) -> None:
            client = GatewayClient(server.url)
            chunk = workload[worker::CLIENT_THREADS]
            try:
                start_line.wait(timeout=60)
                for announcement in chunk:
                    tick = time.perf_counter()
                    alert = client.rank(announcement)
                    shared_latencies[worker].append(
                        (time.perf_counter() - tick) * 1000.0
                    )
                    assert alert.ranking.scores
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        workers = [
            threading.Thread(target=hammer, args=(index,))
            for index in range(CLIENT_THREADS)
        ]
        for worker in workers:
            worker.start()

        def run_gateway_side():
            start_line.wait(timeout=60)
            for worker in workers:
                worker.join()

        started = time.perf_counter()
        run_once(benchmark, run_gateway_side)
        gateway_seconds = time.perf_counter() - started
    finally:
        server.shutdown()
        server.server_close()

    assert not errors, f"gateway requests failed: {errors[:3]}"
    gateway_latencies = [l for per in shared_latencies for l in per]
    assert len(gateway_latencies) == total
    gateway_rps = total / gateway_seconds

    base_p50, base_p99 = percentiles(baseline_latencies)
    gate_p50, gate_p99 = percentiles(gateway_latencies)
    overhead_ms = gate_p50 - base_p50
    report(
        "bench_gateway_throughput",
        f"{machine_context()}\n"
        f"workload: {total} rank requests, {len(announcements)} distinct "
        f"announcements, {EPOCHS}-epoch snn\n"
        f"in-process PredictionService (sequential): "
        f"{baseline_rps:.0f} req/s, p50 {base_p50:.2f} ms, "
        f"p99 {base_p99:.2f} ms\n"
        f"HTTP gateway ({CLIENT_THREADS} concurrent keep-alive clients): "
        f"{gateway_rps:.0f} req/s, p50 {gate_p50:.2f} ms, "
        f"p99 {gate_p99:.2f} ms\n"
        f"wire + scheduling overhead at p50: {overhead_ms:.2f} ms",
    )
    # Sanity floor only — CI machines vary too much for a speed threshold.
    assert gateway_rps > 0


# ---------------------------------------------------------------------------
# PR 9: worker-pool scale-out sweep over the real CLI.
# ---------------------------------------------------------------------------

def exact(alert):
    return tuple((s.coin_id, s.probability) for s in alert.ranking.scores)


@pytest.fixture(scope="module")
def pool_registry(gateway_setup, tmp_path_factory):
    """The trained predictor published as an artifact the CLI can load."""
    _source, _collection, predictor, _announcements = gateway_setup
    registry = ModelRegistry(tmp_path_factory.mktemp("bench-registry"))
    registry.publish(predictor, "dnn", provenance={"model": "dnn"})
    return registry


def _spawn_pool(registry: ModelRegistry, workers: int) -> tuple:
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_root, env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "gateway",
         "--scale", "tiny", "--seed", "7",
         "--load", "dnn", "--registry", str(registry.root),
         "--host", "127.0.0.1", "--port", "0",
         "--workers", str(workers)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    url = None
    deadline = time.monotonic() + 600
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line and proc.poll() is not None:
            raise AssertionError(f"gateway pool died (exit {proc.poll()})")
        if "gateway listening on http://" in line:
            url = line.split("listening on ", 1)[1].split()[0]
            break
    assert url, "gateway pool never reported its address"
    # Keep the pipe drained so worker boot lines cannot block the pool.
    threading.Thread(target=proc.stdout.read, daemon=True).start()
    probe = GatewayClient(url, timeout=120.0)
    for _ in range(600):
        try:
            if probe.healthz().status == "ok":
                break
        except Exception:
            time.sleep(0.5)
    probe.close()
    return proc, url


def _hammer(url: str, workload, clients: int):
    """Total wall seconds + per-request latencies for one sweep point."""
    latencies = [[] for _ in range(clients)]
    errors: list[BaseException] = []
    start_line = threading.Barrier(clients + 1)

    def run(worker: int) -> None:
        client = GatewayClient(url, timeout=120.0)
        chunk = workload[worker::clients]
        try:
            # Warm before the clock: open the connection AND rank once,
            # so a worker's lazy compiled-plan build never lands inside
            # a measured window.
            client.rank(workload[0])
            start_line.wait(timeout=120)
            for announcement in chunk:
                tick = time.perf_counter()
                alert = client.rank(announcement)
                latencies[worker].append(
                    (time.perf_counter() - tick) * 1000.0)
                assert alert.ranking.scores
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)
        finally:
            client.close()

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(clients)]
    for thread in threads:
        thread.start()
    start_line.wait(timeout=120)
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - started
    assert not errors, f"sweep requests failed: {errors[:3]}"
    flat = [l for per in latencies for l in per]
    assert len(flat) == len(workload)
    return seconds, flat


def test_gateway_scaling(benchmark, gateway_setup, pool_registry):
    _source, _collection, predictor, announcements = gateway_setup
    workload = [announcements[i % len(announcements)]
                for i in range(SWEEP_REQUESTS)]
    expected = exact(PredictionService(predictor).rank_one(announcements[0]))

    lines = [machine_context(),
             f"workload: {SWEEP_REQUESTS} rank requests per sweep point "
             f"(best of 3 passes), {len(announcements)} distinct "
             f"announcements, {EPOCHS}-epoch snn, contention micro-batching"]
    curve: dict[tuple[int, int], float] = {}

    def sweep() -> None:
        for workers in WORKER_COUNTS:
            proc, url = _spawn_pool(pool_registry, workers)
            try:
                for clients in CLIENT_COUNTS:
                    # Best of three passes: on a busy one-core box a
                    # single pass measures scheduler luck as much as
                    # the gateway (noted in the recorded results).
                    passes = [_hammer(url, workload, clients)
                              for _ in range(3)]
                    seconds, lat = min(passes, key=lambda p: p[0])
                    rps = SWEEP_REQUESTS / seconds
                    curve[(workers, clients)] = rps
                    p50, p99 = percentiles(lat)
                    lines.append(
                        f"workers={workers} clients={clients:>2}: "
                        f"{rps:7.0f} req/s, p50 {p50:6.2f} ms, "
                        f"p99 {p99:7.2f} ms")
                # Coalesced wire rankings stay bit-identical to the
                # in-process engine: same announcement from many
                # connections lands in shared micro-batches.
                parity = GatewayClient(url, timeout=120.0)
                got = [exact(parity.rank(announcements[0]))
                       for _ in range(4)]
                parity.close()
                assert all(g == expected for g in got), \
                    f"pooled ranking diverged from in-process (workers={workers})"
            finally:
                proc.terminate()
                proc.wait(timeout=60)

    run_once(benchmark, sweep)

    pooled = curve[(max(WORKER_COUNTS), 16)]
    solo16 = curve[(1, 16)]
    lines.append(
        f"bit-for-bit parity with in-process rank_one: OK "
        f"(all pooled sweeps)")
    lines.append(
        f"workers=1 x 16 clients vs pre-pool baseline "
        f"({PRE_POOL_BASELINE_RPS:.0f} req/s, PR 6 recording): "
        f"{solo16 / PRE_POOL_BASELINE_RPS:.1f}x")
    lines.append(
        f"workers={max(WORKER_COUNTS)} x 16 clients vs pre-pool baseline: "
        f"{pooled / PRE_POOL_BASELINE_RPS:.1f}x "
        f"(on a 1-core box extra workers only add scheduling overhead; "
        f"the pool pays off once there are cores to saturate)"
        if os.cpu_count() == 1 else
        f"workers={max(WORKER_COUNTS)} x 16 clients vs pre-pool baseline: "
        f"{pooled / PRE_POOL_BASELINE_RPS:.1f}x")
    report("bench_gateway_scaling", "\n".join(lines))
    # Sanity floor only — CI machines vary too much for a speed threshold.
    assert pooled > 0
