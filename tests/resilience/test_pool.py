"""Worker-pool lifecycle over the real CLI (PR 9).

One ``repro gateway --workers 2 --store`` subprocess, taken through the
whole supervision contract:

* a ``kill -9``-ed worker is respawned and the pool keeps answering;
* observations stream through one worker, deduplicate through the
  shared event log on every worker, and never double-count;
* rankings from different connections (hence possibly different
  workers) are bit-identical to each other *and* to an in-process
  service rehydrated from the same store;
* any worker's ``/v1/metrics`` answers for the whole pool;
* SIGTERM to the supervisor fans out, every worker drains and flushes,
  and the supervisor exits 0.

And, for one worker (the in-process default) and for two: stats
snapshots follow ``--snapshot-s``, whatever the metrics-publish cadence.
"""

from __future__ import annotations

import os
import queue
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.gateway import GatewayClient
from repro.gateway.pool import print_line
from repro.store import SQLiteEventStore, rehydrate_service
from tests.resilience.test_recovery import _LineReader
from tests.store.conftest import (
    announcements_from,
    exact,
    probe_for,
    unobserved_ranking,
)

_SERVING = re.compile(r"gateway\[w(\d+)\]: serving \(pid (\d+)\)")


def _spawn_pool(artifact: Path, db: Path, workers: int, snapshot_s: int = 1
                ) -> tuple[subprocess.Popen, _LineReader, str]:
    src_root = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "gateway",
         "--scale", "tiny", "--seed", "7",
         "--load", str(artifact), "--registry", str(artifact.parents[1]),
         "--host", "127.0.0.1", "--port", "0",
         "--workers", str(workers),
         "--store", str(db), "--snapshot-s", str(snapshot_s),
         "--drain-s", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, start_new_session=True,
    )
    reader = _LineReader(proc)
    line = reader.wait_for("gateway listening on http://")
    url = line.split("listening on ", 1)[1].split()[0]
    return proc, reader, url


def _worker_pids(reader: _LineReader, expect: int) -> dict[int, int]:
    """Worker slot -> pid from the ``serving (pid N)`` boot lines."""
    pids: dict[int, int] = {}
    for slot in range(expect):
        # Per-slot needles: wait_for replays already-seen lines, so a
        # generic "serving (pid" needle would match slot 0 forever.
        line = reader.wait_for(f"gateway[w{slot}]: serving (pid")
        match = _SERVING.search(line)
        assert match, line
        pids[slot] = int(match.group(2))
    return pids


def _wait_for_respawn(reader: _LineReader, slot: int, old_pid: int,
                      timeout: float = 180.0) -> int:
    """Block until worker ``slot`` serves again under a fresh pid.

    Drains ``reader.lines`` directly: the needle a ``wait_for`` would
    use is already in ``seen`` from the first boot, so only genuinely
    new output can prove the respawn.
    """
    def fresh(line: str) -> int | None:
        match = _SERVING.search(line)
        if match and int(match.group(1)) == slot \
                and int(match.group(2)) != old_pid:
            return int(match.group(2))
        return None

    for line in reader.seen:
        pid = fresh(line)
        if pid is not None:
            return pid
    deadline = time.monotonic() + timeout
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise AssertionError(
                f"worker {slot} never respawned; got:\n"
                + "".join(reader.seen))
        try:
            line = reader.lines.get(timeout=min(remaining, 1.0))
        except queue.Empty:
            continue
        reader.seen.append(line)
        pid = fresh(line)
        if pid is not None:
            return pid


@pytest.mark.slow
class TestWorkerPoolLifecycle:
    def test_crash_respawn_dedup_parity_and_drain(self, st_registry,
                                                  st_service, st_positives,
                                                  tmp_path):
        artifact = st_registry.resolve("snn")
        db = tmp_path / "events.db"
        streamed = announcements_from(st_positives, 3)
        probe = probe_for(streamed[0])

        proc, reader, url = _spawn_pool(artifact, db, workers=2)
        try:
            reader.wait_for("gateway pool: supervising 2 workers")
            pids = _worker_pids(reader, expect=2)
            assert len(pids) == 2

            client = GatewayClient(url, timeout=120.0)
            assert client.healthz().status == "ok"

            # Crash one worker: the supervisor must respawn it and the
            # pool must keep answering throughout.
            os.kill(pids[0], signal.SIGKILL)
            reader.wait_for("; respawning")
            new_pid = _wait_for_respawn(reader, slot=0, old_pid=pids[0])
            assert new_pid != pids[0]
            assert client.healthz().status == "ok"

            # Stream observations (fresh), then retransmit them through a
            # *new* client — new connections, possibly another worker.
            # The shared event log must deduplicate every one.
            for i, announcement in enumerate(streamed):
                assert client.observe(
                    announcement, event_id=f"cli:pool-{i}"
                ).duplicate is False
            retrier = GatewayClient(url, timeout=120.0)
            for i, announcement in enumerate(streamed):
                assert retrier.observe(
                    announcement, event_id=f"cli:pool-{i}"
                ).duplicate is True

            # Rankings agree across connections/workers, and with an
            # in-process service rehydrated from the same event log.
            first = exact(client.rank(probe).ranking)
            second = exact(retrier.rank(probe).ranking)
            assert first == second
            assert first != unobserved_ranking(st_service, probe)
            with SQLiteEventStore(db) as store:
                reborn = st_service(store=store, arch="snn")
                recovered = rehydrate_service(reborn, store)
                assert recovered["observations"] == len(streamed)
                assert exact(
                    reborn.rank_batch([probe])[0].ranking) == first

            # Any single worker answers a pool-level metrics scrape.
            deadline = time.monotonic() + 30.0
            while True:
                metrics = client.metrics_text()
                if ("gateway_requests_total" in metrics
                        and 'worker="0"' in metrics
                        and 'worker="1"' in metrics):
                    break
                assert time.monotonic() < deadline, metrics
                time.sleep(1.0)

            # SIGTERM the supervisor: fan-out, drain, flush, exit 0.
            os.kill(proc.pid, signal.SIGTERM)
            reader.wait_for("gateway[w0]: drained, event log flushed")
            reader.wait_for("gateway[w1]: drained, event log flushed")
            reader.wait_for("gateway pool: all workers exited")
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
                proc.wait(timeout=30)

        # Nothing double-counted, stats snapshot flushed.
        with SQLiteEventStore(db) as store:
            assert store.counts()["observations"] == len(streamed)
            assert store.latest_stats() is not None


def test_print_line_writes_each_line_once(monkeypatch):
    """Pool processes share stdout: a line must leave in one write, or two
    workers booting together interleave mid-line under ``python -u``."""
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Recorder())
    print_line("gateway[w0]: serving (pid 1)")
    assert writes == ["gateway[w0]: serving (pid 1)\n"]


@pytest.mark.slow
@pytest.mark.parametrize("workers", [1, 2])
def test_stats_snapshots_follow_snapshot_s(st_registry, tmp_path, workers):
    """``--snapshot-s 30`` over a few seconds of serving: no periodic
    snapshot falls due, so each worker writes only its final one."""
    db = tmp_path / "events.db"
    proc, reader, url = _spawn_pool(st_registry.resolve("dnn"), db, workers,
                                    snapshot_s=30)
    try:
        _worker_pids(reader, expect=workers)
        assert GatewayClient(url, timeout=120.0).healthz().status == "ok"
        # Longer than the pool's 2 s metrics-publish period.
        time.sleep(5.0)
        os.kill(proc.pid, signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
    finally:
        if proc.poll() is None:
            os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
            proc.wait(timeout=30)
    with SQLiteEventStore(db) as store:
        assert store.counts()["stats_snapshots"] == workers
