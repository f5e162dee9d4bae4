"""Crash-safe recovery: kill the gateway, restart on the same event log.

Two layers of the same contract:

* in-process — a gateway's service+store are abandoned mid-flight (no
  flush, no close: the handles simply die with the "process") and a new
  gateway boots on the same file.  Rankings must come back bit-identical
  and no event may double-count.
* subprocess — the real ``repro gateway`` CLI is ``kill -9``-ed and
  restarted on the same ``--store``; the reborn process must rehydrate,
  serve identical rankings, deduplicate a pre-crash observe retry, and
  exit 0 on SIGTERM after draining.
"""

import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.gateway import GatewayApp, GatewayClient, serve_in_thread
from repro.store import SQLiteEventStore, rehydrate_service
from tests.store.conftest import (
    announcements_from,
    exact,
    probe_for,
    unobserved_ranking,
)


class TestInProcessCrashRecovery:
    def test_http_streamed_state_survives_a_crash(self, tiny_registry,
                                                  st_service, st_positives,
                                                  tmp_path):
        db = tmp_path / "events.db"
        streamed = announcements_from(st_positives, 3)
        probe = probe_for(streamed[0])

        # First life: real HTTP traffic into a store-backed gateway.
        first_app = GatewayApp(
            st_service(store=SQLiteEventStore(db), arch="snn"),
            registry=tiny_registry)
        first_server, _ = serve_in_thread(first_app)
        client = GatewayClient(first_server.url)
        ids = [f"cli:recovery-{i}" for i in range(len(streamed))]
        for announcement, event_id in zip(streamed, ids):
            assert client.observe(announcement,
                                  event_id=event_id).duplicate is False
        expected = exact(client.rank(probe).ranking)
        assert expected != unobserved_ranking(st_service, probe)
        alerts_before = first_app.service.stats.alerts
        # The crash: the server stops but neither flushes nor closes the
        # store — every committed append must already be durable.
        first_server.shutdown()
        first_server.server_close()

        # Second life: fresh service, fresh handle, same file.
        store = SQLiteEventStore(db)
        reborn = st_service(store=store, arch="snn")
        recovered = rehydrate_service(reborn, store)
        assert recovered["observations"] == len(streamed)
        second_app = GatewayApp(reborn, registry=tiny_registry)
        second_server, _ = serve_in_thread(second_app)
        try:
            client = GatewayClient(second_server.url)
            assert exact(client.rank(probe).ranking) == expected
            # stats survived: the pre-crash rank is still counted.
            assert client.stats().service["alerts"] >= alerts_before
            # A client retrying its pre-crash observes: all duplicates,
            # nothing double-counted.
            for announcement, event_id in zip(streamed, ids):
                assert client.observe(announcement,
                                      event_id=event_id).duplicate is True
            assert store.counts()["observations"] == len(streamed)
            assert exact(client.rank(probe).ranking) == expected
        finally:
            second_server.shutdown()
            second_server.server_close()


class _LineReader:
    """Pump a subprocess's stdout into a queue without blocking the test."""

    def __init__(self, proc: subprocess.Popen):
        self.lines: "queue.Queue[str]" = queue.Queue()
        self.seen: list[str] = []
        self._thread = threading.Thread(target=self._pump, args=(proc,),
                                        daemon=True)
        self._thread.start()

    def _pump(self, proc: subprocess.Popen) -> None:
        for line in proc.stdout:
            self.lines.put(line)

    def wait_for(self, needle: str, timeout: float = 180.0) -> str:
        # A line consumed while waiting for an earlier needle still
        # satisfies a later wait (boot prints several lines at once).
        for line in self.seen:
            if needle in line:
                return line
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise AssertionError(
                    f"never saw {needle!r} in gateway output; got:\n"
                    + "".join(self.seen))
            try:
                line = self.lines.get(timeout=min(remaining, 1.0))
            except queue.Empty:
                continue
            self.seen.append(line)
            if needle in line:
                return line


def _spawn_gateway(artifact: Path, db: Path) -> tuple[subprocess.Popen,
                                                      _LineReader, str]:
    src_root = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro", "gateway",
         "--scale", "tiny", "--seed", "7",
         "--load", str(artifact), "--registry", str(artifact.parents[1]),
         "--host", "127.0.0.1", "--port", "0",
         "--store", str(db), "--snapshot-s", "1", "--drain-s", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, start_new_session=True,
    )
    reader = _LineReader(proc)
    line = reader.wait_for("gateway listening on http://")
    url = line.split("listening on ", 1)[1].split()[0]
    return proc, reader, url


@pytest.mark.slow
class TestSubprocessKill9:
    def test_kill9_restart_rehydrate_bit_identical(self, tiny_registry,
                                                   st_service, st_positives,
                                                   tmp_path):
        artifact = tiny_registry.resolve("snn")
        db = tmp_path / "events.db"
        streamed = announcements_from(st_positives, 2)
        probe = probe_for(streamed[0])

        # Life 1: boot, stream observations + rankings, then kill -9.
        proc, _reader, url = _spawn_gateway(artifact, db)
        try:
            client = GatewayClient(url)
            for i, announcement in enumerate(streamed):
                assert client.observe(
                    announcement, event_id=f"cli:kill9-{i}"
                ).duplicate is False
            expected = exact(client.rank(probe).ranking)
            assert expected != unobserved_ranking(st_service, probe)
            assert client.stats().service["alerts"] >= 1
        finally:
            proc.kill()   # SIGKILL: no drain, no flush, no goodbye
            proc.wait(timeout=30)

        # The WAL holds the history even though the process never exited.
        with SQLiteEventStore(db) as store:
            counts = store.counts()
        assert counts["observations"] == len(streamed)
        assert counts["alerts"] >= 1

        # Life 2: same command, same store — must rehydrate and agree.
        proc, reader, url = _spawn_gateway(artifact, db)
        try:
            boot_line = reader.wait_for("rehydrated from")
            assert f"{len(streamed)} observations" in boot_line
            client = GatewayClient(url)
            assert exact(client.rank(probe).ranking) == expected, \
                "rehydrated gateway must rank bit-identically"
            # A pre-crash observe retransmission: deduplicated, not
            # double-counted.
            assert client.observe(streamed[0],
                                  event_id="cli:kill9-0").duplicate is True
            # Satellite (b): SIGTERM → drain → flush → exit 0.
            os.killpg(os.getpgid(proc.pid), signal.SIGTERM)
            reader.wait_for("drained, event log flushed")
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        with SQLiteEventStore(db) as store:
            assert store.counts()["observations"] == len(streamed)
            assert store.latest_stats() is not None
