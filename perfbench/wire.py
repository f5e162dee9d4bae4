"""The real ``repro gateway`` as a child process, and the load it gets.

:class:`Gateway` spawns the CLI (or, traced, :mod:`launcher`) and times
boot-to-ready: from spawn until ``/v1/healthz`` first answers 200.  The
benchmark only waits for the gateway's listening line meanwhile, so it is
idle.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from prep import WORLD_SEED, child_env

HERE = Path(__file__).resolve().parent
LISTENING = re.compile(r"gateway listening on (http://\S+)")
# A boot takes ~5 s at --scale small; past these the gateway is killed.
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0


class Gateway:
    """One booted ``repro gateway --workers 1`` process."""

    def __init__(self, scale: str, prep_dir: Path, run_dir: Path, name: str,
                 *, store: Path | None = None, spans: Path | None = None):
        args = ["gateway", "--scale", scale, "--seed", str(WORLD_SEED),
                "--load", str(prep_dir / "artifact"),
                "--registry", str(run_dir / "registry"),
                "--port", "0", "--workers", "1"]
        if store is not None:
            args += ["--store", str(store)]
        if spans is not None:
            command = [sys.executable, str(HERE / "launcher.py"),
                       str(spans)] + args
        else:
            command = [sys.executable, "-m", "repro"] + args
        self.log_path = run_dir / f"{name}.log"
        self._log = open(self.log_path, "w")
        self._reader: threading.Thread | None = None
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, text=True,
            env=child_env(), cwd=run_dir,
        )
        try:
            self.url = self._await_listening()
            from repro.gateway import GatewayClient

            with GatewayClient(self.url) as client:
                client.healthz()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _await_listening(self) -> str:
        """The URL the gateway prints, waiting at most BOOT_TIMEOUT_S.  A
        reader thread drains stdout until the gateway exits, so the child
        never blocks on a full pipe."""
        urls: queue.Queue = queue.Queue()

        def read() -> None:
            for line in self.process.stdout:
                match = LISTENING.search(line)
                if match:
                    urls.put(match.group(1))
            urls.put(None)

        self._reader = threading.Thread(target=read, daemon=True)
        self._reader.start()
        try:
            url = urls.get(timeout=BOOT_TIMEOUT_S)
        except queue.Empty:
            url = None
        if url is None:
            raise RuntimeError(f"gateway did not come up within "
                               f"{BOOT_TIMEOUT_S:g} s; see {self.log_path}")
        return url

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait for the process to end."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        if self._reader is not None:
            self._reader.join()
        self.process.stdout.close()
        self._log.close()


def metric_total(samples, name: str, **labels: str) -> float:
    """Sum of ``name`` over the parsed series carrying every given label."""
    return sum(s.value for s in samples if s.name == name
               and all(s.labels_dict.get(k) == v
                       for k, v in labels.items()))


@contextlib.contextmanager
def collection_paused():
    """The load generator's cyclic GC off while it times requests, as
    ``timeit`` does.  It keeps every reply for the checks that follow, so
    its full collections grow with the run and would stall every client
    thread inside the window.  The serving process is untouched."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def closed_loop(url: str, items: list, clients: int, call) -> list:
    """Each of ``clients`` keep-alive clients sends its next item only
    after the previous reply.  Returns, per item, ``(latency_s,
    server_ms, result_or_error)``."""
    from repro.gateway import GatewayClient, GatewayClientError

    results: list = [None] * len(items)
    indices = itertools.count()

    def worker() -> None:
        with GatewayClient(url) as client:
            while True:
                index = next(indices)
                if index >= len(items):
                    return
                began = time.perf_counter()
                try:
                    outcome = call(client, items[index])
                except GatewayClientError as exc:
                    outcome = exc
                results[index] = (time.perf_counter() - began,
                                  client.last_server_duration_ms, outcome)

    threads = [threading.Thread(target=worker) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results
