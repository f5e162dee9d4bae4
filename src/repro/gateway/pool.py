"""The gateway's serving lifecycle: one worker loop, run alone or pooled.

``repro gateway --workers 1`` runs :func:`worker_serve` in-process;
``--workers N`` forks it N times under a supervisor, giving N
shared-nothing worker processes:

* :func:`bind_pool_sockets` binds the listening address **before** the
  fork — one ``SO_REUSEPORT`` socket per worker where the platform
  supports it (the kernel then load-balances accepts across workers'
  separate accept queues), falling back to a single parent-bound socket
  every forked child accepts on.  A lone worker gets one plain socket;
* :func:`run_pool` is the supervisor: it forks the workers, reaps and
  respawns crashes (with a fast-crash give-up so a boot-time bug cannot
  fork-bomb), fans ``SIGTERM``/``SIGINT`` out to the children and waits
  — with a hard deadline — for every worker to drain in-flight requests,
  flush its final store snapshot and exit;
* :func:`worker_serve` is one worker's whole life: turn numpy's BLAS
  down to one thread, build the app (the caller's ``build`` callback
  runs *post-fork*, so each worker owns its SQLite connection and store
  cursor), adopt the bound socket, serve, snapshot stats every
  ``snapshot_s``, drain on SIGTERM, snapshot and flush.

Each worker scores on one BLAS thread, so ``--workers`` is the one
parallelism setting: N workers use N cores, not N x OpenBLAS's default
of one thread per core.  A ~437-row forward pass gains nothing from a
second thread, and the idle one busy-waits between passes.  Boot (source,
``collect``, artifact load) runs before :func:`worker_serve` and keeps
the default.

Workers are shared-nothing except for two files: the ``--store`` event
log (WAL SQLite — every worker appends its own observations and folds
everyone's in store sequence order, so histories and therefore rankings
stay bit-identical to a single process) and a metrics
spool directory each worker dumps its rendered exposition into, letting
any worker answer a **pool-level** ``/v1/metrics`` scrape by merging the
peers' latest dumps (:func:`repro.telemetry.merge_expositions`).
"""

from __future__ import annotations

import os
import signal
import socket
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Sequence

from repro.gateway.server import GatewayHTTPServer, make_server
from repro.telemetry import merge_expositions
from repro.utils.blas import limit_blas_threads

#: Consecutive fast crashes (exit < ``_FAST_CRASH_S`` after spawn) before
#: the supervisor stops respawning a worker slot.
MAX_FAST_CRASHES = 5
_FAST_CRASH_S = 1.0

#: Seconds between a worker's periodic metric-exposition dumps.
METRICS_PUBLISH_S = 2.0

#: Supervisor reap-poll cadence; also bounds SIGTERM reaction latency.
_REAP_POLL_S = 0.1

#: Grace beyond ``drain_s`` before straggling workers get SIGKILL.
_KILL_GRACE_S = 5.0


def print_line(line: str, *, stderr: bool = False) -> None:
    """Print ``line`` in one write.

    Pool processes share one stdout, and ``print`` writes the text and
    its newline separately: on an unbuffered stream (``python -u``) two
    workers booting together could interleave mid-line.  A single
    write of a short line to a pipe or file lands whole.
    """
    stream = sys.stderr if stderr else sys.stdout
    stream.write(line + "\n")
    stream.flush()


def bind_pool_sockets(host: str, port: int,
                      workers: int) -> tuple[list[socket.socket], int]:
    """Bind the pool's listening sockets before forking.

    Returns ``(sockets, bound_port)``.  With ``SO_REUSEPORT`` (Linux,
    BSDs) each worker gets its **own** bound socket — separate kernel
    accept queues the kernel hashes connections across.  Without it, one
    socket is returned and every worker accepts on the shared file
    description.  ``port=0`` picks a free port on the first bind; the
    siblings then bind the concrete port it landed on.  A single worker
    binds without ``SO_REUSEPORT``, so a port another process holds is
    refused instead of shared.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    reuseport = getattr(socket, "SO_REUSEPORT", None) if workers > 1 \
        else None
    sockets: list[socket.socket] = []
    try:
        for _index in range(workers if reuseport is not None else 1):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                if reuseport is not None:
                    sock.setsockopt(socket.SOL_SOCKET, reuseport, 1)
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.bind((host, port))
                sock.listen(128)
            except OSError:
                sock.close()
                if reuseport is not None and sockets:
                    # Platform advertises SO_REUSEPORT but refused the
                    # sibling bind: fall back to sharing the first socket.
                    break
                raise
            sockets.append(sock)
            if port == 0:
                port = sock.getsockname()[1]
        if len(sockets) < workers:
            # Shared-socket fallback: N workers race accept() on one file
            # description.  A loser of the race would block in accept()
            # deaf to shutdown; a timeout turns that into a retried poll
            # (accepted connections are returned in blocking mode).
            sockets[0].settimeout(1.0)
        return sockets, port
    except OSError:
        for sock in sockets:
            sock.close()
        raise


class PoolMetrics:
    """One worker's corner of the pool's shared metrics spool.

    ``publish`` atomically replaces this worker's dump file;
    ``merge`` folds every sibling's latest dump into this worker's own
    fresh exposition so any single worker answers a pool-wide scrape.
    """

    def __init__(self, directory: str | Path, worker_id: int):
        self.directory = Path(directory)
        self.worker_id = worker_id
        self._own = self.directory / f"worker-{worker_id}.prom"

    def publish(self, text: str) -> None:
        tmp = self._own.with_suffix(".tmp")
        try:
            tmp.write_text(text, encoding="utf-8")
            os.replace(tmp, self._own)
        except OSError:  # spool dir vanished: scraping degrades, serving
            pass         # must not

    def merge(self, own_text: str) -> str:
        self.publish(own_text)
        documents = [own_text]
        for path in sorted(self.directory.glob("worker-*.prom")):
            if path == self._own:
                continue
            try:
                documents.append(path.read_text(encoding="utf-8"))
            except OSError:  # sibling mid-replace or gone: skip its dump
                continue
        return merge_expositions(documents)


def worker_serve(worker_id: int, listen_socket: socket.socket,
                 build: Callable[[int], tuple], *,
                 verbose: bool = False, max_inflight: int | None = None,
                 deadline_ms: float | None = None,
                 snapshot_s: float = 30.0, drain_s: float = 10.0,
                 metrics_dir: str | Path | None = None) -> int:
    """One worker, boot to drained exit (in-process or forked).

    ``build(worker_id)`` runs here — after any fork — and returns
    ``(app, store)``; the store may be ``None``.  Returns the process
    exit code: 0 after a clean drain, 1 when in-flight requests were
    still running at the drain deadline.
    """
    if limit_blas_threads(1):
        print_line(f"gateway[w{worker_id}]: scoring on 1 BLAS thread")
    else:
        print_line(f"gateway[w{worker_id}]: numpy's BLAS is not OpenBLAS; "
                   "its thread count is unchanged")
    app, store = build(worker_id)
    app.telemetry.registry.gauge(
        "gateway_worker_info",
        "Pool worker identity (always 1; worker id in the label).",
        ("worker",),
    ).labels(worker=str(worker_id)).set(1)

    exchange = None
    if metrics_dir is not None:
        exchange = PoolMetrics(metrics_dir, worker_id)
        app.metrics_merge = exchange.merge

    server: GatewayHTTPServer = make_server(
        app, verbose=verbose, max_inflight=max_inflight,
        deadline_ms=deadline_ms, listen_socket=listen_socket,
    )

    def _render_own() -> str:
        return app.telemetry.render_metrics(app.service.stats.registry)

    def _on_term(signum, frame):
        print_line(f"gateway[w{worker_id}]: SIGTERM received, draining")
        server.begin_drain()
        threading.Thread(target=server.shutdown, daemon=True).start()

    previous_term = signal.signal(signal.SIGTERM, _on_term)
    previous_int = signal.signal(signal.SIGINT, _on_term)

    stop = threading.Event()

    def _every(period: float, action: Callable[[], object]) -> None:
        while not stop.wait(period):
            action()

    jobs = []
    if store is not None:
        jobs.append((snapshot_s, app.snapshot_stats))
    if exchange is not None:
        jobs.append((METRICS_PUBLISH_S,
                     lambda: exchange.publish(_render_own())))
    periodic = [threading.Thread(target=_every, args=job, daemon=True,
                                 name=f"repro-worker-{worker_id}-periodic")
                for job in jobs]
    for thread in periodic:
        thread.start()

    print_line(f"gateway[w{worker_id}]: serving (pid {os.getpid()})")
    drained = True
    try:
        server.serve_forever()
        drained = server.wait_drained(drain_s)
        if not drained:
            print_line(f"gateway[w{worker_id}]: drain timed out with "
                       "requests still in flight", stderr=True)
    except KeyboardInterrupt:
        server.begin_drain()
        drained = server.wait_drained(drain_s)
    finally:
        stop.set()
        for thread in periodic:
            # A periodic snapshot in flight must land before the final
            # one and the store's close.
            thread.join()
        signal.signal(signal.SIGTERM, previous_term)
        signal.signal(signal.SIGINT, previous_int)
        if store is not None:
            app.snapshot_stats()
            store.flush()
            store.close()
        if exchange is not None:
            exchange.publish(_render_own())
        server.server_close()
    print_line(f"gateway[w{worker_id}]: drained, event log flushed"
               if store is not None else f"gateway[w{worker_id}]: stopped")
    return 0 if drained else 1


def _exit_code(status: int) -> int:
    if os.WIFEXITED(status):
        return os.WEXITSTATUS(status)
    if os.WIFSIGNALED(status):
        return 128 + os.WTERMSIG(status)
    return 1


def run_pool(sockets: Sequence[socket.socket], workers: int,
             child_main: Callable[[int, socket.socket], int], *,
             drain_s: float = 10.0) -> int:
    """Fork ``workers`` children and supervise them until shutdown.

    ``child_main(worker_id, listen_socket)`` runs in each forked child
    and returns its exit code; the child never returns here
    (``os._exit`` fences off the parent's stack).  The supervisor:

    * respawns a worker that exits unexpectedly (crash, OOM-kill), with
      a consecutive fast-crash limit per slot;
    * on SIGTERM/SIGINT forwards the signal to every worker, waits
      ``drain_s`` plus a grace period, SIGKILLs stragglers, and exits 0
      only when every worker drained cleanly.
    """
    shutting_down = threading.Event()
    children: dict[int, int] = {}   # pid -> worker slot

    def _socket_for(slot: int) -> socket.socket:
        return sockets[slot % len(sockets)]

    def _spawn(slot: int) -> float:
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            # Child: fresh default signal disposition (the worker installs
            # its own drain handler); never run the parent's stack.
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            signal.signal(signal.SIGINT, signal.SIG_DFL)
            code = 1
            try:
                code = child_main(slot, _socket_for(slot))
            except SystemExit as exc:
                code = int(exc.code or 0) if not isinstance(exc.code, str) \
                    else 1
            except BaseException:  # noqa: BLE001 - last-resort crash log
                import traceback
                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        children[pid] = slot
        return time.monotonic()

    def _forward(signum, frame):
        shutting_down.set()
        for pid in list(children):
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass

    previous_term = signal.signal(signal.SIGTERM, _forward)
    previous_int = signal.signal(signal.SIGINT, _forward)

    spawn_times: dict[int, float] = {}
    fast_crashes: dict[int, int] = {}
    for slot in range(workers):
        spawn_times[slot] = _spawn(slot)
    print_line(f"gateway pool: supervising {workers} workers "
               f"(pids {sorted(children)})")

    exit_code = 0
    kill_deadline: float | None = None
    try:
        while children:
            if shutting_down.is_set() and kill_deadline is None:
                kill_deadline = time.monotonic() + drain_s + _KILL_GRACE_S
            if kill_deadline is not None \
                    and time.monotonic() > kill_deadline:
                for pid in list(children):
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                exit_code = 1
                kill_deadline = float("inf")   # kill once, keep reaping
            try:
                pid, status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            except InterruptedError:
                continue
            if pid == 0:
                time.sleep(_REAP_POLL_S)
                continue
            slot = children.pop(pid, None)
            if slot is None:
                continue
            code = _exit_code(status)
            if shutting_down.is_set():
                if code != 0:
                    exit_code = exit_code or 1
                print_line(f"gateway pool: worker {slot} (pid {pid}) "
                           f"exited with {code}")
                continue
            lifetime = time.monotonic() - spawn_times.get(slot, 0.0)
            if lifetime < _FAST_CRASH_S:
                fast_crashes[slot] = fast_crashes.get(slot, 0) + 1
            else:
                fast_crashes[slot] = 0
            if fast_crashes.get(slot, 0) >= MAX_FAST_CRASHES:
                print_line(f"gateway pool: worker {slot} crashed "
                           f"{MAX_FAST_CRASHES} times within "
                           f"{_FAST_CRASH_S}s of spawn; giving up on this "
                           "slot", stderr=True)
                exit_code = 1
                continue
            print_line(f"gateway pool: worker {slot} (pid {pid}) exited "
                       f"with {code}; respawning")
            spawn_times[slot] = _spawn(slot)
    finally:
        signal.signal(signal.SIGTERM, previous_term)
        signal.signal(signal.SIGINT, previous_int)
        for sock in sockets:
            try:
                sock.close()
            except OSError:
                pass
    print_line("gateway pool: all workers exited")
    return exit_code


__all__ = [
    "MAX_FAST_CRASHES",
    "METRICS_PUBLISH_S",
    "PoolMetrics",
    "bind_pool_sockets",
    "print_line",
    "run_pool",
    "worker_serve",
]
