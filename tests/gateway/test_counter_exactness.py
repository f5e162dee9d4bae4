"""Service counters stay exact under concurrent ``/v1/rank`` traffic.

``ServiceStats`` counters are plain ints with no lock of their own; the
gateway's scoring lock is what serializes their writers.  N clients each
send k sentinel ranks through one gateway at once, and afterwards the
in-process counters and the scraped ``service_*`` series both equal the
number of requests scored.
"""

from __future__ import annotations

import sys
import threading

from repro.gateway import GatewayApp, GatewayClient
from repro.telemetry import parse_text
from tests.gateway.conftest import make_announcements, service_from

N_CLIENTS = 4
PER_CLIENT = 6


def test_counters_equal_the_requests_scored(gateway, tiny_registry,
                                            tiny_source, tiny_collection,
                                            test_positives):
    app = GatewayApp(service_from(tiny_registry, "dnn", tiny_source,
                                  tiny_collection))
    server, client = gateway(app)
    sentinels = make_announcements(test_positives, 3, coin_known=False)
    barrier = threading.Barrier(N_CLIENTS)
    failures = []

    def send(offset: int) -> None:
        own = GatewayClient(server.url)
        barrier.wait()
        try:
            for i in range(PER_CLIENT):
                own.rank(sentinels[(offset + i) % len(sentinels)])
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append(exc)
        finally:
            own.close()

    threads = [threading.Thread(target=send, args=(i,))
               for i in range(N_CLIENTS)]
    interval = sys.getswitchinterval()
    # Switch threads as often as possible, so a write the scoring lock
    # did not serialize would lose updates.
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures

    scored = N_CLIENTS * PER_CLIENT
    stats = app.service.stats
    assert stats.alerts == scored
    assert stats.cache_hits + stats.cache_misses == scored
    samples = parse_text(client.metrics_text())
    assert sum(s.value for s in samples
               if s.name == "service_alerts_total") == scored
    assert sum(s.value for s in samples
               if s.name == "service_cache_lookups_total") == scored
    assert sum(s.value for s in samples
               if s.name == "service_scored_rows_total") == stats.scored_rows
