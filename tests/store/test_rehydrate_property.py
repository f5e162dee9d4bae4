"""Property: rehydration equals live state, and the counters agree.

Random interleavings of ``rank_batch`` (sentinels and real coins) and
``observe`` (fresh and repeated event ids), with the odd stats snapshot,
run against a service on a fresh SQLite event log.  Then:

1. a second service booted on the same log and rehydrated holds the same
   histories, the same ``alerts`` and ``scored_rows``, and ranks a
   sentinel bit-identically;
2. ``ServiceStats().restore(summary)`` reproduces every counter;
3. every counter in ``summary()`` equals its scraped ``service_*_total``
   sample.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serving import ServiceStats
from repro.serving.stats import COUNTERS
from repro.store import SQLiteEventStore, rehydrate_service
from repro.telemetry import parse_text, render_text
from tests.store.conftest import announcements_from, probe_for

#: One step: rank a batch of pool indices (sentinel or real coin),
#: observe a pool index under an event id (``None`` mints a fresh one),
#: or persist a stats snapshot.
_STEPS = st.one_of(
    st.tuples(st.just("rank"),
              st.lists(st.tuples(st.integers(0, 2), st.booleans()),
                       min_size=1, max_size=3)),
    st.tuples(st.just("observe"), st.integers(0, 2),
              st.sampled_from([None, "a", "b"])),
    st.tuples(st.just("snapshot")),
)


@pytest.fixture(scope="module")
def pool(st_positives):
    return announcements_from(st_positives, 3)


def scraped_counters(stats: ServiceStats) -> dict[str, float]:
    samples = parse_text(render_text(stats.registry))
    scraped = {s.name[len("service_"):-len("_total")]: s.value
               for s in samples
               if s.name.endswith("_total") and not s.labels}
    for s in samples:
        if s.name == "service_cache_lookups_total":
            result = s.labels_dict["result"]
            scraped[{"hit": "cache_hits", "miss": "cache_misses"}[result]] \
                = s.value
    return scraped


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(steps=st.lists(_STEPS, min_size=1, max_size=8))
def test_rehydration_equals_live_state(st_service, pool, tmp_path_factory,
                                       steps):
    path = tmp_path_factory.mktemp("rehydrate") / "events.db"
    live = st_service(store=SQLiteEventStore(path), arch="snn")
    for step in steps:
        if step[0] == "rank":
            live.rank_batch([
                pool[index] if real
                else dataclasses.replace(pool[index], coin_id=-1)
                for index, real in step[1]
            ])
        elif step[0] == "observe":
            live.observe(pool[step[1]], event_id=step[2])
        else:
            live.store.append_stats(live.stats.summary())

    store = SQLiteEventStore(path)
    reborn = st_service(store=store, arch="snn")
    rehydrate_service(reborn, store)
    assert reborn.history_snapshot() == live.history_snapshot()
    assert reborn.stats.alerts == live.stats.alerts
    assert reborn.stats.scored_rows == live.stats.scored_rows

    summary = live.stats.summary()
    restored = ServiceStats()
    restored.restore(summary)
    assert {name: getattr(restored, name) for name in COUNTERS} \
        == {name: summary[name] for name in COUNTERS}
    assert scraped_counters(live.stats) \
        == {name: float(summary[name]) for name in COUNTERS}

    probe = probe_for(pool[0])
    assert reborn.rank_one(probe).ranking == live.rank_one(probe).ranking
    live.store.close()
    store.close()
