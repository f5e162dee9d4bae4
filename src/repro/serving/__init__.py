"""repro.serving — real-time streaming prediction service.

Turns the offline batch pipeline into an incremental, event-driven
service: messages stream in timestamp order, pump-message detection and
24h-gap sessionization run incrementally per channel, and every resolvable
coin release triggers a cached, micro-batched ranking of all listed coins
— the "one hour before the pump, in real time" deployment the paper's
introduction motivates.

Layers
------
``stream``   — :class:`MessageSource` / :class:`ReplaySource` /
               :class:`MessageStream` (pluggable feeds, ordered replay).
``online``   — :class:`OnlineDetector`, :class:`OnlineSessionizer`,
               :class:`Announcement` (incremental §3.2).
``cache``    — :class:`FeatureCache` (memoized coin/market features per
               exchange × time-bucket).
``service``  — :class:`PredictionService`, :class:`Alert` (history cache,
               micro-batched scoring).
``sinks``    — :class:`AlertSink` and console/JSON-lines/collecting sinks.
``stats``    — :class:`ServiceStats` (latency percentiles, throughput,
               cache hit-rate).
``engine``   — :class:`StreamEngine`, the one stream loop, over any
               ``rank_batch`` ranker (in-process here, over HTTP in
               :func:`repro.gateway.replay_against_gateway`), plus
               :func:`build_engine` / :func:`replay_test_period` wiring
               helpers.
"""

from repro.serving.cache import FeatureCache, bucket_time
from repro.serving.engine import (
    EngineResult,
    StreamEngine,
    build_engine,
    replay_test_period,
)
from repro.serving.online import Announcement, OnlineDetector, OnlineSessionizer
from repro.serving.service import Alert, PredictionService
from repro.serving.sinks import (
    AlertSink,
    CollectingSink,
    ConsoleAlertSink,
    JsonLinesAlertSink,
)
from repro.serving.stats import ServiceStats
from repro.serving.stream import MessageSource, MessageStream, ReplaySource

__all__ = [
    "MessageSource", "ReplaySource", "MessageStream",
    "OnlineDetector", "OnlineSessionizer", "Announcement",
    "FeatureCache", "bucket_time",
    "PredictionService", "Alert",
    "AlertSink", "CollectingSink", "ConsoleAlertSink", "JsonLinesAlertSink",
    "ServiceStats",
    "StreamEngine", "EngineResult", "build_engine", "replay_test_period",
]
