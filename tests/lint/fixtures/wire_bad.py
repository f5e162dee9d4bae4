"""Fixture: wire-contract drift — bad metric names and rogue codes."""
from repro.gateway.schema import E_ROGUE, GatewayFault


def instrument(metrics):
    metrics.counter("requests")
    metrics.histogram("rank_latency_ms")
    metrics.gauge("reloads_total")
    metrics.counter("Bad-Name")


def handle():
    raise GatewayFault("made_up_code", 400, "nope")


def rewrap():
    raise GatewayFault(E_ROGUE, 500, "boom")


def instrument_callbacks(metrics):
    metrics.counter_fn("lookups", "", dict)
