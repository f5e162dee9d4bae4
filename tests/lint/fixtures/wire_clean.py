"""Fixture: conforming metric names and registered error codes."""
from repro.gateway.schema import E_BAD_REQUEST, GatewayFault


def instrument(metrics):
    metrics.counter("requests_total")
    metrics.histogram("rank_latency_seconds")
    metrics.gauge("inflight_requests")
    metrics.counter(f"service_{0}_total")
    metrics.counter_fn("service_cache_lookups_total", "", dict)


def handle(fault):
    raise GatewayFault(E_BAD_REQUEST, 400, "bad")


def passthrough(fault):
    # Dynamic first argument: carries an already-validated code.
    raise GatewayFault(fault.code, fault.status, fault.message)
