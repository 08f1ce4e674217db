"""Unified observability: metrics registry, request tracing, exporters.

One registry design serves every tier — the engines, the
micro-batching server, the WAL'd cluster router, and the warm standby
— and surfaces three ways: the ``metrics`` wire op, the Prometheus
sidecar (``--metrics-port``), and the enriched ``--status``/``health``
payloads.  See ``docs/observability.md`` for the metric catalog.
"""

from repro.obs.http import MetricsExporter
from repro.obs.prometheus import mangle, render_prometheus
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    LATENCY_MS_BOUNDS,
    MetricsRegistry,
    NullRegistry,
    SIZE_BOUNDS,
    SpanLog,
    get_registry,
    json_sanitize,
    merge_snapshots,
    mint_trace_id,
    null_registry,
    resolve_registry,
    set_default_registry,
)
from repro.obs.structlog import configure_logging, log_event

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_MS_BOUNDS",
    "MetricsExporter",
    "MetricsRegistry",
    "NullRegistry",
    "SIZE_BOUNDS",
    "SpanLog",
    "configure_logging",
    "get_registry",
    "json_sanitize",
    "log_event",
    "mangle",
    "merge_snapshots",
    "mint_trace_id",
    "null_registry",
    "render_prometheus",
    "resolve_registry",
    "set_default_registry",
]
