"""``repro.obs`` — unified tracing + metrics for the whole toolchain.

One dependency-free layer gives every expensive subsystem — the MNA solver,
fault-injection campaigns, the mechanism optimiser, the DECISIVE loop — a
shared vocabulary of **spans** (hierarchical timed regions) and **metrics**
(counters / gauges / histograms), with exporters to JSONL, Prometheus text
and Chrome ``chrome://tracing`` JSON.  See ``docs/observability.md`` for
the span taxonomy and metric names.

Usage::

    from repro import obs

    obs.enable()
    with obs.span("campaign", system="System B") as sp:
        ...
        sp.set(jobs=230)
    obs.counter("campaign_jobs").inc(230)
    obs.export_jsonl("trace.jsonl")

Disabled (the default), :func:`span` returns a shared no-op singleton and
instrumented code costs a single module-flag check — the layer is designed
to stay in the hot paths permanently.

A second, independently-switched plane is the **record bus**
(:class:`~repro.obs.events.EventBus`, :func:`enable_events`): typed
progress events (:func:`emit_event`) and leveled structured log records
(:func:`log`) in one bounded store, read through filtered views — the
``/events`` SSE stream, ``--progress``, ``--events PATH`` and
``--logs PATH``.  An HTTP server exposes ``/metrics`` ``/healthz``
``/events`` (:func:`serve_live`), and a sampling profiler lives in
``repro.obs.profile``.

Cutting across both planes is the **correlation context**: the
analysis service mints a ``correlation_id`` per job (the CLI per
invocation), installs it with :func:`correlation` /
:func:`set_correlation_id`, and every event, span attribute, log record
and ledger entry emitted underneath carries it.  That is what makes
``/jobs/<id>/events`` per-job streams and per-job log artifacts possible
on a multi-tenant service.
"""

from __future__ import annotations

import threading
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Union

from repro.obs.export import (
    chrome_trace_events,
    export_chrome_trace as _export_chrome_trace,
    export_jsonl as _export_jsonl,
    export_prometheus as _export_prometheus,
    parse_prometheus_text,
    prometheus_text as _prometheus_text,
    read_jsonl,
    span_tree,
)
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from repro.obs.events import ConsoleProgress, Event, EventBus
from repro.obs.tracing import NOOP_SPAN, Span, SpanRecord, Tracer

__all__ = [
    "enable", "disable", "enabled", "reset",
    "enable_events", "disable_events", "events_enabled",
    "emit_event", "event_bus", "serve_live",
    "enable_logs", "log",
    "mint_correlation_id", "set_correlation_id", "correlation_id",
    "correlation",
    "span", "current_span_id", "current_span_name", "tracer",
    "counter", "gauge", "histogram", "registry",
    "export_jsonl", "export_prometheus", "export_chrome_trace",
    "prometheus_text", "parse_prometheus_text",
    "read_jsonl", "span_tree", "chrome_trace_events",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "MetricError",
    "Span", "SpanRecord", "Tracer", "NOOP_SPAN", "DEFAULT_TIME_BUCKETS",
    "Event", "EventBus", "ConsoleProgress",
]

_ENABLED: bool = False
_EVENTS_ENABLED: bool = False
_TRACER = Tracer()
_REGISTRY = MetricsRegistry()
_BUS = EventBus()

# -- correlation context ----------------------------------------------------
# Thread-local stack over a process-global default: the service's worker
# threads each run a different job concurrently (thread-local wins), while
# the CLI installs one id per invocation (the global default).


class _CorrelationStack(threading.local):
    """Per-thread scope stack, created on a thread's first access (every
    span reads it, so the lookup must never miss)."""

    def __init__(self) -> None:
        self.stack: List[str] = []


_CID_LOCAL = _CorrelationStack()
_CID_GLOBAL: Optional[str] = None


def mint_correlation_id() -> str:
    """A fresh 16-hex-char correlation id (collision-safe per service)."""
    return uuid.uuid4().hex[:16]


def set_correlation_id(cid: Optional[str]) -> None:
    """Install ``cid`` as the process-global default correlation id
    (``None`` clears it).  The CLI calls it once per invocation."""
    global _CID_GLOBAL
    _CID_GLOBAL = None if cid is None else str(cid)


def correlation_id() -> Optional[str]:
    """The ambient correlation id: innermost :func:`correlation` scope on
    this thread, else the process-global default, else ``None``."""
    stack = _CID_LOCAL.stack
    return stack[-1] if stack else _CID_GLOBAL


@contextmanager
def correlation(cid: Optional[str]) -> Iterator[Optional[str]]:
    """Scope ``cid`` as this thread's correlation id.  ``None`` is a
    no-op passthrough, so callers can thread an optional id untested."""
    if cid is None:
        yield None
        return
    stack = _CID_LOCAL.stack
    stack.append(str(cid))
    try:
        yield str(cid)
    finally:
        stack.pop()

_TRACER.cid_provider = correlation_id


def enable() -> None:
    """Turn tracing + metrics collection on (module-wide)."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    global _ENABLED
    _ENABLED = False


def enabled() -> bool:
    return _ENABLED


def reset() -> None:
    """Drop all collected spans, metrics, buffered events and log records
    (the enabled flags are kept; the correlation context is cleared)."""
    global _CID_GLOBAL
    _TRACER.clear()
    _REGISTRY.reset()
    _BUS.clear()
    _CID_GLOBAL = None


# -- the record bus (events + logs; independently switched) -----------------


def enable_events() -> None:
    """Turn the record bus — progress events and log records — on
    (module-wide, independent of :func:`enable`: tracing without events
    and events without tracing are both valid configurations)."""
    global _EVENTS_ENABLED
    _EVENTS_ENABLED = True


def disable_events() -> None:
    global _EVENTS_ENABLED
    _EVENTS_ENABLED = False


def events_enabled() -> bool:
    return _EVENTS_ENABLED


def emit_event(type_: str, **payload: object):
    """Publish one typed progress event stamped with the ambient
    correlation id; ``None`` (one flag check) when the event bus is
    disabled — same hot-path discipline as :func:`span`."""
    if not _EVENTS_ENABLED:
        return None
    return _BUS.emit(type_, payload, cid=correlation_id())


def event_bus() -> EventBus:
    return _BUS


def serve_live(host: str = "127.0.0.1", port: int = 0):
    """Start the live telemetry HTTP server (``/metrics`` ``/healthz``
    ``/events``) on a daemon thread and return it.  Lazy import: the
    stdlib ``http.server`` machinery is only paid for when serving."""
    from repro.obs.live import LiveTelemetryServer

    return LiveTelemetryServer(host, port).start()


# Log records ride the event bus, so there is no separate log switch; the
# old name stays an alias because callers (the repo benchmark among them)
# still switch logging on by it.
enable_logs = enable_events


def log(level: str, message: str, **fields: object):
    """Append one leveled log record to the bus, stamped with the ambient
    correlation id; ``None`` (one flag check) when the bus is disabled."""
    if not _EVENTS_ENABLED:
        return None
    return _BUS.log(level, message, fields, cid=correlation_id())


# -- tracing ----------------------------------------------------------------


def span(name: str, **attrs: object):
    """Start a span (context manager).  No-op singleton when disabled."""
    if not _ENABLED:
        return NOOP_SPAN
    return Span(_TRACER, name, attrs)


def current_span_id() -> Optional[int]:
    if not _ENABLED:
        return None
    return _TRACER.current_span_id()


def current_span_name() -> Optional[str]:
    """Name of the innermost active span on this thread (profiler hook)."""
    if not _ENABLED:
        return None
    return _TRACER.current_span_name()


def tracer() -> Tracer:
    return _TRACER


# -- metrics ----------------------------------------------------------------


def counter(name: str) -> Counter:
    return _REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return _REGISTRY.gauge(name)


def histogram(name: str, buckets: Optional[Sequence[float]] = None) -> Histogram:
    return _REGISTRY.histogram(name, buckets)


def registry() -> MetricsRegistry:
    return _REGISTRY


# -- exporters (bound to the module-level tracer/registry) ------------------


def export_jsonl(path: Union[str, Path], include_metrics: bool = True) -> Path:
    return _export_jsonl(
        path, _TRACER, _REGISTRY if include_metrics else None
    )


def export_prometheus(path: Union[str, Path]) -> Path:
    return _export_prometheus(path, _REGISTRY)


def export_chrome_trace(path: Union[str, Path]) -> Path:
    return _export_chrome_trace(path, _TRACER)


def prometheus_text() -> str:
    return _prometheus_text(_REGISTRY)
