"""Hierarchical tracing spans (the ``repro.obs`` trace substrate).

A *span* is a named, timed region of execution with key/value attributes;
spans nest, forming a tree per campaign / analysis run.  Design points:

- **monotonic clocks** — durations come from :func:`time.perf_counter_ns`
  (never wall clock); each span also carries a wall-clock epoch, derived
  from its monotonic start through a per-process offset, only so exporters
  can align spans from different processes on a display axis;
- **thread safety** — the active-span stack is thread-local, so spans
  started on different threads nest independently; finished records are
  appended under a lock;
- **zero cost when disabled** — callers go through :func:`repro.obs.span`,
  which returns the module-level :data:`NOOP_SPAN` singleton without
  touching this module's machinery at all;
- **cheap when enabled** — a campaign opens two spans per injection job,
  so an enabled span does no system call (the pid and the wall-clock
  offset are cached per process) and no failing attribute lookup.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Callable, Dict, List, Mapping, Optional

#: This process's pid and wall-minus-monotonic clock offset, refreshed in a
#: forked child; spans read them instead of calling ``os.getpid()`` and
#: ``time.time_ns()`` each.
_PID = 0
_EPOCH_OFFSET_NS = 0


def _stamp_process() -> None:
    global _PID, _EPOCH_OFFSET_NS
    _PID = os.getpid()
    _EPOCH_OFFSET_NS = time.time_ns() - time.perf_counter_ns()


_stamp_process()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_stamp_process)


class SpanRecord:
    """One finished span (a ``__slots__`` record: spans are allocated on
    the campaign hot path)."""

    __slots__ = (
        "span_id", "parent_id", "name", "start_ns", "end_ns", "epoch_ns",
        "attrs", "pid", "thread",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start_ns: int = 0,  # perf_counter_ns at entry (process-local)
        end_ns: int = 0,  # perf_counter_ns at exit
        epoch_ns: int = 0,  # wall ns at entry (cross-process alignment only)
        attrs: Optional[Dict[str, object]] = None,
        pid: int = 0,
        thread: str = "",
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.epoch_ns = epoch_ns
        self.attrs = {} if attrs is None else attrs
        self.pid = pid
        self.thread = thread

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpanRecord):
            return NotImplemented
        return all(
            getattr(self, slot) == getattr(other, slot)
            for slot in SpanRecord.__slots__
        )

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{slot}={getattr(self, slot)!r}" for slot in SpanRecord.__slots__
        )
        return f"SpanRecord({fields})"

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "epoch_ns": self.epoch_ns,
            "attrs": dict(self.attrs),
            "pid": self.pid,
            "thread": self.thread,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "SpanRecord":
        return cls(
            span_id=int(payload["span_id"]),
            parent_id=(
                None
                if payload.get("parent_id") is None
                else int(payload["parent_id"])  # type: ignore[arg-type]
            ),
            name=str(payload["name"]),
            start_ns=int(payload.get("start_ns", 0)),
            end_ns=int(payload.get("end_ns", 0)),
            epoch_ns=int(payload.get("epoch_ns", 0)),
            attrs=dict(payload.get("attrs", {})),  # type: ignore[arg-type]
            pid=int(payload.get("pid", 0)),
            thread=str(payload.get("thread", "")),
        )


class _NoOpSpan:
    """The do-nothing span handed out while tracing is disabled.

    A single shared instance; every method is a no-op returning ``self``,
    so instrumented code costs one flag check and one method call when
    observability is off.
    """

    __slots__ = ()

    def __enter__(self) -> "_NoOpSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: object) -> "_NoOpSpan":
        return self


#: Shared no-op singleton (see :func:`repro.obs.span`).
NOOP_SPAN = _NoOpSpan()


class Span(SpanRecord):
    """A live span; use as a context manager.

    A span is its own finished record — one allocation per span on the hot
    path — and remembers its thread's active-span stack, so entering and
    leaving it need no thread-local lookup."""

    __slots__ = ("_tracer", "_stack")

    def __init__(
        self, tracer: "Tracer", name: str, attrs: Dict[str, object]
    ) -> None:
        # The attrs dict is taken over, not copied: the facade builds it
        # fresh from keyword arguments on every call.
        if tracer.cid_provider is not None:
            cid = tracer.cid_provider()
            if cid is not None:
                attrs.setdefault("correlation_id", cid)
        state = tracer._local
        SpanRecord.__init__(
            self, next(tracer._ids), None, name, 0, 0, 0, attrs, _PID,
            state.thread_name,
        )
        self._tracer = tracer
        self._stack = state.stack

    @property
    def record(self) -> SpanRecord:
        return self

    def set(self, **attrs: object) -> "Span":
        """Attach/overwrite attributes on the span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = self._stack
        self.parent_id = stack[-1].span_id if stack else None
        stack.append(self)
        self.start_ns = start = time.perf_counter_ns()
        self.epoch_ns = start + _EPOCH_OFFSET_NS
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.end_ns = time.perf_counter_ns()
        if exc_type is not None:
            self.attrs.setdefault("error", getattr(exc_type, "__name__", str(exc_type)))
        stack = self._stack
        if stack and stack[-1] is self:
            stack.pop()
        else:
            # Tolerate exotic exits (generators suspended across spans):
            # remove this span wherever it is, rather than corrupting the
            # stack.
            for index in range(len(stack) - 1, -1, -1):
                if stack[index] is self:
                    del stack[index]
                    break
        # list.append is atomic under the GIL; the lock is only needed by
        # operations that swap or iterate the list (records/drain/clear).
        self._tracer._records.append(self)
        return False


class _ThreadState(threading.local):
    """Per-thread tracer state, initialised on a thread's first access (so
    reads never take the slow missing-attribute path)."""

    def __init__(self) -> None:
        self.stack: List[Span] = []
        # The name cannot change out from under the running thread.
        self.thread_name = threading.current_thread().name


class Tracer:
    """Collects finished :class:`SpanRecord` objects for one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[SpanRecord] = []
        # itertools.count.__next__ is atomic under the GIL — id allocation
        # on the span hot path needs no lock.
        self._ids = itertools.count(1)
        self._local = _ThreadState()
        #: Optional zero-arg callable returning the ambient correlation id
        #: (``repro.obs`` wires its correlation context here).  When set and
        #: returning a value, spans carry a ``correlation_id`` attribute —
        #: stored in ``attrs``, so every exporter sees it like any other
        #: attribute.
        self.cid_provider: Optional[Callable[[], Optional[str]]] = None

    # -- the thread-local active-span stack -------------------------------
    # Entries are the live spans: the id drives parenting and the ledger's
    # trace_span linkage; the name lets the sampling profiler label stacks
    # without a lock or a record lookup from a signal handler.

    def current_span_id(self) -> Optional[int]:
        stack = self._local.stack
        return stack[-1].span_id if stack else None

    def current_span_name(self) -> Optional[str]:
        stack = self._local.stack
        return stack[-1].name if stack else None

    # -- span lifecycle ---------------------------------------------------

    def span(self, name: str, attrs: Optional[Dict[str, object]] = None) -> Span:
        return Span(self, name, {} if attrs is None else attrs)

    # -- access ------------------------------------------------------------

    def records(self) -> List[SpanRecord]:
        """A snapshot of the finished spans (finish order)."""
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records = []
