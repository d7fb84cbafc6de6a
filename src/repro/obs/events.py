"""The ``repro.obs`` record bus: progress events and structured logs.

Spans and metrics answer "what happened" after a run; the bus answers
"what is happening" *during* one.  It stores two kinds of record in one
bounded ring, with one sequence counter, one correlation-id index and one
lock:

- **progress events**, emitted through :func:`repro.obs.emit_event` by the
  campaign engine, the retry loop, the checkpoint and the DECISIVE loop;
- **log records** (an :class:`Event` whose ``level`` is set), emitted
  through :func:`repro.obs.log` — leveled narrative for service operators.

Consumers read filtered views.  The progress consumers never see a log
record: the flushed **JSONL sink** (:meth:`EventBus.attach_jsonl`,
``--events``), **callbacks** (:meth:`EventBus.add_callback`,
``--progress``) and **queue subscribers** (:meth:`EventBus.subscribe`,
the ``/events`` SSE stream with ``?since=SEQ`` replay).  The **log view**
(:meth:`EventBus.logs` / :meth:`EventBus.write_logs`, ``--logs`` and the
per-job ``service-log`` artifact) never sees a progress event.

The event taxonomy (see ``docs/observability.md`` for the payload schema):
``campaign_started``, ``chunk_completed``, ``job_retried``,
``checkpoint_written``, ``campaign_finished``, ``iteration_finished``.

Everything here is dependency-free and lock-protected; with the bus
disabled (the default) producers pay a single module-flag check in
:func:`repro.obs.emit_event` / :func:`repro.obs.log` and never reach this
module.
"""

from __future__ import annotations

import json
import math
import os
import queue
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Union

__all__ = ["Event", "EventBus", "ConsoleProgress", "DEFAULT_BUFFER", "LEVELS"]

#: Ring depth shared by events and log records: enough for the whole record
#: stream of any test-sized run, bounded so week-long service runs cannot
#: grow without limit.
DEFAULT_BUFFER = 4096

#: Log severity order (index = rank).  Unknown levels coerce to ``info``:
#: a typo'd level must never crash an instrumented hot path.
LEVELS = ("debug", "info", "warning", "error")


def _coerce_level(level: object) -> str:
    level = str(level).lower()
    return level if level in LEVELS else "info"


@dataclass
class Event:
    """One record on the bus: a typed progress event, or a log record.

    ``cid`` is the correlation id of the job/invocation the record belongs
    to (``None`` for uncorrelated emitters); it survives the
    :meth:`to_dict` / :meth:`from_dict` round-trip.
    A log record has ``type == "log"``, a ``level`` (one of
    :data:`LEVELS`) and a ``message``; its ``payload`` holds its fields.
    """

    seq: int
    type: str
    ts: float  # wall clock (time.time) at emit, for humans and ETAs
    pid: int
    payload: Dict[str, object] = field(default_factory=dict)
    cid: Optional[str] = None
    level: Optional[str] = None  # set on log records only
    message: str = ""

    def to_dict(self) -> Dict[str, object]:
        if self.level is not None:  # the structured-log JSONL shape
            out: Dict[str, object] = {
                "seq": self.seq,
                "ts": self.ts,
                "level": self.level,
                "message": self.message,
                "pid": self.pid,
            }
            if self.cid is not None:
                out["correlation_id"] = self.cid
            if self.payload:
                out["fields"] = dict(self.payload)
            return out
        out = {
            "seq": self.seq,
            "type": self.type,
            "ts": self.ts,
            "pid": self.pid,
            "payload": dict(self.payload),
        }
        if self.cid is not None:
            out["cid"] = self.cid
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Event":
        if "level" in data:
            cid = data.get("correlation_id", data.get("cid"))
            return cls(
                seq=int(data.get("seq", 0)),
                type="log",
                ts=float(data.get("ts", 0.0)),
                pid=int(data.get("pid", 0)),
                payload=dict(data.get("fields", {})),  # type: ignore[arg-type]
                cid=None if cid is None else str(cid),
                level=_coerce_level(data["level"]),
                message=str(data.get("message", "")),
            )
        cid = data.get("cid")
        return cls(
            seq=int(data.get("seq", 0)),
            type=str(data["type"]),
            ts=float(data.get("ts", 0.0)),
            pid=int(data.get("pid", 0)),
            payload=dict(data.get("payload", {})),  # type: ignore[arg-type]
            cid=None if cid is None else str(cid),
        )


class EventBus:
    """Thread-safe store and fan-out of progress events and log records.

    A single bus instance lives per process (module singleton in
    ``repro.obs``).
    """

    def __init__(self, buffer: int = DEFAULT_BUFFER) -> None:
        self._lock = threading.Lock()
        self._seq = 0
        self._buffer: "deque[Event]" = deque(maxlen=buffer)
        #: Correlation-id index over ``_buffer``: per-stream replay and
        #: per-job log export without scanning the whole ring.  Entries
        #: share the Event objects with ``_buffer`` and are trimmed as the
        #: ring evicts.
        self._by_cid: Dict[str, "deque[Event]"] = {}
        self._queues: List["tuple[queue.Queue[Event], Optional[str]]"] = []
        self._callbacks: List[Callable[[Event], None]] = []
        self._sink = None
        self._sink_path: Optional[Path] = None
        self._status: Dict[str, object] = {}

    # -- producing ---------------------------------------------------------

    def emit(
        self,
        type_: str,
        payload: Optional[Mapping[str, object]] = None,
        cid: Optional[str] = None,
    ) -> Event:
        """Publish one progress event (allocating the next sequence number)."""
        return self._publish(
            Event(0, type_, time.time(), os.getpid(), dict(payload or {}), cid)
        )

    def log(
        self,
        level: str,
        message: str,
        fields: Optional[Mapping[str, object]] = None,
        cid: Optional[str] = None,
    ) -> Event:
        """Append one leveled log record stamped with ``cid`` and this pid."""
        return self._publish(
            Event(
                0, "log", time.time(), os.getpid(), dict(fields or {}), cid,
                _coerce_level(level), str(message),
            )
        )

    def _publish(self, event: Event) -> Event:
        with self._lock:
            self._seq += 1
            event.seq = self._seq
            if len(self._buffer) == self._buffer.maxlen and self._buffer:
                evicted = self._buffer[0]
                if evicted.cid is not None:
                    view = self._by_cid.get(evicted.cid)
                    if view and view[0].seq == evicted.seq:
                        view.popleft()
                    if not view:
                        self._by_cid.pop(evicted.cid, None)
            self._buffer.append(event)
            if event.cid is not None:
                self._by_cid.setdefault(event.cid, deque()).append(event)
            if event.level is not None:
                return event  # log records are read through the log view only
            self._track_status(event)
            if self._sink is not None:
                try:
                    self._sink.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
                    self._sink.flush()
                except (OSError, ValueError):
                    self._sink = None  # dead sink: stop writing, keep emitting
            queues = [
                q for q, want in self._queues if want is None or want == event.cid
            ]
            callbacks = list(self._callbacks)
        for q in queues:
            q.put(event)
        # Callbacks run outside the lock: a slow console renderer must not
        # serialize producers, and a callback that emits would deadlock.
        for callback in callbacks:
            try:
                callback(event)
            except Exception:  # noqa: BLE001 — rendering must never kill a run
                pass
        return event

    #: Bound on the per-campaign `/healthz` progress map: finished entries
    #: are evicted oldest-first past this, so week-long service runs with
    #: thousands of campaigns keep a constant-size health payload.
    MAX_TRACKED_CAMPAIGNS = 16

    @staticmethod
    def _campaign_key(event: Event) -> str:
        """Identity of the campaign a progress event belongs to.

        Campaign events carry the campaign fingerprint; the correlation id
        disambiguates identical campaigns run for different jobs.  Legacy
        emitters with neither collapse onto one shared slot (the pre-keyed
        behaviour)."""
        fingerprint = event.payload.get("fingerprint")
        if event.cid is not None and fingerprint:
            return f"{fingerprint}/{event.cid}"
        if fingerprint:
            return str(fingerprint)
        return event.cid or "-"

    def _track_status(self, event: Event) -> None:
        """Maintain the `/healthz` campaign summary (caller holds the lock).

        Progress is tracked **per campaign** under ``campaigns`` (keyed by
        fingerprint/correlation id, so two campaigns running concurrently
        under the service do not clobber each other); the legacy
        ``campaign`` key aliases the most recently *started* campaign's
        entry."""
        self._status["last_seq"] = event.seq
        self._status["last_type"] = event.type
        self._status["last_ts"] = event.ts
        p = event.payload
        if event.type == "campaign_started":
            info: Dict[str, object] = {
                "active": True,
                "system": p.get("system"),
                "jobs_total": p.get("jobs"),
                "jobs_done": p.get("resumed", 0),
                "eta_seconds": None,
            }
            if p.get("fingerprint"):
                info["fingerprint"] = p.get("fingerprint")
            if event.cid is not None:
                info["correlation_id"] = event.cid
            campaigns = self._status.setdefault("campaigns", {})
            campaigns.pop(self._campaign_key(event), None)  # restart resets
            campaigns[self._campaign_key(event)] = info  # type: ignore[index]
            self._evict_campaigns(campaigns)  # type: ignore[arg-type]
            self._status["campaign"] = info
        elif event.type == "chunk_completed":
            campaign = self._campaign_entry(event)
            campaign["jobs_done"] = p.get("done")
            campaign["jobs_total"] = p.get("total")
            campaign["eta_seconds"] = p.get("eta_seconds")
        elif event.type == "campaign_finished":
            campaign = self._campaign_entry(event)
            campaign["active"] = False
            campaign["eta_seconds"] = 0.0
        elif event.type in ("job_submitted", "job_started", "job_finished"):
            # Analysis-service job lifecycle (repro.service): running
            # totals so `/healthz` summarises the queue without reaching
            # into the service object.
            service = self._status.setdefault(
                "service_jobs",
                {"submitted": 0, "finished": 0, "failed": 0, "cached": 0},
            )
            if event.type == "job_submitted":
                service["submitted"] += 1  # type: ignore[index]
            elif event.type == "job_finished":
                service["finished"] += 1  # type: ignore[index]
                if p.get("state") == "failed":
                    service["failed"] += 1  # type: ignore[index]
                if p.get("cached"):
                    service["cached"] += 1  # type: ignore[index]
            service["last_job"] = p.get("job")  # type: ignore[index]

    def _campaign_entry(self, event: Event) -> Dict[str, object]:
        """The keyed progress entry for ``event``'s campaign (lock held)."""
        campaigns = self._status.setdefault("campaigns", {})
        entry = campaigns.setdefault(  # type: ignore[union-attr]
            self._campaign_key(event), {"active": True}
        )
        if not isinstance(self._status.get("campaign"), dict):
            self._status["campaign"] = entry
        return entry  # type: ignore[return-value]

    @classmethod
    def _evict_campaigns(cls, campaigns: Dict[str, object]) -> None:
        while len(campaigns) > cls.MAX_TRACKED_CAMPAIGNS:
            for key, info in campaigns.items():
                if not (isinstance(info, dict) and info.get("active")):
                    campaigns.pop(key)
                    break
            else:  # all active: drop the oldest
                campaigns.pop(next(iter(campaigns)))

    # -- consuming ---------------------------------------------------------

    def subscribe(
        self, since: int = 0, cid: Optional[str] = None
    ) -> "queue.Queue[Event]":
        """A queue receiving every future event, pre-loaded with the
        buffered events whose ``seq`` is greater than ``since``.

        With ``cid``, the subscription is a **per-stream view**: only
        events carrying that correlation id are replayed (via the
        id-indexed buffer view) and delivered."""
        q: "queue.Queue[Event]" = queue.Queue()
        with self._lock:
            for event in self._view(since, cid):
                if event.level is None:
                    q.put(event)
            self._queues.append((q, cid))
        return q

    def unsubscribe(self, q: "queue.Queue[Event]") -> None:
        with self._lock:
            self._queues = [pair for pair in self._queues if pair[0] is not q]

    def add_callback(self, callback: Callable[[Event], None]) -> None:
        with self._lock:
            self._callbacks.append(callback)

    def remove_callback(self, callback: Callable[[Event], None]) -> None:
        with self._lock:
            if callback in self._callbacks:
                self._callbacks.remove(callback)

    def attach_jsonl(self, path: Union[str, Path]) -> Path:
        """Append every event (including the buffered backlog) to ``path``
        as JSON lines, flushed per event."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(path, "a", encoding="utf-8")
        with self._lock:
            if self._sink is not None:
                try:
                    self._sink.close()
                except OSError:
                    pass
            for event in self._buffer:
                if event.level is None:
                    handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
            handle.flush()
            self._sink = handle
            self._sink_path = path
        return path

    def detach_jsonl(self) -> Optional[Path]:
        with self._lock:
            path, self._sink_path = self._sink_path, None
            sink, self._sink = self._sink, None
        if sink is not None:
            try:
                sink.close()
            except OSError:
                pass
        return path

    # -- views ---------------------------------------------------------------

    def _view(self, since: int, cid: Optional[str]) -> Iterator[Event]:
        """Buffered records of both kinds past ``since`` (consume with the
        lock held)."""
        source = self._buffer if cid is None else self._by_cid.get(cid, ())
        return (event for event in source if event.seq > since)

    def events(self, since: int = 0, cid: Optional[str] = None) -> List[Event]:
        """Buffered progress events with ``seq`` greater than ``since``
        (replay); with ``cid``, only the events of that correlation stream."""
        with self._lock:
            return [e for e in self._view(since, cid) if e.level is None]

    def logs(
        self,
        cid: Optional[str] = None,
        min_level: str = "debug",
        since: int = 0,
    ) -> List[Event]:
        """Buffered log records, optionally one correlation stream (read
        through the id index, so O(stream) rather than O(ring)) and/or at
        least ``min_level`` severity."""
        rank = LEVELS.index(_coerce_level(min_level))
        with self._lock:
            return [
                e for e in self._view(since, cid)
                if e.level is not None and LEVELS.index(e.level) >= rank
            ]

    def write_logs(self, path: Union[str, Path], cid: Optional[str] = None) -> Path:
        """Write the buffered log records (optionally one correlation
        stream) to ``path`` as JSON lines — the ``--logs`` export and the
        per-job ledger artifact."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.logs(cid=cid):
                handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        return path

    # -- inspection / lifecycle -------------------------------------------

    def last_seq(self) -> int:
        with self._lock:
            return self._seq

    def status(self) -> Dict[str, object]:
        """A summary for `/healthz`: last event + campaign progress."""
        with self._lock:
            out = dict(self._status)
            campaign = out.get("campaign")
            if isinstance(campaign, dict):
                out["campaign"] = dict(campaign)
            campaigns = out.get("campaigns")
            if isinstance(campaigns, dict):
                out["campaigns"] = {
                    key: dict(info) if isinstance(info, dict) else info
                    for key, info in campaigns.items()
                }
            return out

    def clear(self) -> None:
        """Drop buffered records, status and the sequence counter.

        Subscribers, callbacks and an attached sink survive — ``clear`` is
        the per-run reset (`obs.reset`), not a teardown."""
        with self._lock:
            self._buffer.clear()
            self._by_cid.clear()
            self._seq = 0
            self._status = {}


class ConsoleProgress:
    """An :class:`EventBus` callback rendering progress lines to a stream.

    ``chunk_completed`` lines are throttled (default two per second) except
    for the final one.  Attach with
    ``bus.add_callback(ConsoleProgress())``; the CLI wires this behind
    ``--progress``.
    """

    #: Event types rendered; anything else (e.g. service job lifecycle) is
    #: visible in the JSONL stream / SSE feed but too noisy for a console.
    RENDERED = (
        "campaign_started",
        "chunk_completed",
        "job_retried",
        "checkpoint_written",
        "campaign_finished",
        "iteration_finished",
    )

    def __init__(self, stream=None, min_interval: float = 0.5) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._last_progress = 0.0
        self._chunks_seen = 0

    def __call__(self, event: Event) -> None:
        if event.type not in self.RENDERED:
            return
        p = event.payload
        if event.type == "chunk_completed":
            done, total = p.get("done"), p.get("total")
            final = done is not None and done == total
            self._chunks_seen += 1
            now = time.monotonic()
            if not final and now - self._last_progress < self.min_interval:
                return
            self._last_progress = now
            eta = p.get("eta_seconds")
            # One completed chunk is not a rate: zero- and single-job
            # campaigns (and the first chunk of any campaign) render a
            # placeholder instead of a division-derived 0.0/inf ETA.
            if (
                self._chunks_seen < 2
                or not isinstance(eta, (int, float))
                or isinstance(eta, bool)
                or not math.isfinite(float(eta))
            ):
                eta_text = " eta=--:--"
            else:
                eta_text = f" eta={eta:.1f}s"
            self._write(f"progress {done}/{total}{eta_text}")
        elif event.type == "campaign_started":
            self._chunks_seen = 0
            self._write(
                "campaign started: system={system} analysis={analysis} "
                "jobs={jobs}".format(
                    system=p.get("system"), analysis=p.get("analysis"),
                    jobs=p.get("jobs"),
                )
            )
        elif event.type == "campaign_finished":
            self._write(
                "campaign finished: jobs={jobs} rows={rows} "
                "wall={wall:.2f}s".format(
                    jobs=p.get("jobs"), rows=p.get("rows"),
                    wall=float(p.get("wall_seconds") or 0.0),
                )
            )
        elif event.type == "iteration_finished":
            self._write(
                "iteration {index}: spfm={spfm} asil={asil} met_target={met}".format(
                    index=p.get("index"), spfm=p.get("spfm"),
                    asil=p.get("asil"), met=p.get("met_target"),
                )
            )
        elif event.type == "job_retried":
            self._write(
                "retry job={job} attempt={attempt} error={error}".format(
                    job=p.get("job"), attempt=p.get("attempt"),
                    error=p.get("error"),
                )
            )
        elif event.type == "checkpoint_written":
            self._write(
                "checkpoint: +{written} outcomes -> {path}".format(
                    written=p.get("written"), path=p.get("path"),
                )
            )

    def _write(self, text: str) -> None:
        try:
            self.stream.write(f"[same] {text}\n")
            self.stream.flush()
        except (OSError, ValueError):
            pass
