"""Layer spans recorded from outside the program, and their fold.

:class:`LayerTracer` wraps the public callable at each layer boundary,
patching the name where its caller looks it up, and records one span per
call: layer, start, end, thread, parent span and correlation id.  Spans
stay in memory; :func:`fold_job` turns one job's spans into self time per
layer (a span's duration minus the part its child spans cover) plus the
job's unattributed time.

A job's spans live on two kinds of thread: the HTTP handler threads that
answer its ``POST`` and ``GET``, and the service worker that runs it.
The client waits on the handlers, so where the two overlap in time (the
worker starts before the ``202`` is written, or still exports telemetry
while the answer is fetched) the handler's span wins.  The self times of
a job therefore never add up to more than its wall time.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass
class LayerSpan:
    span_id: int
    parent_id: Optional[int]
    layer: str
    start: float
    end: float
    thread: int
    cid: Optional[str] = None
    attrs: Dict[str, object] = field(default_factory=dict)


#: (module path, owner attribute or "" for the module, attribute, layer)
#: for every wrapped callable.  The owner is where the caller looks the
#: name up.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    # One HTTP request, from parsing it to writing the answer; the span
    # is named after the method once the request line is read.
    ("repro.service.server", "_ServiceHandler", "handle", "http"),
    ("repro.service.jobs", "AnalysisService", "submit", "service.submit"),
    ("repro.service.jobs", "AnalysisRequest", "from_payload", "service.validate"),
    ("repro.service.jobs", "AnalysisService", "_run_job", "service.job"),
    ("repro.service.jobs", "AnalysisRequest", "fingerprint", "service.fingerprint"),
    ("repro.service.jobs", "AnalysisRequest", "cache_key", "service.cache_key"),
    ("repro.obs.ledger", "AnalysisLedger", "latest_by_cache_key", "ledger.lookup"),
    ("repro.service.jobs", "AnalysisService", "_compute", "service.compute"),
    ("repro.simulink.model", "SimulinkModel", "from_dict", "simulink.decode"),
    ("repro.safety.campaign", "", "to_netlist", "simulink.compile"),
    ("repro.safety.campaign", "FaultInjectionCampaign", "run", "campaign"),
    ("repro.circuit.mna", "CompiledSystem", "solve", "mna.baseline"),
    ("repro.circuit.mna", "CompiledSystem", "solve_replacement", "mna.fault_solve"),
    ("repro.safety", "", "run_fmeda", "fmeda"),
    ("repro.safety", "", "search_for_target", "optimizer"),
    ("repro.obs.ledger", "", "record_fmea", "ledger.record"),
    ("repro.obs.ledger", "", "record_fmeda", "ledger.record"),
    ("repro.obs.ledger", "", "record_optimizer", "ledger.record"),
    ("repro.obs", "", "log", "obs.emit"),
    ("repro.obs", "", "emit_event", "obs.emit"),
)

#: Every layer a job's wall time is folded into, in report order.
LAYERS: Tuple[str, ...] = ("http.post", "http.get") + tuple(
    dict.fromkeys(t[3] for t in TARGETS[1:]))


class LayerTracer:
    """Installs the layer wrappers and keeps the spans they record."""

    def __init__(self) -> None:
        self.spans: List[LayerSpan] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: List[Tuple[object, str, object]] = []
        #: job id -> correlation id, learnt from ``submit``'s return.
        self.job_cids: Dict[str, str] = {}

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    # -- spans ---------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, function: Callable,
              tag: Optional[Callable] = None) -> Callable:
        from repro import obs

        correlation_id = obs.correlation_id
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            cid = correlation_id()
            stack.append(span_id)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            span = LayerSpan(span_id, parent, layer, start, end,
                             get_ident(), cid or correlation_id())
            if tag is not None:
                tag(span, args, result)
            if span.layer:
                spans.append(span)
            return result

        return traced

    # -- correlation tags ------------------------------------------------

    def _tag_submit(self, span: LayerSpan, args, job) -> None:
        span.cid = job.correlation_id
        self.job_cids[job.id] = job.correlation_id

    def _tag_http(self, span: LayerSpan, args, result) -> None:
        handler = args[0]
        path = str(getattr(handler, "path", ""))
        span.layer = f"http.{str(getattr(handler, 'command', '')).lower()}"
        if path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):].split("/", 1)[0].split("?", 1)[0]
            span.cid = span.cid or self.job_cids.get(job_id)
        elif path != "/jobs":
            span.layer = ""  # not a job request: dropped

    @staticmethod
    def _tag_run_job(span: LayerSpan, args, result) -> None:
        span.cid = args[1].correlation_id or span.cid

    @staticmethod
    def _tag_campaign(span: LayerSpan, args, result) -> None:
        span.attrs["stats"] = result.stats.as_dict()

    # -- install ---------------------------------------------------------

    def install(self) -> "LayerTracer":
        import importlib

        if self._saved:
            return self
        tags = {
            "http": self._tag_http,
            "service.submit": self._tag_submit,
            "service.job": self._tag_run_job,
            "campaign": self._tag_campaign,
        }
        for module_name, owner_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            if isinstance(owner, type):
                # The descriptor itself (a classmethod stays one); an
                # inherited method is shadowed, then restored by deletion.
                original = next(
                    (k.__dict__[attr] for k in owner.__mro__ if attr in k.__dict__),
                    original,
                )
            if isinstance(original, classmethod):
                wrapped: object = classmethod(
                    self._wrap(layer, original.__func__, tags.get(layer))
                )
            else:
                wrapped = self._wrap(layer, original, tags.get(layer))
            inherited = isinstance(owner, type) and attr not in owner.__dict__
            self._saved.append((owner, attr, None if inherited else original))
            setattr(owner, attr, wrapped)
        return self

    def write_jsonl(self, path) -> None:
        """Write every recorded span, one JSON object a line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(asdict(span), default=str) + "\n")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved = []


# -- the fold ---------------------------------------------------------------


def assign_cids(spans: Sequence[LayerSpan]) -> None:
    """Give every span the correlation id of its job: a span without one
    takes its children's (the ``POST`` handler learns its job from
    ``submit``), then its parent's (request validation runs before the
    job exists)."""
    by_id = {span.span_id: span for span in spans}
    for span in sorted(spans, key=lambda s: s.end):  # children end first
        parent = by_id.get(span.parent_id) if span.parent_id else None
        if parent is not None and parent.cid is None and span.cid:
            parent.cid = span.cid
    for span in sorted(spans, key=lambda s: s.start):  # parents start first
        parent = by_id.get(span.parent_id) if span.parent_id else None
        if span.cid is None and parent is not None:
            span.cid = parent.cid


def _self_segments(spans: Sequence[LayerSpan]) -> List[Tuple[float, float, str]]:
    """Disjoint ``(start, end, layer)`` pieces: each span's interval minus
    its direct children's intervals (spans of one thread nest)."""
    children: Dict[Optional[int], List[LayerSpan]] = defaultdict(list)
    ids = {span.span_id for span in spans}
    for span in spans:
        children[span.parent_id if span.parent_id in ids else None].append(span)
    segments = []
    for span in spans:
        cursor = span.start
        for child in sorted(children.get(span.span_id, ()), key=lambda s: s.start):
            if child.start > cursor:
                segments.append((cursor, child.start, span.layer))
            cursor = max(cursor, child.end)
        if span.end > cursor:
            segments.append((cursor, span.end, span.layer))
    return segments


def _subtract(segment: Tuple[float, float, str],
              blocks: Iterable[Tuple[float, float]]) -> List[Tuple[float, float, str]]:
    pieces = [segment]
    for b_start, b_end in blocks:
        kept = []
        for start, end, layer in pieces:
            if b_end <= start or b_start >= end:
                kept.append((start, end, layer))
                continue
            if start < b_start:
                kept.append((start, b_start, layer))
            if b_end < end:
                kept.append((b_end, end, layer))
        pieces = kept
    return pieces


@dataclass
class JobFold:
    wall_ms: float
    self_ms: Dict[str, float]
    unattributed_ms: float
    overlap_ms: float
    calls: Dict[str, int]


def fold_job(spans: Sequence[LayerSpan], start: float, end: float) -> JobFold:
    """Self time per layer over one job's window ``[start, end]``.

    ``spans`` are the job's spans from every thread.  Spans of handler
    threads win where they overlap spans of the worker thread (the
    thread of the ``service.job`` span); what no span covers inside the
    window is unattributed.
    """
    workers = {s.thread for s in spans if s.layer == "service.job"}
    by_thread: Dict[int, List[LayerSpan]] = defaultdict(list)
    for span in spans:
        by_thread[span.thread].append(span)
    kept: List[Tuple[float, float, str]] = []
    worker_segments: List[Tuple[float, float, str]] = []
    for thread, own in by_thread.items():
        (worker_segments if thread in workers else kept).extend(_self_segments(own))
    handled = [(s.start, s.end) for s in spans
               if s.thread not in workers and s.layer.startswith("http.")]
    for segment in worker_segments:
        kept.extend(_subtract(segment, handled))
    self_s: Dict[str, float] = defaultdict(float)
    clipped = []
    for seg_start, seg_end, layer in kept:
        lo, hi = max(seg_start, start), min(seg_end, end)
        if hi > lo:
            self_s[layer] += hi - lo
            clipped.append((lo, hi))
    covered = 0.0
    cursor = start
    for lo, hi in sorted(clipped):
        if hi > cursor:
            covered += hi - max(lo, cursor)
            cursor = hi
    total = sum(self_s.values())
    calls: Dict[str, int] = defaultdict(int)
    for span in spans:
        calls[span.layer] += 1
    return JobFold(
        wall_ms=(end - start) * 1e3,
        self_ms={layer: value * 1e3 for layer, value in self_s.items()},
        unattributed_ms=(end - start - covered) * 1e3,
        overlap_ms=(total - covered) * 1e3,
        calls=dict(calls),
    )
