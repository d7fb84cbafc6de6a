"""The three workloads, driven over loopback HTTP against one in-process
analysis service, and the metrics they yield.

The service runs as ``same serve-analysis`` runs it: tracing/metrics,
events and logs on, 2 worker threads, over a fresh copy of the seeded
ledger.  Load comes from this process with at most 2 client threads.

- ``iterate_small`` / ``iterate_large``: a closed loop with 1 client.
  Each round submits a new revision of one case as ``fmea``, then
  ``fmeda``, then ``search``, awaiting and verifying each answer before
  the next request.
- ``hit_replay``: an open loop at three fixed rates.  A sender thread
  posts on a seeded Poisson schedule; a collector thread learns of each
  finished job from ``GET /events`` and fetches its answer.  9 requests
  in 10 resubmit one of four case payloads computed in warm-up; 1 in 10
  is a fresh power-supply revision (kinds in turn), which misses.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.service import AnalysisService, AnalysisServiceServer

import cases as cases_mod
import layers
import oracle
import stats
from client import Connection, FinishWatcher, ServiceRefused
from ledger_template import fresh_copy, probe_payload, same_files

WORKLOADS = ("iterate_small", "iterate_large", "hit_replay")
#: ``hit_replay`` arrival rates, requests per second.
RATES = (("low", 4.0), ("mid", 8.0), ("high", 16.0))
#: The service's own ``cache_hit_latency_p99`` objective.
HIT_SLO_MS = 250.0
#: A phase whose last answer lands later than this after its last due
#: time has a growing backlog.
BACKLOG_S = 1.0
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 11
SERVICE_WORKERS = 2
JOB_TIMEOUT_S = 60.0
#: Tail percentile per workload: the highest with at least 10 samples
#: beyond it at the settled run length (per case for the closed loops,
#: over the hits of all three rates for ``hit_replay``).
TAIL_PERCENTILE = {"iterate_small": 95.0, "iterate_large": 50.0,
                   "hit_replay": 95.0}
#: Closed loops read peak memory after this many timed rounds, so a
#: faster program, which gets through more rounds (and keeps more
#: telemetry) in the run, is not charged for it.
RSS_ROUNDS = {"iterate_small": 200, "iterate_large": 12, "hit_replay": 0}
#: Percentile of send lateness reported as ``gen.late_tail_ms``.
LATE_PERCENTILE = 95.0
#: Tracing is switched on and off in this many blocks per run (closed
#: loops), so traced and untraced time share the run's conditions.
TRACE_BLOCKS = 6

clock = time.perf_counter


@dataclass
class JobRecord:
    case: str
    kind: str
    job_id: str = ""
    cid: str = ""
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    cached: bool = False
    hit: bool = False
    error: str = ""
    injections: int = 0
    traced: bool = False
    phase: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    end_to_end: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    per_layer: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    report: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


def enable_service_telemetry() -> None:
    """The observability planes ``same serve-analysis`` switches on."""
    obs.enable()
    obs.enable_events()
    obs.enable_logs()


# -- the service under test ------------------------------------------------


class ServiceUnderTest:
    """One service + HTTP server over a ledger, and the client's
    connections to it."""

    def __init__(self, ledger_path: Path) -> None:
        self.service = AnalysisService(ledger_path, workers=SERVICE_WORKERS)
        self.server = AnalysisServiceServer(self.service, "127.0.0.1", 0)
        self.server.start()
        self.host, self.port = self.server.address
        self.conn = self.connect()
        self.watcher = FinishWatcher(self.host, self.port).open()

    def connect(self) -> Connection:
        return Connection(self.host, self.port, timeout=JOB_TIMEOUT_S)

    def call(self, body: bytes, record: JobRecord) -> Dict[str, object]:
        """One closed-loop job: post, await ``job_finished``, fetch."""
        record.sent = clock()
        if not record.due:
            record.due = record.sent
        record.job_id = self.conn.post_job(body)
        while True:
            finished = self.watcher.next_finished(timeout=JOB_TIMEOUT_S)
            if finished is None:
                raise ServiceRefused(f"job {record.job_id} did not finish")
            if finished == record.job_id:
                break
        answer = self.conn.get_job(record.job_id)
        record.done = clock()
        return answer

    def ledger_bytes(self) -> int:
        path = self.service.ledger.path
        return path.stat().st_size if path.exists() else 0

    def stop(self) -> None:
        self.watcher.close()
        self.server.stop()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _counter(name: str) -> int:
    return int(obs.counter(name).value)


# -- the run ---------------------------------------------------------------


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 run_dir: Path, template: Path,
                 prepared: Dict[str, object], tiny: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.run_dir = run_dir
        self.template = template
        self.tiny = tiny
        self.cases = cases_mod.cases_for(workload, seed, tiny=tiny)
        references = prepared["cases"]  # type: ignore[index]
        self.refs: Dict[str, Dict[str, Dict[str, object]]] = {}
        for case in self.cases:
            info = references[case.name]  # type: ignore[index]
            case.deployments = info["deployments"]
            case.target_asil = info["target_asil"]
            self.refs[case.name] = info["references"]
        self.probe_reference = prepared["probe"]
        self.templates = {
            (case.name, kind): case.body_template(kind)
            for case in self.cases for kind in cases_mod.KINDS
        }
        self.tracer = layers.LayerTracer() if trace else None
        self.records: List[JobRecord] = []
        self.result = RunResult()
        self.setup_s: List[float] = []
        self.open_ms: List[float] = []
        self.sut: Optional[ServiceUnderTest] = None
        self.toggles: List[float] = []
        self.rss_mb = 0.0
        self.ledger_start = 0
        self.ledger_growth = 0
        self.timed_wall = 0.0
        #: ``hit_replay``: the first computed answer per case, and the
        #: service's (hits, misses) over the timed phases.
        self.first_answers: Dict[str, Dict[str, object]] = {}
        self.hit_ratio: Tuple[int, int] = (0, 0)

    # -- helpers ---------------------------------------------------------

    def body(self, case: cases_mod.Case, kind: str, name: str) -> bytes:
        head, tail = self.templates[(case.name, kind)]
        return head + json.dumps(name).encode("utf-8") + tail

    def fail(self, record: JobRecord, why: str) -> None:
        record.error = why
        self.result.errors.append(
            f"{record.case}/{record.kind} job {record.job_id or '-'}: {why}"
        )

    def set_tracing(self, on: bool) -> None:
        if self.tracer is None or self.tracer.installed == on:
            return
        self.toggles.append(clock())
        if on:
            self.tracer.install()
        else:
            self.tracer.uninstall()

    def verify(self, record: JobRecord, answer: Dict[str, object],
               first: Optional[Dict[str, object]] = None) -> None:
        record.cid = str(answer.get("correlation_id", ""))
        record.cached = bool(answer.get("cached"))
        if first is not None:
            why = oracle.check_hit(answer, first)
        else:
            reference = self.refs[record.case][record.kind]
            why = oracle.check_miss(answer, reference)
            record.injections = int(reference["injections"])  # type: ignore[arg-type]
        if why:
            self.fail(record, why)

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        """``SETUPS`` timed set-ups; the last one's service carries the
        workload."""
        count = 2 if self.tiny else SETUPS
        probe = json.dumps(probe_payload()).encode("utf-8")
        ledger: Optional[Path] = None
        for _ in range(count):
            if self.sut is not None:
                self.sut.stop()
                self.sut = None
            # A set-up that left the files as the template has them
            # needs no new copy.
            if ledger is None or not same_files(self.template, ledger.parent):
                ledger = fresh_copy(self.template, self.run_dir / "ledger")
            gc.collect()
            if self.tracer is not None:
                self.tracer.spans.clear()
                self.set_tracing(True)
            record = JobRecord(case="power_supply", kind="fmea", phase="setup")
            start = clock()
            self.sut = ServiceUnderTest(ledger)
            answer = self.sut.call(probe, record)
            self.setup_s.append(clock() - start)
            if self.tracer is not None:
                lookups = [s for s in self.tracer.spans if s.layer == "ledger.lookup"]
                if lookups:
                    first = min(lookups, key=lambda s: s.start)
                    self.open_ms.append((first.end - first.start) * 1e3)
                self.set_tracing(False)
                self.tracer.spans.clear()
            self.result.attempted += 1
            why = oracle.check_hit(answer, self.probe_reference)  # type: ignore[arg-type]
            if why:
                self.fail(record, f"set-up probe: {why}")

    # -- closed loop -------------------------------------------------------

    def iterate(self) -> None:
        assert self.sut is not None
        rng = random.Random(self.seed)
        # Warm-up, off the clock: one round of every case.
        for case in self.cases:
            self.round(case, f"{case.model['name']}.warm", phase="warmup")
        rounds_cap = 4 if self.tiny else None
        self.ledger_start = self.sut.ledger_bytes()
        order: List[cases_mod.Case] = []
        number = 0
        start = clock()
        deadline = start + self.seconds
        block = self.seconds / TRACE_BLOCKS
        previous_done = None
        while clock() < deadline and (rounds_cap is None or number < rounds_cap):
            if self.tracer is not None:
                slot = number if self.tiny else int((clock() - start) / block)
                self.set_tracing(slot % 2 == 1)
            if not order:
                order = list(self.cases)
                rng.shuffle(order)
            case = order.pop()
            number += 1
            records = self.round(case, case.revision_name(number), "timed",
                                 previous_done)
            previous_done = records[-1].done
            if number == RSS_ROUNDS[self.workload]:
                self.rss_mb = _peak_rss_mb()
        self.set_tracing(False)

    def round(self, case: cases_mod.Case, name: str, phase: str,
              previous_done: Optional[float] = None) -> List[JobRecord]:
        assert self.sut is not None
        records = []
        traced = self.tracer is not None and self.tracer.installed
        for kind in cases_mod.KINDS:
            body = self.body(case, kind, name)
            record = JobRecord(case=case.name, kind=kind, phase=phase,
                               traced=traced)
            # A closed loop's next request is due when the previous
            # answer arrived; the gap is the generator's own delay.
            record.due = previous_done or 0.0
            try:
                answer = self.sut.call(body, record)
                self.verify(record, answer)
            except (ServiceRefused, OSError, ValueError) as exc:
                self.fail(record, f"{type(exc).__name__}: {exc}")
                record.done = clock()
            previous_done = record.done
            records.append(record)
            self.result.attempted += 1
            if phase == "timed":
                self.records.append(record)
        return records

    # -- open loop ---------------------------------------------------------

    def hit_schedule(self) -> List[Tuple[str, float, List[Tuple[float, str, int]]]]:
        """Per rate: ``(rate name, rate, [(offset s, 'hit'|'fresh', n)])``.

        Each block of 10 arrivals holds exactly one fresh revision, at a
        seeded position; a hit's ``n`` picks the case, a fresh one's is
        its revision number (its kind is ``KINDS[n % 3]``)."""
        rng = random.Random(self.seed)
        phase_s = self.seconds / len(RATES)
        fresh = 0
        schedule = []
        for name, rate in RATES:
            count = max(10, 10 * round(rate * phase_s / 10))
            if self.tiny:
                count = 10
            offset = 0.0
            items = []
            for _ in range(count // 10):
                miss_at = rng.randrange(10)
                for slot in range(10):
                    offset += rng.expovariate(rate)
                    if slot == miss_at:
                        fresh += 1
                        items.append((offset, "fresh", fresh))
                    else:
                        items.append((offset, "hit", rng.randrange(len(self.cases))))
            schedule.append((name, rate, items))
        return schedule

    def replay(self) -> Dict[str, Dict[str, float]]:
        assert self.sut is not None
        psu = self.cases[0]
        # Warm-up, off the clock: compute every hit payload once (its
        # first answer is what later hits must reproduce), hit it once,
        # and compute one fresh revision of each kind.
        hit_bodies = []
        for case in self.cases:
            body = self.body(case, "fmea", f"{case.model['name']}.hit")
            hit_bodies.append(body)
            for attempt in range(2):
                record = JobRecord(case=case.name, kind="fmea", phase="warmup")
                self.result.attempted += 1
                try:
                    answer = self.sut.call(body, record)
                except (ServiceRefused, OSError) as exc:
                    self.fail(record, f"warm-up: {exc}")
                    continue
                if attempt == 0:
                    self.verify(record, answer)
                    self.first_answers[case.name] = dict(answer.get("result") or {})
                else:
                    self.verify(record, answer, self.first_answers[case.name])
        for n, kind in enumerate(cases_mod.KINDS):
            record = JobRecord(case=psu.name, kind=kind, phase="warmup")
            self.result.attempted += 1
            try:
                self.verify(record, self.sut.call(
                    self.body(psu, kind, f"{psu.model['name']}.warm{n}"), record))
            except (ServiceRefused, OSError) as exc:
                self.fail(record, f"warm-up: {exc}")

        phases = {}
        self.ledger_start = self.sut.ledger_bytes()
        hits0 = _counter("service_cache_hits")
        misses0 = _counter("service_cache_misses")
        for index, (name, rate, items) in enumerate(self.hit_schedule()):
            bodies = [
                hit_bodies[n] if what == "hit" else self.body(
                    psu, cases_mod.KINDS[n % 3], psu.revision_name(n))
                for _, what, n in items
            ]
            if self.tracer is None:
                parts = [(items, bodies, False)]
            else:
                half = len(items) // 2
                halves = [(items[:half], bodies[:half]), (items[half:], bodies[half:])]
                traced_first = index % 2 == 1
                parts = [(halves[0][0], halves[0][1], traced_first),
                         (halves[1][0], halves[1][1], not traced_first)]
            drain = 0.0
            for part_items, part_bodies, traced in parts:
                self.set_tracing(traced)
                drain = max(drain, self.open_loop(name, part_items, part_bodies, traced))
                self.set_tracing(False)
            phases[name] = {"rate": rate, "drain_s": drain}
        self.hit_ratio = (
            (_counter("service_cache_hits") - hits0),
            (_counter("service_cache_misses") - misses0),
        )
        return phases

    def open_loop(self, phase: str, items: Sequence[Tuple[float, str, int]],
                  bodies: Sequence[bytes], traced: bool) -> float:
        """Send ``items`` on schedule, collect every answer; returns how
        long after the last due time the last answer arrived."""
        assert self.sut is not None
        records = [
            JobRecord(case=self.cases[n].name if what == "hit" else self.cases[0].name,
                      kind="fmea" if what == "hit" else cases_mod.KINDS[n % 3],
                      hit=what == "hit", phase=phase, traced=traced)
            for _, what, n in items
        ]
        registry: Dict[str, int] = {}
        ready = threading.Condition()
        sender_conn = self.sut.connect()
        getter = self.sut.connect()
        watcher = FinishWatcher(self.sut.host, self.sut.port).open()
        collected: List[int] = []

        def collect() -> None:
            while len(collected) < len(records):
                job_id = watcher.next_finished(timeout=JOB_TIMEOUT_S)
                if job_id is None:
                    return
                try:
                    answer = getter.get_job(job_id)
                except (ServiceRefused, OSError, ValueError):
                    answer = None
                done = clock()
                with ready:
                    ready.wait_for(lambda: job_id in registry, timeout=10.0)
                    index = registry.get(job_id)
                if index is None:
                    continue  # not one of this phase's jobs
                record = records[index]
                record.done = done
                if answer is None:
                    self.fail(record, "GET /jobs/<id> failed")
                else:
                    first = self.first_answers[record.case] if record.hit else None
                    self.verify(record, answer, first)
                collected.append(index)

        collector = threading.Thread(target=collect, name="bench-collector")
        collector.start()
        start = clock() + 0.005 - items[0][0]
        try:
            for index, ((offset, _, _), body) in enumerate(zip(items, bodies)):
                record = records[index]
                record.due = start + offset
                delay = record.due - clock()
                if delay > 0:
                    time.sleep(delay)
                record.sent = clock()
                try:
                    job_id = sender_conn.post_job(body)
                except (ServiceRefused, OSError, ValueError) as exc:
                    self.fail(record, f"POST refused: {exc}")
                    record.done = clock()
                    collected.append(index)
                    continue
                record.job_id = job_id
                with ready:
                    registry[job_id] = index
                    ready.notify_all()
        finally:
            collector.join(timeout=JOB_TIMEOUT_S + 15.0)
            watcher.close()
        for index, record in enumerate(records):
            if index not in collected:
                self.fail(record, "no answer before the time-out")
                record.done = record.done or clock()
        self.records.extend(records)
        self.result.attempted += len(records)
        last_due = max(r.due for r in records)
        last_done = max(r.done for r in records)
        return max(0.0, last_done - last_due)

    # -- the whole run -----------------------------------------------------

    def run(self) -> RunResult:
        enable_service_telemetry()
        try:
            self.setup()
            if self.workload == "hit_replay":
                phases = self.replay()
            else:
                self.iterate()
                phases = {}
            assert self.sut is not None
            self.ledger_growth = self.sut.ledger_bytes() - self.ledger_start
            self.timed_wall = self._timed_wall()
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
            if self.sut is not None:
                self.sut.stop()
        self.summarize(phases)
        self.result.failed = len(self.result.errors)
        return self.result

    def _timed_wall(self) -> float:
        timed = [r for r in self.records if r.phase != "warmup"]
        if not timed:
            return 0.0
        return max(r.done for r in timed) - min(r.sent or r.due for r in timed)

    # -- metrics -----------------------------------------------------------

    def summarize(self, phases: Dict[str, Dict[str, float]]) -> None:
        res = self.result
        report = res.report
        rss_mb = self.rss_mb or _peak_rss_mb()
        setup = stats.median(self.setup_s)
        report.append(f"workload {self.workload}  seed {self.seed}  "
                      f"seconds {self.seconds}  trace {int(self.trace)}")
        report.append(f"  setup_s              {setup:.4f} s  "
                      f"(median of {len(self.setup_s)} set-ups)")
        untraced = [r for r in self.records if not r.traced and not r.error]
        if self.workload == "hit_replay":
            p50 = self._hit_metrics(untraced, phases, report)
        else:
            p50 = self._round_metrics(report)
        failed = len(res.errors)
        report.append(f"  failed_ratio         {failed / max(1, res.attempted):.4f} "
                      f"ratio  ({failed} of {res.attempted})")
        report.append(f"  rss_mb               {rss_mb:.1f} MB")
        # Tails stay in the report only: on a shared host their
        # run-to-run spread is too wide to gate on (see README.md).
        res.end_to_end = {
            "setup_s": (setup, "s"),
            "latency_p50_ms": (p50, "ms"),
            "rss_mb": (rss_mb, "MB"),
        }
        if self.tracer is not None:
            self._layer_metrics(report)

    def _rounds(self, traced: bool) -> Dict[str, List[float]]:
        """Round latencies (ms) per case: ``fmea`` sent to ``search``
        answer verified."""
        rounds: Dict[str, List[float]] = defaultdict(list)
        for index in range(0, len(self.records), 3):
            trio = self.records[index:index + 3]
            if len(trio) == 3 and not any(r.error for r in trio) \
                    and trio[0].traced == traced:
                rounds[trio[0].case].append((trio[-1].done - trio[0].sent) * 1e3)
        return rounds

    def _round_metrics(self, report: List[str]) -> float:
        rounds = self._rounds(traced=False)
        percentile = TAIL_PERCENTILE[self.workload]
        medians = stats.per_group_medians(rounds)
        tails = {case: stats.tail(values, percentile)
                 for case, values in rounds.items()}
        for case in sorted(rounds):
            count = len(rounds[case])
            value, beyond = tails[case]
            report.append(f"  round_p50_ms.{case:<13} {medians[case]:.3f} ms  "
                          f"({count} rounds)")
            report.append(f"  round_tail_ms.{case:<12} {value:.3f} ms  "
                          f"(p{percentile:g} of {count} rounds, {beyond} beyond)")
        p50 = stats.geomean(medians.values())
        tail_value = stats.geomean(value for value, _ in tails.values())
        report.append(f"  round_p50_ms         {p50:.3f} ms  "
                      f"(geometric mean over cases)")
        report.append(f"  round_tail_ms        {tail_value:.3f} ms  "
                      f"(geometric mean over cases)")
        injections = sum(r.injections for r in self.records if not r.error)
        wall = self.timed_wall
        report.append(f"  injections_per_s     {injections / wall if wall else 0:.1f} 1/s  "
                      f"({injections} injections in {wall:.2f} s)")
        return p50

    def _hit_metrics(self, records: List[JobRecord],
                     phases: Dict[str, Dict[str, float]],
                     report: List[str]) -> float:
        by_case: Dict[str, List[float]] = defaultdict(list)
        pooled: List[float] = []
        max_rate = 0.0
        for name, rate in RATES:
            hits = [r for r in records if r.hit and r.phase == name]
            per_case: Dict[str, List[float]] = defaultdict(list)
            for record in hits:
                per_case[record.case].append(record.latency_ms)
                by_case[record.case].append(record.latency_ms)
                pooled.append(record.latency_ms)
            p50 = stats.geomean(stats.per_group_medians(per_case).values())
            percentile = stats.supported_percentile(len(hits))
            tail_value, beyond = stats.tail([r.latency_ms for r in hits], percentile)
            drain = phases.get(name, {}).get("drain_s", 0.0)
            if tail_value <= HIT_SLO_MS and drain <= BACKLOG_S and hits:
                max_rate = max(max_rate, rate)
            report.append(f"  hit_p50_ms.{name:<9} {p50:.3f} ms  "
                          f"(geometric mean of per-case medians, {len(hits)} hits)")
            report.append(f"  hit_tail_ms.{name:<8} {tail_value:.3f} ms  "
                          f"(p{percentile:g} of {len(hits)} hits, {beyond} beyond; "
                          f"drain {drain:.3f} s)")
        report.append(f"  max_rate_rps         {max_rate:g} 1/s  "
                      f"(hit tail <= {HIT_SLO_MS:g} ms, no growing backlog)")
        hits, misses = self.hit_ratio
        ratio = hits / (hits + misses) if hits + misses else 0.0
        report.append(f"  service cache hits   {hits} of {hits + misses} "
                      f"({ratio:.4f}; the schedule's share is 0.9)")
        if hits * 10 != (hits + misses) * 9:
            self.result.errors.append(
                f"cache-hit ratio {ratio:.4f} differs from the schedule's 0.9"
            )
        percentile = TAIL_PERCENTILE[self.workload]
        tail_value, beyond = stats.tail(pooled, percentile)
        medians = stats.per_group_medians(by_case)
        for case in sorted(medians):
            report.append(f"  hit_p50_ms.{case:<9} {medians[case]:.3f} ms  "
                          f"({len(by_case[case])} hits, all rates)")
        p50 = stats.geomean(medians.values())
        report.append(f"  hit_p50_ms           {p50:.3f} ms  "
                      f"(geometric mean of per-case medians, all rates)")
        report.append(f"  hit_tail_ms          {tail_value:.3f} ms  "
                      f"(p{percentile:g} of {len(pooled)} hits, {beyond} beyond, all rates)")
        return p50

    # -- traced-run metrics --------------------------------------------------

    def _layer_metrics(self, report: List[str]) -> None:
        assert self.tracer is not None
        spans = self.tracer.spans
        layers.assign_cids(spans)
        spans_path = self.run_dir.parent / f"spans-{self.workload}-{self.seed}.jsonl"
        self.tracer.write_jsonl(spans_path)
        by_cid: Dict[str, List[layers.LayerSpan]] = defaultdict(list)
        for span in spans:
            if span.cid:
                by_cid[span.cid].append(span)
        folds = []
        queue_waits = []
        per_job_self: Dict[str, List[float]] = defaultdict(list)
        counted: Dict[Tuple[str, str], Dict[str, float]] = {}
        for record in self.records:
            if not record.traced or record.error or not record.cid:
                continue
            if any(record.sent <= t <= record.done for t in self.toggles):
                continue
            job_spans = by_cid.get(record.cid, [])
            if not job_spans:
                continue
            fold = layers.fold_job(job_spans, record.sent, record.done)
            folds.append(fold)
            for layer, value in fold.self_ms.items():
                per_job_self[layer].append(value)
            enqueued = max((s.end for s in job_spans if s.layer == "service.submit"),
                           default=None)
            fingerprint = min((s.start for s in job_spans
                               if s.layer == "service.fingerprint"), default=None)
            if enqueued is not None and fingerprint is not None:
                queue_waits.append((fingerprint - enqueued) * 1e3)
            key = (record.case, record.kind)
            if not record.cached and key not in counted:
                counts: Dict[str, float] = {
                    "simulink.decode.calls": fold.calls.get("simulink.decode", 0),
                    "mna.fault_solve.calls": fold.calls.get("mna.fault_solve", 0),
                }
                for span in job_spans:
                    if span.layer == "campaign":
                        for name in ("smw_solves", "direct_solves", "full_rebuilds",
                                     "newton_iterations", "factorization_reuses",
                                     "batched_columns"):
                            counts[f"mna.{name}"] = counts.get(f"mna.{name}", 0) + \
                                span.attrs["stats"][name]  # type: ignore[index]
                counted[key] = counts
        metrics: Dict[str, Tuple[float, str]] = {}
        for layer in layers.LAYERS:
            values = per_job_self.get(layer, [])
            metrics[f"{layer}.self_ms"] = (stats.median(values) if values else 0.0, "ms")
        metrics["service.queue_wait_ms"] = (stats.median(queue_waits) if queue_waits else 0.0, "ms")
        hits, misses = self.hit_ratio
        metrics["service.cache_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0, "ratio")
        metrics["ledger.open_ms"] = (stats.median(self.open_ms) if self.open_ms else 0.0, "ms")
        computed = [r for r in self.records if not r.cached and not r.error]
        metrics["ledger.bytes_per_job"] = (
            self.ledger_growth / len(computed) if computed else 0.0, "bytes")
        count_names = ["simulink.decode.calls", "mna.fault_solve.calls",
                       "mna.smw_solves", "mna.direct_solves", "mna.full_rebuilds",
                       "mna.newton_iterations", "mna.factorization_reuses",
                       "mna.batched_columns"]
        for name in count_names:
            metrics[name] = (float(sum(c.get(name, 0) for c in counted.values())), "count")
        lateness = [(r.sent - r.due) * 1e3 for r in self.records
                    if r.due and r.sent and r.phase != "warmup"]
        metrics["gen.late_tail_ms"] = (
            stats.tail(lateness, LATE_PERCENTILE)[0] if lateness else 0.0, "ms")
        jobs = len(folds)
        wall = sum(f.wall_ms for f in folds)
        unattributed = sum(f.unattributed_ms for f in folds)
        metrics["unattributed_ms"] = (
            stats.median([f.unattributed_ms for f in folds]) if folds else 0.0, "ms")
        metrics["trace.coverage_pct"] = (100.0 * (1 - unattributed / wall) if wall else 0.0, "%")
        metrics["trace.overhead_pct"] = (self._overhead_pct(), "%")
        self.result.per_layer = metrics

        report.append(f"  traced jobs {jobs}; per-layer self time, mean per job "
                      f"(sums to the job wall time), and median over jobs in the layer:")
        total_self = 0.0
        for layer in layers.LAYERS:
            values = per_job_self.get(layer, [])
            mean = sum(values) / jobs if jobs else 0.0
            total_self += mean
            share = 100.0 * mean * jobs / wall if wall else 0.0
            report.append(f"    {layer + '.self_ms':<28} mean {mean:9.3f} ms  "
                          f"median {metrics[layer + '.self_ms'][0]:9.3f} ms  "
                          f"{share:5.1f}% of wall")
        mean_unattributed = unattributed / jobs if jobs else 0.0
        mean_wall = wall / jobs if jobs else 0.0
        overlap = sum(f.overlap_ms for f in folds) / jobs if jobs else 0.0
        report.append(f"    {'unattributed_ms':<28} mean {mean_unattributed:9.3f} ms")
        gap = total_self + mean_unattributed - mean_wall
        within = abs(gap) <= 0.01 * mean_wall
        report.append(f"    sum {total_self + mean_unattributed:.3f} ms vs job wall "
                      f"{mean_wall:.3f} ms (difference {gap:+.4f} ms, overlap "
                      f"{overlap:.4f} ms; {'within' if within else 'NOT within'} 1%)")
        for name, (value, unit) in sorted(metrics.items()):
            if not name.endswith(".self_ms"):
                report.append(f"    {name:<28} {value:.4f} {unit}")
        report.append(f"  spans written to {spans_path}")

    def _overhead_pct(self) -> float:
        """Traced over untraced latency, in the workload's ``p50_ms`` sense."""
        if self.workload == "hit_replay":
            groups: Dict[bool, Dict[str, List[float]]] = {
                True: defaultdict(list), False: defaultdict(list)}
            for record in self.records:
                if record.hit and not record.error:
                    groups[record.traced][record.case].append(record.latency_ms)
        else:
            groups = {flag: self._rounds(traced=flag) for flag in (True, False)}
        traced = stats.geomean(stats.per_group_medians(groups[True]).values())
        plain = stats.geomean(stats.per_group_medians(groups[False]).values())
        if not (traced > 0 and plain > 0):
            return float("nan")
        return 100.0 * (traced / plain - 1.0)
