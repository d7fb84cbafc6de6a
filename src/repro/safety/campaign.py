"""Batched fault-injection campaign engine (DECISIVE Step 4a at scale).

:func:`repro.safety.fmea.run_simulink_fmea` used to rebuild and re-solve
the full MNA system from scratch for every (component, failure mode) pair.
This module turns that loop into a campaign:

1. the model is flattened and the healthy baseline solved **once**;
2. every injection is enumerated up front as an :class:`InjectionJob`;
3. jobs execute against a single :class:`~repro.circuit.CompiledSystem`
   (cached LU + low-rank updates, all pending jobs solved as one batch,
   exact full-assembly fallback per job);
4. rows are classified in enumeration order, so the resulting
   :class:`~repro.safety.fmea.FmeaResult` is row-for-row identical to the
   historical per-mode re-solve.

Per-campaign instrumentation (job counts, solve mix, factorization reuses,
wall time) is attached to the result as :class:`CampaignStats` — the raw
material for the paper's Table V/VI efficiency story.

Execution is fault tolerant (see :mod:`repro.safety.resilience`): a job
that raises records a structured :class:`~repro.safety.resilience.JobFailure`
row instead of aborting the campaign, transient failures are retried with
exponential backoff, a ``job_timeout`` cuts off runaway solves, and a
``checkpoint`` file lets ``resume`` skip already-completed jobs.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro import obs
from repro.circuit import (
    BACKENDS,
    CircuitError,
    CompiledSystem,
    SolveStats,
    default_backend,
    set_default_backend,
)
from repro.circuit.netlist import Netlist
from repro.reliability import ReliabilityModel
from repro.safety.fmea import (
    DEFAULT_MIN_ABSOLUTE_DELTA,
    DEFAULT_THRESHOLD,
    FmeaError,
    FmeaResult,
    FmeaRow,
    _apply_behavior,
    _behavior_replacement,
    _relative_delta,
    _select_sensors,
    _solve_readings,
    _solve_readings_transient,
)
from repro.safety.resilience import (
    TRANSIENT_ERRORS,
    CampaignCheckpoint,
    JobFailure,
    JobTimeoutError,
    RetryPolicy,
    campaign_fingerprint,
    job_deadline,
)
from repro.simulink import FailureBehavior, SimulinkError, SimulinkModel, to_netlist
from repro.simulink.electrical import ElectricalConversion

#: Campaigns flush the checkpoint (and tick progress) every this many
#: completed jobs.
_CHECKPOINT_EVERY = 25

@dataclass(frozen=True)
class InjectionJob:
    """One planned fault injection: which element, which failure physics."""

    index: int
    component: str
    failure_mode: str
    element_name: str
    behavior: FailureBehavior
    block_params: Mapping[str, object]


@dataclass
class CampaignStats:
    """Execution instrumentation for one fault-injection campaign."""

    jobs: int = 0  # injection simulations requested
    rows: int = 0  # FMEA rows produced (jobs + uninjectable warnings)
    mode: str = "incremental"  # 'incremental' | 'naive'
    analysis: str = "dc"
    solver_backend: str = "auto"  # requested backend spec ('auto' if unset)
    wall_time: float = 0.0  # whole campaign, seconds
    baseline_time: float = 0.0  # healthy solve, seconds
    solves: int = 0
    newton_iterations: int = 0
    factorization_reuses: int = 0
    smw_solves: int = 0
    full_rebuilds: int = 0
    baseline_reuses: int = 0
    direct_solves: int = 0  # small-system dense-direct fault solves
    batched_columns: int = 0  # SMW columns solved as multi-RHS blocks
    retries: int = 0  # transient-failure retries
    timeouts: int = 0  # jobs killed by the per-job wall-clock budget
    job_failures: int = 0  # jobs that ended as structured JobFailure rows
    resumed_jobs: int = 0  # jobs skipped because a checkpoint had them
    # Per-job wall-time distribution (all attempts + backoff, seconds);
    # 0.0 when no job executed this run (e.g. fully resumed).
    job_wall_p50: float = 0.0
    job_wall_p95: float = 0.0
    job_wall_p99: float = 0.0

    #: Counter fields published to the ``repro.obs`` metrics registry.
    _COUNTER_FIELDS = (
        "jobs", "rows", "solves", "newton_iterations",
        "factorization_reuses", "smw_solves", "full_rebuilds",
        "baseline_reuses", "retries", "timeouts", "job_failures",
        "resumed_jobs", "direct_solves", "batched_columns",
    )

    def absorb(self, solve_stats: SolveStats) -> None:
        for name, value in solve_stats.to_dict().items():
            setattr(self, name, getattr(self, name) + value)

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    def to_dict(self) -> Dict[str, object]:
        """Alias of :meth:`as_dict` — the exported-workbook/CLI spelling."""
        return self.as_dict()

    def publish(self) -> None:
        """Mirror the counters into the ``repro.obs`` metrics registry as
        first-class ``campaign_*`` metrics (no-op while obs is disabled).

        The registry values aggregate across campaigns (counters), so one
        traced session sums its campaigns exactly as the per-campaign
        ``CampaignStats`` instances do.
        """
        if not obs.enabled():
            return
        for name in self._COUNTER_FIELDS:
            obs.counter(f"campaign_{name}").inc(getattr(self, name))
        obs.gauge("campaign_wall_seconds").set(self.wall_time)
        obs.gauge("campaign_baseline_seconds").set(self.baseline_time)


#: Job outcome: ('ok', readings), ('error', message) — a circuit-level
#: failure, meaningful safety evidence — or ('failed', JobFailure dict) —
#: a harness-level failure recorded instead of aborting the campaign.
_Outcome = Tuple[str, object]


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` of an ascending sequence."""
    if not sorted_values:
        return 0.0
    position = q * (len(sorted_values) - 1)
    lower = int(position)
    upper = min(lower + 1, len(sorted_values) - 1)
    fraction = position - lower
    return (
        sorted_values[lower] * (1.0 - fraction)
        + sorted_values[upper] * fraction
    )


def _readings_from_solution(
    conversion: ElectricalConversion, solution, removed: Optional[str]
) -> Dict[str, float]:
    """Sensor readings off a DC solution (same semantics as
    :func:`~repro.safety.fmea._solve_readings` for the injected netlist)."""
    readings: Dict[str, float] = {}
    for path, element in conversion.current_sensors.items():
        if element == removed:
            readings[path] = 0.0
        else:
            readings[path] = solution.current(element)
    for path, (npos, nneg) in conversion.voltage_sensors.items():
        try:
            readings[path] = solution.voltage_across(npos, nneg)
        except CircuitError:
            readings[path] = 0.0
    return readings


@dataclass(frozen=True)
class _Presolved:
    """A shared compiled system plus the outcomes one batched solve of the
    pending jobs already produced, keyed by job index."""

    compiled: CompiledSystem
    outcomes: Dict[int, _Outcome]


def _presolve(
    conversion: ElectricalConversion,
    compiled: Optional[CompiledSystem],
    jobs: Sequence[InjectionJob],
    job_timeout: Optional[float],
) -> Optional[_Presolved]:
    """Solve the jobs as one :meth:`CompiledSystem.solve_replacements`
    batch; each solved job's readings come straight off the batch's block.

    Jobs the batch leaves unsolved (topology changes, gmin islands, failed
    checks) get no outcome; in the per-job loop ``solve_replacement`` sends
    them straight to the full rebuild.  If the batch raises, or
    overruns the sum of the per-job budgets (``job_timeout`` per job), no
    job does: its solver counters are rolled back and each job succeeds or
    fails on its own inside :func:`_run_job_isolated`.
    """
    if compiled is None:
        return None
    shared = _Presolved(compiled, {})
    counted = replace(compiled.stats)
    try:
        faults = [(job.element_name, _job_replacement(conversion, job))
                  for job in jobs]
        with job_deadline(job_timeout * len(jobs) if job_timeout else None):
            solutions = compiled.solve_replacements(faults)
    except Exception:  # noqa: BLE001 — every job then solves on its own
        compiled.stats = counted
        return shared
    for job, (_, replacement), solution in zip(jobs, faults, solutions):
        if solution is not None:
            shared.outcomes[job.index] = _dc_outcome(
                conversion, job, replacement, solution
            )
    return shared


def _job_replacement(conversion: ElectricalConversion, job: InjectionJob):
    return _behavior_replacement(
        conversion.netlist, job.element_name, job.behavior, job.block_params
    )


def _dc_outcome(
    conversion: ElectricalConversion, job: InjectionJob, replacement, solution
) -> _Outcome:
    removed = job.element_name if replacement is None else None
    try:
        return ("ok", _readings_from_solution(conversion, solution, removed))
    except CircuitError as exc:
        return ("error", str(exc))


def _observe_job_times(walls: Sequence[float], seconds: Sequence[float]) -> None:
    """Feed the per-job histograms one batch per progress tick: a registry
    lookup plus a locked observe per job would cost as much as the job's
    span.  Callers batch before the tick's progress event, so a
    ``/metrics`` scrape it triggers sees every finished job."""
    if not obs.enabled():
        return
    if walls:
        obs.histogram("campaign_job_wall_seconds").observe_many(walls)
    if seconds:
        obs.histogram("campaign_job_seconds").observe_many(seconds)


def _execute_job(
    conversion: ElectricalConversion,
    shared: Optional[_Presolved],
    job: InjectionJob,
    analysis: str,
    t_stop: float,
    dt: float,
) -> _Outcome:
    """Run one injection; never raises for circuit-level failures.

    With observability enabled, each execution is a ``campaign.job`` span.
    """
    if not obs.enabled():
        return _execute_job_impl(conversion, shared, job, analysis, t_stop, dt)
    with obs.span(
        "campaign.job",
        job=job.index,
        component=job.component,
        failure_mode=job.failure_mode,
    ) as sp:
        outcome = _execute_job_impl(
            conversion, shared, job, analysis, t_stop, dt
        )
        sp.set(outcome=outcome[0])
        return outcome


def _execute_job_impl(
    conversion: ElectricalConversion,
    shared: Optional[_Presolved],
    job: InjectionJob,
    analysis: str,
    t_stop: float,
    dt: float,
) -> _Outcome:
    if shared is not None and analysis == "dc":
        if job.index in shared.outcomes:
            return shared.outcomes[job.index]
        replacement = _job_replacement(conversion, job)
        try:
            solution = shared.compiled.solve_replacement(
                job.element_name, replacement
            )
        except CircuitError as exc:
            return ("error", str(exc))
        return _dc_outcome(conversion, job, replacement, solution)
    injected = _apply_behavior(
        conversion.netlist, job.element_name, job.behavior, job.block_params
    )
    try:
        if analysis == "transient":
            readings = _solve_readings_transient(conversion, injected, t_stop, dt)
        else:
            readings = _solve_readings(conversion, injected)
        return ("ok", readings)
    except CircuitError as exc:
        return ("error", str(exc))


def _run_job_isolated(
    conversion: ElectricalConversion,
    shared: Optional[_Presolved],
    job: InjectionJob,
    analysis: str,
    t_stop: float,
    dt: float,
    policy: RetryPolicy,
    timeout: Optional[float],
) -> Tuple[_Outcome, int, int, float, Optional[float]]:
    """Run one job under the fault-tolerance contract.

    Never raises: circuit-level failures stay ``('error', …)`` outcomes
    (handled inside :func:`_execute_job`), transient failures are retried
    with exponential backoff up to ``policy.max_retries``, runaway solves
    are cut off after ``timeout`` seconds, and anything else becomes a
    ``('failed', JobFailure dict)`` outcome.  Returns ``(outcome,
    retries_used, timeouts, wall_seconds, attempt_seconds)`` so the caller
    can aggregate counters — the end-to-end per-job wall time (all
    attempts plus backoff sleeps, feeding ``campaign_job_wall_seconds``
    and the ``--stats`` percentiles) and the execution time of the attempt
    that returned (``campaign_job_seconds``; ``None`` when no attempt did).
    """
    started = time.perf_counter()
    outcome, retries, timeouts, seconds = _attempt_job(
        conversion, shared, job, analysis, t_stop, dt, policy, timeout
    )
    return outcome, retries, timeouts, time.perf_counter() - started, seconds


def _attempt_job(
    conversion: ElectricalConversion,
    shared: Optional[_Presolved],
    job: InjectionJob,
    analysis: str,
    t_stop: float,
    dt: float,
    policy: RetryPolicy,
    timeout: Optional[float],
) -> Tuple[_Outcome, int, int, Optional[float]]:
    """The retry loop behind :func:`_run_job_isolated`."""
    attempt = 0
    while True:
        try:
            with job_deadline(timeout):
                started = time.perf_counter()
                outcome = _execute_job(
                    conversion, shared, job, analysis, t_stop, dt
                )
                seconds = time.perf_counter() - started
            return outcome, attempt, 0, seconds
        except JobTimeoutError as exc:
            # Deterministic work that ran away once will run away again:
            # record the timeout, don't burn retries on it.
            failure = JobFailure.from_exception(
                job, exc, kind="timeout", retries=attempt
            )
            return ("failed", failure.to_dict()), attempt, 1, None
        except TRANSIENT_ERRORS as exc:
            attempt += 1
            if attempt > policy.max_retries:
                failure = JobFailure.from_exception(
                    job, exc, retries=attempt - 1
                )
                return ("failed", failure.to_dict()), attempt - 1, 0, None
            obs.emit_event(
                "job_retried", job=job.index, component=job.component,
                attempt=attempt, error=type(exc).__name__,
            )
            obs.log(
                "warning", "job retried", job=job.index,
                component=job.component, attempt=attempt,
                error=type(exc).__name__,
            )
            with obs.span(
                "campaign.retry", job=job.index, attempt=attempt,
                error=type(exc).__name__,
            ):
                time.sleep(policy.delay(attempt))
        except Exception as exc:  # noqa: BLE001 — per-job isolation
            failure = JobFailure.from_exception(job, exc, retries=attempt)
            return ("failed", failure.to_dict()), attempt, 0, None


def _primed_system(
    netlist: Netlist, backend: Optional[str] = None
) -> CompiledSystem:
    """A compiled system with its baseline already solved.

    Priming up front lets every fault solve warm-start its Newton iteration
    from the healthy diode biases and reuse the baseline for no-op faults
    (e.g. a capacitor failing open at DC).
    """
    compiled = CompiledSystem(netlist, backend=backend)
    try:
        compiled.solve()
    except CircuitError:
        pass  # per-fault solves fall back and report their own errors
    return compiled


class FaultInjectionCampaign:
    """A batched automated FMEA by fault injection on a Simulink model.

    Parameters match :func:`~repro.safety.fmea.run_simulink_fmea` plus:

    incremental:
        solve DC injections through a shared compiled system (cached LU +
        low-rank updates) instead of per-mode full re-assembly.  Results
        are identical either way — topology-changing faults transparently
        fall back to full assembly;
    solver_backend:
        linear-solver engine for every MNA solve in the campaign
        (baseline and fault solves): ``"dense"`` (LAPACK LU), ``"sparse"``
        (CSC + SuperLU) or ``"auto"`` (size-based pick).  ``None`` defers
        to the process default;
    max_retries:
        bounded retry budget for transient job failures (numerical
        rejections); a job that exhausts it is recorded as a
        :class:`JobFailure`;
    retry_backoff:
        base delay (seconds) of the exponential backoff between retries;
    job_timeout:
        per-job wall-clock budget in seconds (``None``: unlimited).  A
        runaway solve is cut off and recorded as a timeout
        :class:`JobFailure` instead of hanging the campaign; the batched
        presolve of the pending jobs gets the sum of their budgets.  The
        budget is armed only on a process's main thread (it uses
        ``SIGALRM``);
    checkpoint:
        path of a JSONL file where completed job outcomes are persisted
        (keyed by a content hash of the model + reliability data, so stale
        entries are ignored automatically);
    resume:
        with ``checkpoint``, skip jobs whose outcomes the file already
        holds (``stats.resumed_jobs`` counts them).  Without ``resume``
        the checkpoint file is restarted from scratch.
    """

    def __init__(
        self,
        model: SimulinkModel,
        reliability: ReliabilityModel,
        sensors: Optional[Sequence[str]] = None,
        threshold: float = DEFAULT_THRESHOLD,
        assume_stable: Sequence[str] = (),
        min_absolute_delta: float = DEFAULT_MIN_ABSOLUTE_DELTA,
        behavior_overrides: Optional[
            Dict[Tuple[str, str], FailureBehavior]
        ] = None,
        analysis: str = "dc",
        t_stop: float = 5e-3,
        dt: float = 5e-5,
        incremental: bool = True,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        job_timeout: Optional[float] = None,
        checkpoint: Optional[Union[str, Path]] = None,
        resume: bool = False,
        solver_backend: Optional[str] = None,
        correlation_id: Optional[str] = None,
    ) -> None:
        if analysis not in ("dc", "transient"):
            raise FmeaError(
                f"analysis must be 'dc' or 'transient', got {analysis!r}"
            )
        if job_timeout is not None and job_timeout <= 0:
            raise FmeaError(
                f"job_timeout must be positive, got {job_timeout!r}"
            )
        if solver_backend is not None and solver_backend not in BACKENDS:
            raise FmeaError(
                f"solver_backend must be one of {BACKENDS}, "
                f"got {solver_backend!r}"
            )
        if resume and checkpoint is None:
            raise FmeaError("resume=True requires a checkpoint path")
        self.model = model
        self.reliability = reliability
        self.sensors = sensors
        self.threshold = threshold
        self.assume_stable = assume_stable
        self.min_absolute_delta = min_absolute_delta
        self.behavior_overrides = behavior_overrides
        self.analysis = analysis
        self.t_stop = t_stop
        self.dt = dt
        self.incremental = incremental
        self.retry_policy = RetryPolicy(
            max_retries=max(0, int(max_retries)), backoff=retry_backoff
        )
        self.job_timeout = job_timeout
        self.checkpoint = checkpoint
        self.resume = resume
        self.solver_backend = solver_backend
        #: Correlation id scoped over the whole run (events, spans, logs).
        #: ``None`` inherits whatever ambient id the caller installed (the
        #: service wraps ``run()`` in its job's id anyway).
        self.correlation_id = correlation_id
        self._fingerprint: Optional[str] = None
        self._job_wall_times: List[float] = []
        self._progress_total = 0
        self._progress_done = 0
        self._progress_resumed = 0
        self._progress_t0 = 0.0

    # -- progress events ---------------------------------------------------

    def _short_fingerprint(self) -> str:
        """The campaign fingerprint truncated for event payloads — enough
        to key `/healthz` per-campaign progress, cheap to repeat."""
        return self._run_fingerprint()[:16]

    def _emit_progress(self, newly_done: int) -> None:
        """One ``chunk_completed`` event advancing the done counter.

        The ETA extrapolates the measured per-job wall time of the jobs
        *executed this run* (resumed jobs were free, so they are excluded
        from the rate) over the jobs still pending.  No-op (one flag
        check) while the event plane is disabled."""
        if not obs.events_enabled():
            return
        self._progress_done += newly_done
        executed = self._progress_done - self._progress_resumed
        remaining = self._progress_total - self._progress_done
        eta: Optional[float]
        if remaining <= 0:
            eta = 0.0
        elif executed > 0:
            elapsed = time.perf_counter() - self._progress_t0
            eta = elapsed / executed * remaining
        else:
            eta = None  # nothing executed yet: no rate to extrapolate
        obs.emit_event(
            "chunk_completed",
            done=self._progress_done,
            total=self._progress_total,
            eta_seconds=eta,
            fingerprint=self._short_fingerprint(),
        )

    # -- enumeration ------------------------------------------------------

    def _enumerate(
        self, conversion: ElectricalConversion, result: FmeaResult
    ) -> Tuple[List[Tuple[FmeaRow, Optional[InjectionJob]]], List[InjectionJob]]:
        """All FMEA row slots in output order, plus the runnable jobs."""
        stable: Set[str] = set(self.assume_stable)
        slots: List[Tuple[FmeaRow, Optional[InjectionJob]]] = []
        jobs: List[InjectionJob] = []
        for block in self.model.all_blocks():
            etype = block.effective_type
            info = block.effective_info
            if block.block_type == "Subsystem" and not block.param(
                "annotated_type"
            ):
                continue  # plain subsystems are analysed through their contents
            if info.role in ("sensor", "reference", "support", "structural"):
                continue
            if block.name in stable or block.path() in stable:
                continue
            entry = self.reliability.get(etype)
            if entry is None:
                result.uncovered.append(block.name)
                result.uncovered_reasons[block.name] = (
                    f"no reliability data for component class {etype!r}"
                )
                continue
            try:
                element_name = conversion.element_name(block.path())
            except (SimulinkError, CircuitError, KeyError) as exc:
                # Only "this block has no electrical element" counts as
                # uncovered; a programming error must surface, not
                # masquerade as a coverage gap.
                result.uncovered.append(block.name)
                result.uncovered_reasons[block.name] = str(exc)
                continue
            for mode in entry.failure_modes:
                behavior = None
                if self.behavior_overrides is not None:
                    behavior = self.behavior_overrides.get((etype, mode.name))
                if behavior is None:
                    behavior = info.failure_behaviors.get(mode.name)
                row = FmeaRow(
                    component=block.name,
                    component_class=entry.component_class,
                    fit=entry.fit,
                    failure_mode=mode.name,
                    nature=mode.nature,
                    distribution=mode.distribution,
                )
                if behavior is None:
                    row.warning = (
                        f"no failure behaviour for {etype}/{mode.name}; "
                        f"not injectable"
                    )
                    slots.append((row, None))
                    continue
                job = InjectionJob(
                    index=len(jobs),
                    component=block.name,
                    failure_mode=mode.name,
                    element_name=element_name,
                    behavior=behavior,
                    block_params=block.parameters,
                )
                jobs.append(job)
                slots.append((row, job))
        return slots, jobs

    # -- execution --------------------------------------------------------

    def _execute_serial(
        self,
        conversion: ElectricalConversion,
        compiled: Optional[CompiledSystem],
        jobs: Sequence[InjectionJob],
        stats: CampaignStats,
        checkpoint: Optional[CampaignCheckpoint],
    ) -> Dict[int, _Outcome]:
        """Run the pending jobs: one batched presolve through ``compiled``
        (``None`` on the naive and transient paths), then each job in
        enumeration order under the per-job isolation contract."""
        if not jobs:
            return {}
        shared = _presolve(conversion, compiled, jobs, self.job_timeout)
        outcomes: Dict[int, _Outcome] = {}
        emitted_at = 0
        job_seconds: List[float] = []  # since the last progress tick
        for position, job in enumerate(jobs, start=1):
            outcome, retries, timeouts, wall, seconds = _run_job_isolated(
                conversion, shared, job, self.analysis,
                self.t_stop, self.dt, self.retry_policy, self.job_timeout,
            )
            stats.retries += retries
            stats.timeouts += timeouts
            self._job_wall_times.append(wall)
            if seconds is not None:
                job_seconds.append(seconds)
            outcomes[job.index] = outcome
            if checkpoint is not None:
                checkpoint.record(job, outcome)
            if position % _CHECKPOINT_EVERY == 0 or position == len(jobs):
                # Checkpoint flushes and progress ticks share one cadence —
                # cheap enough to stay in the loop, frequent enough for an
                # ETA.
                if checkpoint is not None:
                    checkpoint.flush()
                _observe_job_times(
                    self._job_wall_times[emitted_at - position:], job_seconds
                )
                job_seconds = []
                self._emit_progress(position - emitted_at)
                emitted_at = position
        if compiled is not None:
            stats.absorb(compiled.stats)
        return outcomes

    def _run_fingerprint(self) -> str:
        """Content hash of this run's campaign: the checkpoint key and the
        ``fingerprint`` of its progress events.

        Computed at most once per run (:func:`campaign_fingerprint` hashes
        the whole model) — ``_run_campaign`` invalidates it at entry,
        because the iterate-and-rerun workflows (DECISIVE, service tenants)
        mutate the model or config between runs and a stale fingerprint
        would match the checkpoint of the *old* model state.
        """
        if self._fingerprint is None:
            self._fingerprint = campaign_fingerprint(
                self.model,
                self.reliability,
                self.analysis,
                self.t_stop,
                self.dt,
                self.behavior_overrides,
            )
        return self._fingerprint

    # -- classification ---------------------------------------------------

    def _classify(
        self,
        row: FmeaRow,
        outcome: _Outcome,
        baseline: Dict[str, float],
        monitored: Sequence[str],
    ) -> FmeaRow:
        kind, payload = outcome
        if kind == "failed":
            # The harness could not produce a result for this injection.
            # Conservative call: an unknown effect must be assumed
            # dangerous, and the structured failure keeps it visible
            # (result.failures) instead of silently shrinking the FMEA.
            failure: Mapping[str, object] = payload  # type: ignore[assignment]
            row.safety_related = True
            row.impact = "DVF"
            row.effect = (
                f"injection failed ({failure['exception']}): "
                f"{failure['message']}"
            )
            row.warning = (
                f"harness failure after {failure['retries']} retries "
                f"({failure['kind']}); effect assumed dangerous"
            )
            return row
        if kind == "error":
            # A non-convergent injected circuit is itself evidence of a
            # violent disturbance; treat as safety-related and record why.
            row.safety_related = True
            row.effect = f"simulation failed under fault: {payload}"
            row.impact = "DVF"
            return row
        readings: Dict[str, float] = payload  # type: ignore[assignment]
        deltas = {
            name: _relative_delta(
                baseline[name], readings[name], self.min_absolute_delta
            )
            for name in monitored
        }
        row.sensor_deltas = deltas
        worst = max(deltas.values()) if deltas else 0.0
        if worst > self.threshold:
            row.safety_related = True
            row.impact = "DVF"
            # Quantize the ranking key: two sensors whose deltas agree to
            # nine decimals are tied (broken by sensor order), so the pick
            # cannot depend on which solver path produced the solution.
            worst_sensor = max(deltas, key=lambda name: round(deltas[name], 9))
            row.effect = (
                f"reading at {worst_sensor.rsplit('/', 1)[-1]} deviates "
                f"by {worst * 100:.1f}%"
            )
        else:
            row.effect = (
                f"max sensor deviation {worst * 100:.1f}% (< threshold)"
            )
        return row

    # -- the campaign -----------------------------------------------------

    def run(self) -> FmeaResult:
        """Execute the campaign and return the component safety analysis
        model, with :class:`CampaignStats` attached as ``result.stats``.

        With observability enabled the campaign is one ``campaign`` span
        over ``campaign.baseline`` / ``campaign.enumerate`` /
        ``campaign.execute`` (parenting one ``campaign.job`` span per
        executed injection) / ``campaign.classify`` phases, and the final
        counters are published as ``campaign_*`` metrics.

        The whole run executes under this campaign's correlation id (when
        one was given): every event, span and log record it produces
        carries the id.
        """
        with obs.correlation(self.correlation_id):
            if self.solver_backend is None:
                return self._run_campaign()
            # Campaign-wide backend: the naive/transient/baseline paths
            # solve through module-level functions that read the process
            # default, so pin it for the duration of the run.
            previous = default_backend()
            set_default_backend(self.solver_backend)
            try:
                return self._run_campaign()
            finally:
                set_default_backend(previous)

    def _run_campaign(self) -> FmeaResult:
        started = time.perf_counter()
        # The model/config may have been mutated since the previous run of
        # this campaign object; recompute the fingerprint per run so
        # checkpoint keys always reflect current content.
        self._fingerprint = None
        stats = CampaignStats(
            mode="incremental" if self.incremental else "naive",
            analysis=self.analysis,
            solver_backend=self.solver_backend or "auto",
        )

        with obs.span(
            "campaign",
            system=self.model.name,
            mode=stats.mode,
            analysis=self.analysis,
        ) as campaign_span:
            conversion = to_netlist(self.model)
            compiled: Optional[CompiledSystem] = None
            baseline_started = time.perf_counter()
            with obs.span("campaign.baseline", analysis=self.analysis):
                if self.analysis == "transient":
                    baseline = _solve_readings_transient(
                        conversion, conversion.netlist, self.t_stop, self.dt
                    )
                elif self.incremental:
                    # Read the healthy baseline off the shared compiled
                    # system: one Newton solve serves both the baseline
                    # readings and the warm start of every fault solve,
                    # instead of paying it twice (which is what used to put
                    # tiny incremental campaigns behind naive ones).
                    compiled = _primed_system(
                        conversion.netlist, backend=self.solver_backend
                    )
                    try:
                        baseline = _readings_from_solution(
                            conversion, compiled.solve(), None
                        )
                    except CircuitError:
                        baseline = _solve_readings(
                            conversion, conversion.netlist
                        )
                else:
                    baseline = _solve_readings(conversion, conversion.netlist)
            stats.baseline_time = time.perf_counter() - baseline_started
            monitored = _select_sensors(conversion, self.sensors, baseline)

            result = FmeaResult(
                system=self.model.name,
                method="injection",
                baseline_readings={name: baseline[name] for name in monitored},
            )
            with obs.span("campaign.enumerate") as enumerate_span:
                slots, jobs = self._enumerate(conversion, result)
                enumerate_span.set(jobs=len(jobs), rows=len(slots))
            stats.jobs = len(jobs)
            stats.rows = len(slots)

            checkpoint, preloaded = self._open_checkpoint(jobs, stats)
            pending = [job for job in jobs if job.index not in preloaded]
            self._job_wall_times = []
            self._progress_total = stats.jobs
            self._progress_done = len(preloaded)
            self._progress_resumed = len(preloaded)
            self._progress_t0 = time.perf_counter()
            if obs.events_enabled():
                fingerprint = self._short_fingerprint()
                obs.emit_event(
                    "campaign_started",
                    system=self.model.name,
                    analysis=self.analysis,
                    jobs=stats.jobs,
                    rows=stats.rows,
                    mode=stats.mode,
                    resumed=len(preloaded),
                    fingerprint=fingerprint,
                )
                obs.log(
                    "info", "campaign started",
                    system=self.model.name, analysis=self.analysis,
                    jobs=stats.jobs, fingerprint=fingerprint,
                )
            with obs.span(
                "campaign.execute", jobs=len(pending), resumed=len(preloaded)
            ):
                outcomes = self._execute_serial(
                    conversion, compiled, pending, stats, checkpoint
                )
            outcomes.update(preloaded)
            with obs.span("campaign.classify", rows=len(slots)):
                for row, job in slots:
                    if job is None:
                        result.rows.append(row)
                        continue
                    outcome = outcomes.get(job.index)
                    if outcome is None:
                        # Defensive: execution must cover every job; a gap
                        # is a harness bug, reported as a failure row
                        # rather than a crash.
                        outcome = (
                            "failed",
                            JobFailure(
                                index=job.index,
                                component=job.component,
                                failure_mode=job.failure_mode,
                                exception="LostOutcome",
                                message="job produced no outcome",
                            ).to_dict(),
                        )
                    if outcome[0] == "failed":
                        result.failures.append(
                            JobFailure.from_dict(outcome[1])
                        )
                    result.rows.append(
                        self._classify(row, outcome, baseline, monitored)
                    )
            stats.job_failures = len(result.failures)
            if not result.rows:
                raise FmeaError(
                    "FMEA produced no rows: no component matched the "
                    "reliability model"
                )
            if self._job_wall_times:
                walls = sorted(self._job_wall_times)
                stats.job_wall_p50 = _percentile(walls, 0.50)
                stats.job_wall_p95 = _percentile(walls, 0.95)
                stats.job_wall_p99 = _percentile(walls, 0.99)
            stats.wall_time = time.perf_counter() - started
            campaign_span.set(
                jobs=stats.jobs,
                rows=stats.rows,
                retries=stats.retries,
                job_failures=stats.job_failures,
                resumed_jobs=stats.resumed_jobs,
            )
        result.stats = stats
        stats.publish()
        if obs.events_enabled():
            fingerprint = self._short_fingerprint()
            obs.emit_event(
                "campaign_finished",
                system=self.model.name,
                jobs=stats.jobs,
                rows=stats.rows,
                wall_seconds=stats.wall_time,
                retries=stats.retries,
                job_failures=stats.job_failures,
                fingerprint=fingerprint,
            )
            obs.log(
                "info", "campaign finished",
                system=self.model.name, jobs=stats.jobs, rows=stats.rows,
                wall_seconds=round(stats.wall_time, 4),
                job_failures=stats.job_failures, fingerprint=fingerprint,
            )
        return result

    def _open_checkpoint(
        self, jobs: Sequence[InjectionJob], stats: CampaignStats
    ) -> Tuple[Optional[CampaignCheckpoint], Dict[int, _Outcome]]:
        """Set up checkpointing; with ``resume``, load prior outcomes."""
        if self.checkpoint is None:
            return None, {}
        checkpoint = CampaignCheckpoint(
            self.checkpoint, self._run_fingerprint(), resume=self.resume
        )
        if not self.resume:
            return checkpoint, {}
        with obs.span("campaign.resume", path=str(self.checkpoint)) as sp:
            loaded = checkpoint.load()
            preloaded = {
                job.index: loaded[job.index]
                for job in jobs
                if job.index in loaded and checkpoint.job_matches(job)
            }
            stats.resumed_jobs = len(preloaded)
            sp.set(resumed=len(preloaded), recorded=len(loaded))
        return checkpoint, preloaded
