"""BENCH obs overhead — what tracing costs per span and per campaign job.

The tier-1 gate ``tests/test_obs_campaign.py::
test_tracing_overhead_below_five_percent`` bounds tracing at 5% of the
smoke-sized System B campaign.  This bench keeps the budget behind that
gate visible by pricing its parts:

- **per span**: one enabled ``obs.span`` with the three attributes a
  ``campaign.job`` span carries, one without attributes, and the disabled
  no-op path;
- **per metric**: one ``obs.histogram(name).observe`` (registry lookup of
  an existing name plus the observation) and one ``obs.counter(name).inc``;
- **per job**: the smoke campaign traced vs untraced (best-of-N CPU time,
  interleaved), the difference divided by the campaign's job count, next to
  the number of spans a campaign records.

Run it directly (``PYTHONPATH=src python benchmarks/bench_obs_overhead.py``)
or through pytest, which prints the table in the terminal summary and
persists it under ``benchmarks/results/``.  It reports; it does not gate.
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List

from repro import obs
from repro.casestudies import (
    SYSTEM_B_ASSUMED_STABLE,
    build_system_b_simulink,
    power_network_reliability,
)
from repro.safety.campaign import FaultInjectionCampaign

#: Smoke-sized System B, the campaign the tier-1 overhead gate runs.
SMOKE_RAILS = 4
#: Micro-benchmark loop length, and best-of repeats for every timing.
LOOP = 20_000
REPEATS = 5
CAMPAIGN_PAIRS = 15


def _best_per_call(body, loop: int = LOOP) -> float:
    """Best-of-``REPEATS`` CPU seconds per call of ``body``."""
    best = float("inf")
    for _ in range(REPEATS):
        gc.collect()
        gc.disable()
        try:
            started = time.process_time()
            for _ in range(loop):
                body()
            best = min(best, time.process_time() - started)
        finally:
            gc.enable()
    return best / loop


def micro_costs() -> Dict[str, float]:
    """Per-call CPU cost (µs) of each instrumentation primitive."""

    def span_with_attrs():
        with obs.span("campaign.job", job=1, component="R1", failure_mode="open") as sp:
            sp.set(outcome="ok")

    def span_bare():
        with obs.span("mna.direct_solve"):
            pass

    def observe():
        obs.histogram("bench_obs_seconds").observe(1e-3)

    def count():
        obs.counter("bench_obs_total").inc()

    costs: Dict[str, float] = {}
    obs.disable()
    obs.reset()
    costs["span (disabled)"] = _best_per_call(span_with_attrs)
    obs.enable()
    try:
        for name, body in (
            ("span + 3 attrs, set", span_with_attrs),
            ("span, no attrs", span_bare),
            ("histogram observe", observe),
            ("counter inc", count),
        ):
            obs.reset()
            costs[name] = _best_per_call(body)
    finally:
        obs.disable()
        obs.reset()
    return {name: seconds * 1e6 for name, seconds in costs.items()}


def campaign_costs(pairs: int = CAMPAIGN_PAIRS) -> Dict[str, float]:
    """Traced vs untraced smoke campaign: best-of CPU times and the
    per-job difference."""
    campaign = FaultInjectionCampaign(
        build_system_b_simulink(rails=SMOKE_RAILS),
        power_network_reliability(),
        assume_stable=SYSTEM_B_ASSUMED_STABLE,
    )

    def run_once(traced: bool) -> float:
        obs.disable()
        obs.reset()
        if traced:
            obs.enable()
        gc.collect()
        gc.disable()
        try:
            started = time.process_time()
            campaign.run()
            return time.process_time() - started
        finally:
            gc.enable()

    run_once(False)
    run_once(True)
    spans = len(obs.tracer().records())
    jobs = int(obs.counter("campaign_jobs").value)
    plain: List[float] = []
    traced: List[float] = []
    for index in range(pairs):
        order = (False, True) if index % 2 == 0 else (True, False)
        for is_traced in order:
            (traced if is_traced else plain).append(run_once(is_traced))
    obs.disable()
    obs.reset()
    best_plain, best_traced = min(plain), min(traced)
    return {
        "jobs": jobs,
        "spans": spans,
        "untraced_ms": best_plain * 1e3,
        "traced_ms": best_traced * 1e3,
        "overhead_pct": (best_traced / best_plain - 1.0) * 100.0,
        "per_job_us": (best_traced - best_plain) / max(jobs, 1) * 1e6,
    }


def report_lines(micro: Dict[str, float], campaign: Dict[str, float]) -> List[str]:
    lines = [f"{name:<20} {cost:8.2f} µs/call" for name, cost in micro.items()]
    lines += [
        f"smoke campaign: {campaign['jobs']:.0f} jobs, "
        f"{campaign['spans']:.0f} spans",
        f"  untraced {campaign['untraced_ms']:.2f} ms CPU, "
        f"traced {campaign['traced_ms']:.2f} ms CPU "
        f"({campaign['overhead_pct']:+.1f}%, gate < 5%)",
        f"  instrumentation per job: {campaign['per_job_us']:.1f} µs",
    ]
    return lines


def test_obs_overhead_report():
    from _harness import report_table

    lines = report_lines(micro_costs(), campaign_costs())
    report_table("BENCH obs", "instrumentation cost per span and per job",
                 "\n".join(lines))


if __name__ == "__main__":
    for line in report_lines(micro_costs(), campaign_costs()):
        print(line)
