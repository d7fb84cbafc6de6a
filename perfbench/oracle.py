"""Reference answers, and the checks every service answer must pass.

References are computed off the clock, once per case, on the *base*
model with the naive campaign (``incremental=False``: every fault is a
full re-assembly and a fresh Newton solve, none of the service's fast
paths).  A revision only renames the model, so its rows must equal the
base model's byte for byte.  The ``fmeda`` and ``search`` references
come from calling :func:`run_fmeda` and :func:`search_for_target` on the
reference FMEA.

Cache hits are held to a stricter rule: bit-identity with the first
computed answer for the same payload.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from repro.obs.ledger import fmea_rows_payload, fmeda_rows_payload
from repro.safety import run_fmeda, search_for_target
from repro.safety.campaign import FaultInjectionCampaign
from repro.safety.mechanisms import (
    Deployment,
    MechanismSpec,
    SafetyMechanismModel,
)
from repro.safety.metrics import asil_from_spfm, spfm
from repro.service import reliability_from_payload
from repro.simulink import SimulinkModel

from cases import Case

#: Targets tried for a case's ``search`` request, most demanding first.
_TARGETS = ("ASIL-D", "ASIL-C", "ASIL-B", "ASIL-A")

#: Result fields a cache hit must reproduce exactly.
HIT_FIELDS = ("rows", "spfm", "asil", "entry", "metrics")


def _catalogue(case: Case) -> SafetyMechanismModel:
    return SafetyMechanismModel(
        MechanismSpec(
            component_class=str(m["component_class"]),
            failure_mode=str(m["failure_mode"]),
            name=str(m["name"]),
            coverage=float(m["coverage"]),  # type: ignore[arg-type]
            cost=float(m["cost"]),  # type: ignore[arg-type]
        )
        for m in case.mechanisms
    )


def reference_fmea(case: Case):
    """The naive-campaign FMEA of the case's base model."""
    config = case.config
    return FaultInjectionCampaign(
        SimulinkModel.from_dict(dict(case.model)),
        reliability_from_payload(case.reliability),
        sensors=config.get("sensors"),  # type: ignore[arg-type]
        assume_stable=tuple(config.get("assume_stable", ())),  # type: ignore[arg-type]
        solver_backend=config.get("solver_backend"),  # type: ignore[arg-type]
        incremental=False,
    ).run()


def build_references(case: Case) -> Dict[str, Dict[str, object]]:
    """Reference answers for the case's three request kinds.

    Also fills ``case.deployments`` (the catalogue's best mechanism on
    every safety-related row it covers) and ``case.target_asil`` (the
    highest ASIL the catalogue reaches), so the ``fmeda`` and ``search``
    request bodies exist only once the reference FMEA does.
    """
    fmea = reference_fmea(case)
    value = spfm(fmea, [])
    catalogue = _catalogue(case)
    deployments: List[Deployment] = []
    for row in fmea.rows:
        spec = catalogue.best_for(row.component_class, row.failure_mode)
        if row.safety_related and spec is not None:
            deployments.append(
                Deployment(row.component, row.failure_mode, spec.name,
                           spec.coverage, spec.cost)
            )
    case.deployments = [
        {"component": d.component, "failure_mode": d.failure_mode,
         "mechanism": d.mechanism, "coverage": d.coverage, "cost": d.cost}
        for d in deployments
    ]
    fmeda = run_fmeda(fmea, deployments)
    plan = None
    for target in _TARGETS:
        plan = search_for_target(fmea, catalogue, target, strategy="dp")
        if plan is not None:
            case.target_asil = target
            break
    if plan is None:
        raise RuntimeError(f"{case.name}: the catalogue reaches no ASIL")
    return {
        "fmea": {
            "rows": fmea_rows_payload(fmea),
            "spfm": value,
            "asil": asil_from_spfm(value),
            "injections": fmea.stats.jobs,
        },
        "fmeda": {
            "rows": fmeda_rows_payload(fmeda),
            "spfm": fmeda.spfm,
            "asil": fmeda.asil,
            "total_cost": fmeda.total_cost,
            "injections": fmea.stats.jobs,
        },
        "search": {
            "rows": [
                {"component": d.component, "failure_mode": d.failure_mode,
                 "mechanism": d.mechanism, "coverage": d.coverage,
                 "cost": d.cost}
                for d in plan.deployments
            ],
            "spfm": plan.spfm,
            "asil": plan.asil,
            "cost": plan.cost,
            "injections": fmea.stats.jobs,
        },
    }


def check_miss(job: Mapping[str, object],
               reference: Mapping[str, object]) -> Optional[str]:
    """Why a computed job's answer is wrong, or ``None`` when it is right."""
    if job.get("state") != "done":
        return f"job state {job.get('state')!r}: {job.get('error')}"
    result = job.get("result")
    if not isinstance(result, dict):
        return "job has no result"
    if result.get("from_cache") or job.get("cached"):
        return "expected a computed answer, got a cache hit"
    for key, expected in reference.items():
        if key == "injections":
            continue
        if result.get(key) != expected:
            return f"field {key!r} differs from the reference"
    return None


def check_hit(job: Mapping[str, object],
              first: Mapping[str, object]) -> Optional[str]:
    """Why a cache hit's answer is wrong, or ``None`` when it is right;
    ``first`` is the first computed result for the same payload."""
    if job.get("state") != "done":
        return f"job state {job.get('state')!r}: {job.get('error')}"
    result = job.get("result")
    if not isinstance(result, dict):
        return "job has no result"
    if not (job.get("cached") and result.get("from_cache")):
        return "expected a cache hit, got a computed answer"
    for key in HIT_FIELDS:
        if result.get(key) != first.get(key):
            return f"field {key!r} differs from the first computed answer"
    return None
