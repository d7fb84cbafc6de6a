"""The four case studies as analysis-service payloads, and their revisions.

A *case* is one design under iteration: a ``repro-simulink/1`` model
payload, its reliability payload, the campaign config the service gets,
and the mechanism catalogue that the ``fmeda`` and ``search`` requests of
a DECISIVE round draw on.  A *revision* is the base model renamed: the
name is part of the campaign fingerprint, so every revision is a new
cache key and takes the full miss path, while its FMEA rows stay equal
to the base model's (which is what lets one reference serve them all).

Everything here is built off the clock; request bodies are JSON-encoded
once, and a revision body is the base body with the name spliced in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.casestudies import (
    SYSTEM_A_ASSUMED_STABLE,
    SYSTEM_B_ASSUMED_STABLE,
    build_power_grid_simulink,
    build_power_supply_simulink,
    build_system_a_simulink,
    build_system_b_simulink,
    power_grid_injection_sample,
    power_network_reliability,
    power_supply_mechanisms,
    power_supply_reliability,
)
from repro.casestudies.power_supply import ASSUMED_STABLE
from repro.casestudies.systems import system_mechanisms
from repro.service import reliability_payload

KINDS = ("fmea", "fmeda", "search")

#: Grid dimensions for ``iterate_large`` and ``hit_replay``: about 1.3k
#: blocks, solved on the sparse backend.
GRID_FEEDERS = 4
GRID_SECTIONS = 150
#: Grid components drawn into injection scope (seeded per run).
GRID_SAMPLE_K = 24

#: Placeholder the revision name replaces in a pre-encoded body.
_NAME_MARK = "\u0000revision\u0000"


@dataclass
class Case:
    """One design under iteration, in the service's payload form."""

    name: str
    model: Dict[str, object]
    reliability: List[Dict[str, object]]
    config: Dict[str, object]
    mechanisms: List[Dict[str, object]]
    #: Filled by :func:`oracle.build_references` from the reference FMEA:
    #: the catalogue's best mechanism on every matching row, and the
    #: highest ASIL the catalogue can reach.
    deployments: List[Dict[str, object]] = field(default_factory=list)
    target_asil: str = ""

    def payload(self, kind: str, model_name: str = "") -> Dict[str, object]:
        """The ``POST /jobs`` body of one request, as a dict."""
        model = self.model
        if model_name:
            model = dict(model, name=model_name)
        body: Dict[str, object] = {
            "kind": kind,
            "model": model,
            "reliability": self.reliability,
            "config": self.config,
        }
        if kind == "fmeda":
            body["deployments"] = self.deployments
        if kind == "search":
            body["mechanisms"] = self.mechanisms
            body["target_asil"] = self.target_asil
        return body

    def body_template(self, kind: str) -> Tuple[bytes, bytes]:
        """The encoded body split around the model name, so a revision
        body is ``head + name + tail`` without re-encoding the model."""
        encoded = json.dumps(self.payload(kind, _NAME_MARK)).encode("utf-8")
        mark = json.dumps(_NAME_MARK).encode("utf-8")
        head, tail = encoded.split(mark)
        return head, tail

    def revision_name(self, number: int) -> str:
        return f"{self.model['name']}.rev{number}"


def _mechanism_payload(catalogue) -> List[Dict[str, object]]:
    return [
        {
            "component_class": spec.component_class,
            "failure_mode": spec.failure_mode,
            "name": spec.name,
            "coverage": spec.coverage,
            "cost": spec.cost,
        }
        for spec in catalogue.specs()
    ]


def power_supply() -> Case:
    return Case(
        name="power_supply",
        model=build_power_supply_simulink().to_dict(),
        reliability=reliability_payload(power_supply_reliability()),
        config={"sensors": ["CS1"], "assume_stable": list(ASSUMED_STABLE)},
        mechanisms=_mechanism_payload(power_supply_mechanisms()),
    )


def system_a() -> Case:
    return Case(
        name="system_a",
        model=build_system_a_simulink().to_dict(),
        reliability=reliability_payload(power_network_reliability()),
        config={"assume_stable": list(SYSTEM_A_ASSUMED_STABLE)},
        mechanisms=_mechanism_payload(system_mechanisms()),
    )


def system_b() -> Case:
    return Case(
        name="system_b",
        model=build_system_b_simulink().to_dict(),
        reliability=reliability_payload(power_network_reliability()),
        config={
            "assume_stable": list(SYSTEM_B_ASSUMED_STABLE),
            "solver_backend": "dense",
        },
        mechanisms=_mechanism_payload(system_mechanisms()),
    )


def power_grid(seed: int, feeders: int = GRID_FEEDERS,
               sections: int = GRID_SECTIONS,
               sample_k: int = GRID_SAMPLE_K) -> Case:
    """The distribution grid with a seeded injection sample."""
    model = build_power_grid_simulink(
        feeders=feeders, sections_per_feeder=sections
    )
    stable = power_grid_injection_sample(model, k=sample_k, seed=seed)
    return Case(
        name="power_grid",
        model=model.to_dict(),
        reliability=reliability_payload(power_network_reliability()),
        config={"assume_stable": list(stable), "solver_backend": "sparse"},
        mechanisms=_mechanism_payload(system_mechanisms()),
    )


def cases_for(workload: str, seed: int, tiny: bool = False) -> List[Case]:
    """The cases a workload iterates on (``tiny`` shrinks the large ones
    for the self-test)."""
    if workload == "iterate_small":
        return [power_supply(), system_a()]
    grid = (
        power_grid(seed, feeders=2, sections=12, sample_k=6)
        if tiny else power_grid(seed)
    )
    large = system_b() if not tiny else _small_system_b()
    if workload == "iterate_large":
        return [large, grid]
    if workload == "hit_replay":
        return [power_supply(), system_a(), large, grid]
    raise ValueError(f"unknown workload {workload!r}")


def _small_system_b() -> Case:
    case = system_b()
    case.model = build_system_b_simulink(rails=3).to_dict()
    return case
