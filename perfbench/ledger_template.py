"""The seeded ledger every run starts from, built with the code under test.

About 10k entries (about 30 MB) appended through
:meth:`AnalysisLedger.append`: rows shaped like real service results
(FMEA, FMEDA and optimizer payloads of the small case studies, component
names varied per entry) under distinct cache keys.  One extra entry holds
the real FMEA answer to :func:`probe_payload`, the request that times
set-up.  The finished ledger is opened once, so whatever the program
keeps next to it (an index sidecar, say) exists before the first run
copies it.

The template is cached under the build directory, keyed by a digest of
the program's and the benchmark's sources, and copied fresh into every
run.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from pathlib import Path
from typing import Dict, List

from repro.obs.ledger import AnalysisLedger, LedgerEntry
from repro.service import AnalysisRequest

import cases
import oracle

#: Fixed: every workload and seed starts from the same ledger.
TEMPLATE_SEED = 20220711
TEMPLATE_ENTRIES = 10_000
LEDGER_NAME = "ledger.jsonl"
#: Kept beside the template ledger, never copied into a run.
PROBE_NAME = "probe-answer.json"


def probe_payload() -> Dict[str, object]:
    """The set-up probe: the base power-supply FMEA, a cache hit on the
    template's probe entry."""
    return cases.power_supply().payload("fmea")


def source_digest(root: Path) -> str:
    """A digest of the program's sources and of the benchmark's own."""
    digest = hashlib.sha256()
    own = sorted(Path(__file__).resolve().parent.glob("*.py"))
    for path in sorted((root / "src").rglob("*.py")) + own:
        digest.update(path.name.encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _row_shapes() -> List[Dict[str, object]]:
    """(kind, rows) samples from real answers of the two small cases."""
    shapes = []
    for case in (cases.power_supply(), cases.system_a()):
        references = oracle.build_references(case)
        shapes.append(("fmea", references["fmea"]))
        shapes.append(("fmeda", references["fmeda"]))
        shapes.append(("optimizer", references["search"]))
    return shapes


def _build(path: Path, entries: int) -> None:
    rng = random.Random(TEMPLATE_SEED)
    shapes = _row_shapes()
    ledger = AnalysisLedger(path)
    probe = AnalysisRequest.from_payload(probe_payload())
    reference = oracle.build_references(cases.power_supply())["fmea"]
    systems = [f"design-{i:03d}" for i in range(64)]
    for i in range(entries):
        kind, answer = shapes[rng.randrange(len(shapes))]
        tag = f"{i:05d}"
        rows = [
            dict(row, component=f"{row['component']}_{tag}")
            for row in answer["rows"]  # type: ignore[union-attr]
        ]
        ledger.append(
            LedgerEntry(
                kind=kind,
                system=rng.choice(systems),
                spfm=answer["spfm"],  # type: ignore[arg-type]
                asil=answer["asil"],  # type: ignore[arg-type]
                fingerprint=hashlib.sha256(tag.encode()).hexdigest(),
                rows=rows,
                metrics={"wall_time": rng.uniform(0.001, 0.5), "jobs": len(rows)},
                meta={
                    "service": True,
                    "service_cache_key": hashlib.sha256(
                        f"template-{TEMPLATE_SEED}-{tag}".encode()
                    ).hexdigest(),
                },
            )
        )
        if i == entries // 2:
            probe_entry = ledger.append(
                LedgerEntry(
                    kind="fmea",
                    system=str(probe.model["name"]),
                    spfm=reference["spfm"],  # type: ignore[arg-type]
                    asil=reference["asil"],  # type: ignore[arg-type]
                    fingerprint=probe.fingerprint(),
                    rows=list(reference["rows"]),  # type: ignore[arg-type]
                    meta={"service": True,
                          "service_cache_key": probe.cache_key()},
                )
            )
    # The answer a probe hit must reproduce, as the service serves it.
    (path.parent / PROBE_NAME).write_text(json.dumps({
        "rows": probe_entry.rows,
        "spfm": probe_entry.spfm,
        "asil": probe_entry.asil,
        "entry": probe_entry.entry_id,
        "metrics": probe_entry.metrics,
    }))
    # Open once, cold, so any on-disk index the program keeps is written.
    AnalysisLedger(path).latest_by_cache_key(probe.cache_key())


def template_dir(root: Path, work: Path, entries: int = TEMPLATE_ENTRIES) -> Path:
    """The cached template directory, built on first use."""
    digest = source_digest(root)
    target = work / f"ledger-template-{entries}-{digest}"
    if (target / LEDGER_NAME).exists():
        return target
    for stale in work.glob("ledger-template-*"):
        if not stale.name.endswith(digest):  # built from other sources
            shutil.rmtree(stale, ignore_errors=True)
    for stale in work.glob("prepared-*.json"):
        if not stale.stem.endswith(digest):
            stale.unlink()
    staging = work / f"{target.name}.partial-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    _build(staging / LEDGER_NAME, entries)
    try:
        os.replace(staging, target)
    except OSError:  # another run finished the same template first
        shutil.rmtree(staging, ignore_errors=True)
    return target


def fresh_copy(template: Path, destination: Path) -> Path:
    """Copy every file of the template into an empty ``destination``;
    returns the ledger path there."""
    shutil.rmtree(destination, ignore_errors=True)
    shutil.copytree(template, destination,
                    ignore=shutil.ignore_patterns(PROBE_NAME))
    return destination / LEDGER_NAME


def _stamps(directory: Path) -> Dict[str, tuple]:
    return {
        str(path.relative_to(directory)): (path.stat().st_size,
                                           path.stat().st_mtime_ns)
        for path in directory.rglob("*")
        if path.is_file() and path.name != PROBE_NAME
    }


def same_files(template: Path, copy: Path) -> bool:
    """Whether ``copy`` still holds exactly the template's files (copies
    keep the template's sizes and modification times until written)."""
    return _stamps(template) == _stamps(copy)


def probe_answer(template: Path) -> Dict[str, object]:
    return json.loads((template / PROBE_NAME).read_text())
