"""Benchmark of the DECISIVE design loop through the analysis service.

Run from the repository root::

    python3 perfbench/run.py --workload iterate_small --seed 1 --seconds 20 --trace 0

Workloads: ``iterate_small``, ``iterate_large``, ``hit_replay`` (see
``perfbench/README.md``).  With ``--trace 0`` the last line of standard
output is a JSON object carrying the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run.  Every
answer is checked; the exit code is non-zero when any answer was wrong.

Set-up work (the seeded ledger template, the reference answers) runs in
a child process, so it neither counts toward the timings nor toward the
measured process's peak memory.  Scratch files live under
``.bench_build/perfbench`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
#: Ledger entries in the template (the self-test uses a small one).
TINY_TEMPLATE_ENTRIES = 300
PREPARE_TIMEOUT_S = 600


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small cases, ledger and schedule (self-test)")
    parser.add_argument("--prepare", metavar="OUT",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program() -> bool:
    """Put the checkout's ``src`` first on the path and import it; False
    when the checkout holds no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print("perfbench: imported repro from outside the checkout",
              file=sys.stderr)
        return False
    return True


def prepare(args) -> None:
    """Child-process step: ensure the ledger template, compute reference
    answers, write both to ``args.prepare`` as JSON."""
    import cases
    import ledger_template
    import oracle

    entries = (TINY_TEMPLATE_ENTRIES if args.tiny
               else ledger_template.TEMPLATE_ENTRIES)
    template = ledger_template.template_dir(ROOT, WORK, entries)
    prepared = {
        "template": str(template),
        "probe": ledger_template.probe_answer(template),
        "cases": {},
    }
    for case in cases.cases_for(args.workload, args.seed, tiny=args.tiny):
        references = oracle.build_references(case)
        prepared["cases"][case.name] = {
            "deployments": case.deployments,
            "target_asil": case.target_asil,
            "references": references,
        }
    Path(args.prepare).write_text(json.dumps(prepared))


def _prepared(args) -> dict:
    """The template and references for this workload and seed, made in a
    child process on first use and kept for later runs of the same
    program sources."""
    from ledger_template import source_digest

    name = (f"prepared-{args.workload}-{args.seed}"
            f"{'-tiny' if args.tiny else ''}-{source_digest(ROOT)}.json")
    path = WORK / name
    if path.exists():
        prepared = json.loads(path.read_text())
        if Path(prepared["template"]).is_dir():
            return prepared
    partial = path.with_suffix(f".partial-{os.getpid()}")
    command = [sys.executable, str(HERE / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--prepare", str(partial)]
    if args.tiny:
        command.append("--tiny")
    subprocess.run(command, check=True, timeout=PREPARE_TIMEOUT_S)
    os.replace(partial, path)
    return json.loads(path.read_text())


def _result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })


def main(argv=None) -> int:
    args = _parse(argv)
    if not _import_program():
        return 2
    if args.prepare:
        prepare(args)
        return 0

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        prepared = _prepared(args)
        run = workloads.Run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            run_dir, Path(prepared["template"]), prepared, tiny=args.tiny,
        )
        result = run.run()
    finally:
        from repro.safety import pool

        pool.shutdown_all()
        shutil.rmtree(run_dir, ignore_errors=True)

    for line in result.report:
        print(line)
    for error in result.errors[:20]:
        print(f"  WRONG: {error}")
    metrics = result.per_layer if args.trace else result.end_to_end
    bad = [name for name, (value, _) in metrics.items()
           if not math.isfinite(value)]
    for name in bad:
        print(f"  WRONG: metric {name} was not measured")
    correct = not result.errors and not bad
    print(_result_line(correct, result.attempted, result.failed + len(bad),
                       {k: v for k, v in metrics.items() if k not in bad}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
