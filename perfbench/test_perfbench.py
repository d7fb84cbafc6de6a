"""Self-tests of the benchmark.  Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

- a tiny run of every workload, plain and traced, prints every metric
  ``BENCHMARK.json`` names, with its unit, and exits 0;
- a corrupted answer is caught by the oracle and counted as failed;
- the self-time fold is right on a hand-built span tree.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
from layers import LayerSpan  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_run(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    done = _tiny_run(workload, trace)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        measured = result["metrics"][metric["name"]]
        assert measured["unit"] == metric["unit"], metric["name"]
        assert isinstance(measured["value"], (int, float)), metric["name"]


def test_no_program_means_no_result(tmp_path):
    """A directory holding only the benchmark fails fast, printing no
    result line."""
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hit_replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- the oracle ---------------------------------------------------------------


def test_oracle_rejects_corrupted_answers():
    import cases
    import oracle

    case = cases.power_supply()
    reference = json.loads(json.dumps(oracle.build_references(case)["fmea"]))
    answer = {
        "state": "done",
        "cached": False,
        "result": {key: value for key, value in reference.items()
                   if key != "injections"},
    }
    assert oracle.check_miss(answer, reference) is None
    corrupted = json.loads(json.dumps(answer))
    row = corrupted["result"]["rows"][0]
    row["safety_related"] = not row["safety_related"]
    assert "rows" in oracle.check_miss(corrupted, reference)

    first = dict(answer["result"], entry="fmea-abc", metrics={"jobs": 9})
    hit = {"state": "done", "cached": True,
           "result": dict(first, from_cache=True)}
    assert oracle.check_hit(hit, first) is None
    hit["result"]["spfm"] = first["spfm"] + 1e-12
    assert "spfm" in oracle.check_hit(hit, first)


def test_corrupted_service_answer_counts_as_failed(tmp_path, monkeypatch):
    """A service whose FMEA rows go wrong fails the run: every corrupted
    answer lands in ``failed`` and the run is not correct."""
    import run
    import workloads
    from repro.service.jobs import AnalysisService

    prepared_path = tmp_path / "prepared.json"
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "iterate_small",
         "--seed", "3", "--prepare", str(prepared_path), "--tiny"],
        cwd=ROOT, check=True, timeout=600,
    )
    prepared = json.loads(prepared_path.read_text())
    compute = AnalysisService._compute

    def corrupting(self, request, job):
        answer = compute(self, request, job)
        if request.kind == "fmea" and ".rev" in str(request.model["name"]):
            answer["rows"][-1] = dict(answer["rows"][-1], fit=-1.0)
        return answer

    monkeypatch.setattr(AnalysisService, "_compute", corrupting)
    bench = workloads.Run("iterate_small", 3, 2.0, False, tmp_path / "run",
                          Path(prepared["template"]), prepared, tiny=True)
    result = bench.run()
    timed_fmea = [r for r in bench.records if r.kind == "fmea"]
    assert timed_fmea and all(r.error for r in timed_fmea)
    assert result.failed == len(timed_fmea) == len(result.errors)
    assert all("rows" in error for error in result.errors)
    assert run.ROOT == ROOT


# -- the fold -----------------------------------------------------------------


def _span(span_id, parent, layer, start, end, thread, cid=None):
    return LayerSpan(span_id, parent, layer, float(start), float(end), thread, cid)


def test_fold_on_hand_built_tree():
    """Handler thread 1 answers the POST and the GET; worker thread 2
    runs the job.  Times are in seconds, the window is [0, 9.2]."""
    spans = [
        _span(1, None, "http.post", 0.0, 2.0, 1),
        _span(2, 1, "service.validate", 0.2, 0.4, 1),
        _span(3, 1, "service.submit", 0.5, 1.0, 1, cid="job"),
        _span(4, 3, "obs.emit", 0.6, 0.7, 1, cid="job"),
        _span(5, None, "service.job", 2.2, 9.0, 2, cid="job"),
        _span(6, 5, "service.fingerprint", 2.3, 2.5, 2, cid="job"),
        _span(7, 5, "service.compute", 3.0, 8.0, 2, cid="job"),
        _span(8, 7, "campaign", 3.5, 7.0, 2, cid="job"),
        _span(9, 8, "mna.fault_solve", 4.0, 6.0, 2, cid="job"),
        _span(10, None, "http.get", 8.5, 9.5, 1),
    ]
    layers.assign_cids(spans)
    assert {span.cid for span in spans[:4]} == {"job"}
    assert spans[9].cid is None  # a GET learns its job from its path
    fold = layers.fold_job(spans, 0.0, 9.2)
    expected = {
        "http.post": 2.0 - 0.2 - 0.5,
        "service.validate": 0.2,
        "service.submit": 0.5 - 0.1,
        "obs.emit": 0.1,
        # [2.2, 9.0] less its children [2.3, 2.5] and [3, 8], and less
        # [8.5, 9.0], where the GET handler answers the client.
        "service.job": 0.1 + 0.5 + 0.5,
        "service.fingerprint": 0.2,
        "service.compute": 5.0 - 3.5,
        "campaign": 3.5 - 2.0,
        "mna.fault_solve": 2.0,
        # Clipped at the window's end.
        "http.get": 9.2 - 8.5,
    }
    assert fold.self_ms.keys() == expected.keys()
    for layer, seconds in expected.items():
        assert fold.self_ms[layer] == pytest.approx(seconds * 1e3), layer
    # The queue wait [2.0, 2.2] is covered by no span.
    assert fold.unattributed_ms == pytest.approx(200.0)
    assert fold.overlap_ms == pytest.approx(0.0, abs=1e-9)
    assert sum(fold.self_ms.values()) + fold.unattributed_ms == \
        pytest.approx(fold.wall_ms)
    assert fold.calls["mna.fault_solve"] == 1
