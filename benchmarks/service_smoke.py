"""CI smoke for the always-on analysis service.

Starts the real thing — ``same serve-analysis`` as a subprocess — then,
over plain HTTP:

1. submits an FMEA job for the power-supply case study and waits for it
   to compute (a cache miss: the ledger starts empty);
2. submits an FMEDA job on the same payload — the next step of a DECISIVE
   round — and asserts it computed (``cached`` false) from the revision's
   stored FMEA instead of a second campaign (``service_fmea_reuses`` is 1
   on ``/metrics``);
3. resubmits the *identical* FMEA payload and asserts it is served from
   the ledger — ``cached`` is true, the rows are bit-identical to the
   computed ones, and ``service_cache_hits`` is 1 on ``/metrics``;
4. checks ``/healthz`` carries the service summary;
5. writes the final ``/metrics`` scrape to ``SERVICE_metrics.txt`` (the
   CI artifact).

Exits non-zero on any violation.  Run as::

    PYTHONPATH=src python benchmarks/service_smoke.py
"""

import json
import re
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

METRICS_OUT = Path("SERVICE_metrics.txt")
STARTUP_SECONDS = 60
JOB_SECONDS = 120


def _get(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read()


def _post(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        if response.status != 202:
            raise AssertionError(f"POST /jobs -> {response.status}")
        return json.load(response)


def _wait_done(url: str, job_id: str) -> dict:
    deadline = time.monotonic() + JOB_SECONDS
    while time.monotonic() < deadline:
        job = json.loads(_get(f"{url}/jobs/{job_id}"))
        if job["state"] in ("done", "failed"):
            if job["state"] != "done":
                raise AssertionError(f"job {job_id} failed: {job['error']}")
            return job
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} did not finish in {JOB_SECONDS}s")


def main() -> int:
    from repro.casestudies.power_supply import (
        ASSUMED_STABLE,
        build_power_supply_simulink,
        power_supply_reliability,
    )
    from repro.service import reliability_payload

    payload = {
        "kind": "fmea",
        "model": build_power_supply_simulink().to_dict(),
        "reliability": reliability_payload(power_supply_reliability()),
        "config": {
            "sensors": ["CS1"],
            "assume_stable": list(ASSUMED_STABLE),
        },
        "tenant": "ci-smoke",
    }

    with tempfile.TemporaryDirectory() as tmp:
        ledger = Path(tmp) / "ledger.jsonl"
        server = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve-analysis",
                "--ledger", str(ledger),
                "--bind", "127.0.0.1:0",
                "--max-seconds", "300",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            url = None
            deadline = time.monotonic() + STARTUP_SECONDS
            while time.monotonic() < deadline:
                line = server.stdout.readline()
                if not line:
                    raise AssertionError("serve-analysis exited early")
                print(f"server: {line.rstrip()}")
                match = re.search(r"http://[\d.]+:\d+", line)
                if match:
                    url = match.group(0)
                    break
            assert url, "serve-analysis never printed its URL"

            first = _wait_done(url, _post(f"{url}/jobs", payload)["id"])
            assert first["cached"] is False, "first submission must compute"
            assert first["result"]["rows"], "computed FMEA has no rows"

            fmeda_payload = dict(payload, kind="fmeda")
            fmeda = _wait_done(
                url, _post(f"{url}/jobs", fmeda_payload)["id"]
            )
            assert fmeda["cached"] is False, "first FMEDA must compute"
            assert fmeda["result"]["rows"], "computed FMEDA has no rows"
            print("revision reuse OK: fmeda computed on the stored FMEA")

            second = _wait_done(url, _post(f"{url}/jobs", payload)["id"])
            assert second["cached"] is True, (
                "identical resubmission was recomputed instead of being "
                "served from the ledger"
            )
            assert second["result"]["rows"] == first["result"]["rows"], (
                "cached rows are not bit-identical to the computed rows"
            )
            assert second["fingerprint"] == first["fingerprint"]
            print(
                f"cache hit OK: {len(first['result']['rows'])} rows, "
                f"fingerprint {first['fingerprint'][:16]}…"
            )

            health = json.loads(_get(f"{url}/healthz"))
            service = health["service"]
            assert service["cache_hits"] == 1, service
            assert service["cache_misses"] == 2, service
            assert service["jobs"].get("done") == 3, service
            print(f"healthz OK: {service}")

            metrics = _get(f"{url}/metrics").decode("utf-8")
            for needle in (
                "service_cache_hits 1",
                "service_cache_misses 2",
                "service_fmea_reuses 1",
                "service_jobs_submitted 3",
                "service_jobs_completed 3",
            ):
                assert needle in metrics, f"{needle!r} missing from /metrics"
            METRICS_OUT.write_text(metrics, encoding="utf-8")
            print(f"metrics scrape written to {METRICS_OUT}")
        finally:
            server.terminate()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
    print("service smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
