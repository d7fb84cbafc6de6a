"""No-op teardown hook for fault-injection campaigns.

Campaigns run on one execution path — a batched presolve of the pending
jobs, then the per-job loop — and keep no worker pool.  :func:`shutdown_all`
remains because the repository benchmark's teardown (``perfbench/run.py``)
calls it after every run.
"""

__all__ = ["shutdown_all"]


def shutdown_all() -> None:
    """No-op: campaigns hold no process pool to shut down."""
