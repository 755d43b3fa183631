"""Picklable fault-injection run functions for resilience tests.

Process-pool ``run_fn`` injection requires module-level callables (the
pool pickles them by reference), so the crash scenarios the resilience
suite needs — a worker that SIGKILLs itself mid-run, a run that fails
transiently N times — live here rather than inline in the
tests.  Cross-process "have I crashed before?" state is carried by
sentinel files named through environment variables, which survive the
pool's worker churn.
"""

from __future__ import annotations

import os
import signal

from repro.lab.results import RunResult
from repro.lab.core import TransientRunError
from repro.lab.spec import RunSpec
from repro.metrics.stats import SimStats

#: Env var naming the sentinel file used by the kill/flake run_fns.
SENTINEL_ENV = "REPRO_TEST_SENTINEL"


def fabricate_result(spec: RunSpec, cycles: int = 1) -> RunResult:
    """A minimal, valid RunResult for tests that never simulate."""
    return RunResult(
        spec_hash=spec.content_hash(),
        cycles=cycles,
        stats=SimStats(),
        predicted_sibs=[],
        ddos=None,
        elapsed_s=0.0,
        phases={},
    )


def _claim_sentinel(tag: str) -> bool:
    """Atomically claim ``<sentinel>.<tag>``; True exactly once."""
    base = os.environ.get(SENTINEL_ENV)
    if base is None:
        return False
    path = f"{base}.{tag}"
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.close(fd)
    return True


def kill_worker_once(spec: RunSpec) -> RunResult:
    """SIGKILL the executing process the first time any worker runs it.

    Models an OOM-killed pool worker: the process dies without cleanup,
    the pool breaks, and the retried run (a fresh worker, sentinel now
    present) succeeds.
    """
    if _claim_sentinel("kill"):
        os.kill(os.getpid(), signal.SIGKILL)
    return fabricate_result(spec)


def kill_always(spec: RunSpec) -> RunResult:
    """SIGKILL the executing process on every attempt (never succeeds)."""
    os.kill(os.getpid(), signal.SIGKILL)
    raise AssertionError("unreachable")


def flaky_then_ok(spec: RunSpec) -> RunResult:
    """Raise TransientRunError on the first call, succeed afterwards."""
    if _claim_sentinel("flake"):
        raise TransientRunError("injected transient failure")
    return fabricate_result(spec)


def instant_ok(spec: RunSpec) -> RunResult:
    return fabricate_result(spec)


def report_pid(spec: RunSpec) -> RunResult:
    """Succeed, carrying the executing process's pid as ``cycles``."""
    return fabricate_result(spec, cycles=os.getpid())


__all__ = [
    "SENTINEL_ENV",
    "fabricate_result",
    "flaky_then_ok",
    "instant_ok",
    "kill_always",
    "kill_worker_once",
    "report_pid",
]
