"""``repro.lab`` — parallel experiment orchestration with result caching.

The lab turns "run N independent simulations" into a first-class
operation (see ``docs/lab.md``):

* :class:`RunSpec` — one simulation, content-hashed;
* :class:`Runner` — parallel fan-out with per-run timeouts, bounded
  retries, and structured :class:`RunFailure` records;
* :class:`ResultCache` — on-disk content-addressed result store keyed
  by spec hash + simulator-code fingerprint;
* :class:`Sweep` — cartesian product builder, journaled and resumable.

The experiment harness (``repro.harness.experiments``) executes every
figure/table through the *current* runner, which defaults to an
in-process serial runner with no cache.  Install a different one —
parallel, cached, instrumented — with :func:`use_runner`:

    from repro.lab import Runner, ResultCache, use_runner
    with use_runner(Runner(workers=4, cache=ResultCache())):
        fig9 = experiments.fig9()
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

from repro.lab.cache import (CacheStats, EntryReport, ResultCache,
                             VerifyReport, code_fingerprint,
                             default_cache_dir)
from repro.lab.journal import (JournalError, JournalState, SweepJournal,
                               load_journal)
from repro.lab.locking import FileLock, LockTimeout
from repro.lab.results import LabError, RunFailure, RunResult
from repro.lab.core import (RunInterrupted, RunTimeout, TransientRunError,
                            decorrelated_jitter)
from repro.lab.runner import BatchReport, Runner
from repro.lab.spec import RunSpec, config_from_dict, config_to_dict
from repro.lab.sweep import (Sweep, SweepResult, experiment_spec,
                             resume_sweep)
from repro.lab.worker import execute_run

_current_runner: Optional[Runner] = None


def current_runner() -> Runner:
    """The runner experiment code executes through (default: serial)."""
    global _current_runner
    if _current_runner is None:
        _current_runner = Runner(workers=1, mode="serial")
    return _current_runner


@contextlib.contextmanager
def use_runner(runner: Runner) -> Iterator[Runner]:
    """Temporarily install ``runner`` as the current runner."""
    global _current_runner
    previous = _current_runner
    _current_runner = runner
    try:
        yield runner
    finally:
        _current_runner = previous


__all__ = [
    "BatchReport",
    "CacheStats",
    "EntryReport",
    "FileLock",
    "JournalError",
    "JournalState",
    "LabError",
    "LockTimeout",
    "ResultCache",
    "RunFailure",
    "RunInterrupted",
    "RunResult",
    "RunSpec",
    "RunTimeout",
    "Runner",
    "Sweep",
    "SweepJournal",
    "SweepResult",
    "TransientRunError",
    "VerifyReport",
    "code_fingerprint",
    "config_from_dict",
    "config_to_dict",
    "current_runner",
    "decorrelated_jitter",
    "default_cache_dir",
    "execute_run",
    "experiment_spec",
    "load_journal",
    "resume_sweep",
    "use_runner",
]
