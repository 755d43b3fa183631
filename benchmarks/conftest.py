"""Shared helpers for the table/figure regeneration benchmarks.

Every benchmark regenerates one paper artifact at ``full`` scale and
prints the resulting table (run with ``-s`` to see them inline; the
tables are also written to ``benchmarks/results.txt``, truncated once
per pytest session so the file always reflects the latest run).

pytest-benchmark is used in single-shot mode (``pedantic`` with one
round): the interesting output is the regenerated table, and the
benchmark timing records how long the regeneration takes.

Simulations execute through :mod:`repro.lab` (and thence through the
:func:`repro.simulate` road): a session-scoped fixture installs a
runner with a process pool (``REPRO_LAB_WORKERS``, default: CPU count)
and the shared on-disk result cache, so the Figures 10-13 delay sweep is
simulated once and every later benchmark — and every later *session*
with unchanged code — reuses the cached results.
"""

from __future__ import annotations

import os
from typing import Callable, Dict

import pytest

from repro.harness.experiments import ExperimentResult
from repro.lab import ResultCache, Runner, use_runner

RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results.txt")

#: Cross-test cache so Figures 10-13 share one delay sweep.
_cache: Dict[str, object] = {}

#: Flipped by the first ``record`` of the session: the first write
#: truncates ``results.txt``, later ones append.
_results_truncated = False


def cached(key: str, compute: Callable[[], object]) -> object:
    if key not in _cache:
        _cache[key] = compute()
    return _cache[key]


def record(result: ExperimentResult) -> ExperimentResult:
    global _results_truncated
    text = result.render()
    print()
    print(text)
    mode = "a" if _results_truncated else "w"
    _results_truncated = True
    with open(RESULTS_PATH, mode, encoding="utf-8") as handle:
        handle.write(text + "\n\n")
    return result


@pytest.fixture(scope="session", autouse=True)
def _lab_runner():
    """Parallel, disk-cached execution for every benchmark simulation."""
    workers = int(os.environ.get("REPRO_LAB_WORKERS", "0"))
    if workers <= 0:
        workers = os.cpu_count() or 1
    runner = Runner(workers=workers, cache=ResultCache())
    with use_runner(runner):
        yield runner


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark."""
    return benchmark.pedantic(
        func, args=args, kwargs=kwargs,
        rounds=1, iterations=1, warmup_rounds=0,
    )
