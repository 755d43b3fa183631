"""Hot-loop benchmark: fast-engine speedup over the reference engine.

Runs a fixed kernel matrix — ``ht``, ``nw1``, ``atm``, each with the
baseline GTO machine and with adaptive BOWS — once per engine through
the :mod:`repro.lab` runner (serial, uncached), and reports:

* simulated **cycles per wall-clock second** for each engine (the hot
  loop's figure of merit — cycle counts are identical by construction,
  so the ratio is exactly the wall-time speedup);
* the **per-phase breakdown** (workload build / simulate / score) from
  the lab's :class:`~repro.lab.results.RunResult` phases;
* **peak RSS** of the benchmarking process;
* a per-entry **equivalence check**: both engines' full
  ``stats.summary()`` dicts must be identical, else the benchmark
  fails — a fast engine that changes simulated results is a bug, not a
  speedup.

Each engine runs ``reps`` times per entry and the *minimum* wall time is
kept: wall-clock minima are the standard noise filter for throughput
benchmarks on shared machines (the minimum is the run with the least
interference).

The JSON written to ``BENCH_hotloop.json`` is versioned
(``schema_version``) and committed to the repository; CI's bench-smoke
job and ``benchmarks/perf/test_hotloop_perf.py`` compare fresh runs
against it.  Regenerate with::

    PYTHONPATH=src python -m repro bench --out BENCH_hotloop.json
"""

from __future__ import annotations

import json
import platform
import resource
import sys
from typing import Any, Dict, List, Optional, Tuple

from repro.lab.results import RunResult
from repro.lab.runner import Runner
from repro.lab.spec import RunSpec
from repro.metrics.stats import SUMMARY_SCHEMA_VERSION
from repro.sim.config import GPUConfig
from repro.sim.sm import ENGINES
from repro.submit import submit_many

#: Version of the BENCH_hotloop.json layout.
BENCH_SCHEMA_VERSION = 1

#: The fixed benchmark matrix: (kernel, builder params).  Empty params
#: mean the kernel builder's defaults — full-size workloads that keep a
#: single entry under ~2s of reference-engine wall time.
FULL_MATRIX: Tuple[Tuple[str, Dict[str, int]], ...] = (
    ("ht", {}),
    ("nw1", {}),
    ("atm", {}),
)

#: Shrunk matrix for CI smoke runs (same kernels, quick-scale shapes).
QUICK_MATRIX: Tuple[Tuple[str, Dict[str, int]], ...] = (
    ("ht", {"n_threads": 256, "n_buckets": 8, "items_per_thread": 1,
            "block_dim": 128}),
    ("nw1", {"n_threads": 256, "n_cols": 32, "cell_work": 8,
             "block_dim": 128}),
    ("atm", {"n_threads": 256, "n_accounts": 32, "rounds": 1,
             "block_dim": 128}),
)

#: The two machine configurations benchmarked per kernel.
MODES: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("baseline", {}),
    ("bows", {"bows": "adaptive"}),
)


class BenchError(RuntimeError):
    """The benchmark could not produce a valid record."""


def _peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux: ru_maxrss is KiB)."""
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - bytes on macOS
        rss_kb /= 1024.0
    return round(rss_kb / 1024.0, 1)


def _best(results: List[RunResult]) -> RunResult:
    """The rep with the smallest simulate-phase wall time."""
    return min(results, key=lambda r: r.phases["simulate_s"])


def _engine_record(result: RunResult) -> Dict[str, Any]:
    simulate_s = result.phases["simulate_s"]
    return {
        "wall_s": round(result.elapsed_s, 4),
        "simulate_s": round(simulate_s, 4),
        "cycles_per_sec": round(result.cycles / simulate_s, 1),
        "phases": {k: round(v, 4) for k, v in result.phases.items()},
    }


def run_benchmark(
    quick: bool = False,
    reps: int = 3,
    progress=None,
    matrix: Optional[Tuple[Tuple[str, Dict[str, int]], ...]] = None,
    server=None,
) -> Dict[str, Any]:
    """Run the matrix and return the BENCH_hotloop.json payload.

    ``matrix`` restricts the run to a subset of (kernel, params) pairs
    (the perf smoke test measures just ``ht``); default is the full or
    quick matrix per ``quick``.

    ``server`` routes the runs through a ``repro serve`` daemon instead
    of an in-process serial runner.  Note the daemon dedupes identical
    specs and the rep label is not part of the content hash, so the
    reps of one entry collapse to a single execution — fine for smoke
    (the client path is what's being exercised), not for careful wall
    timing, which wants the default in-process path.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if matrix is None:
        matrix = QUICK_MATRIX if quick else FULL_MATRIX
    # Serial + uncached on purpose: the benchmark measures wall time, so
    # no parallel interference and no cache short-circuits.
    runner = Runner(workers=1, mode="serial", cache=None, retries=0)

    entries: List[Dict[str, Any]] = []
    speedups: List[float] = []
    for kernel, params in matrix:
        for mode, config_kwargs in MODES:
            config = GPUConfig.preset("fermi", scheduler="gto",
                                      **config_kwargs)
            per_engine: Dict[str, RunResult] = {}
            for engine in ENGINES:
                # validate=False: functional validation costs the same
                # on both engines and is not part of the hot loop.
                specs = [
                    RunSpec(kernel=kernel, config=config, params=params,
                            validate=False, engine=engine,
                            label=f"{kernel}/{mode}/{engine}/{rep}")
                    for rep in range(reps)
                ]
                per_engine[engine] = _best(submit_many(
                    specs, server=server, runner=runner,
                    client_name="bench").results())
            fast, ref = per_engine["fast"], per_engine["reference"]
            if fast.stats.summary() != ref.stats.summary():
                raise BenchError(
                    f"{kernel}/{mode}: fast and reference engines "
                    f"disagree on simulated results — refusing to "
                    f"record a speedup for wrong answers"
                )
            speedup = (ref.phases["simulate_s"]
                       / fast.phases["simulate_s"])
            speedups.append(speedup)
            entries.append({
                "kernel": kernel,
                "mode": mode,
                "params": dict(params),
                "cycles": fast.cycles,
                "reference": _engine_record(ref),
                "fast": _engine_record(fast),
                "speedup": round(speedup, 3),
                "equivalent": True,
            })
            if progress is not None:
                progress(f"{kernel:4s} {mode:8s} cycles={fast.cycles:>8d} "
                         f"ref={ref.phases['simulate_s']:.3f}s "
                         f"fast={fast.phases['simulate_s']:.3f}s "
                         f"speedup={speedup:.2f}x")

    geomean = 1.0
    for s in speedups:
        geomean *= s
    geomean **= 1.0 / len(speedups)
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "stats_schema_version": SUMMARY_SCHEMA_VERSION,
        "matrix": "quick" if quick else "full",
        "reps": reps,
        "host": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
        "entries": entries,
        "summary": {
            "min_speedup": round(min(speedups), 3),
            "max_speedup": round(max(speedups), 3),
            "geomean_speedup": round(geomean, 3),
            "peak_rss_mb": _peak_rss_mb(),
        },
    }


def write_benchmark(payload: Dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=False)
        fh.write("\n")


def load_benchmark(path: str) -> Optional[Dict[str, Any]]:
    """Load a committed benchmark record; None if missing/incompatible."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    if payload.get("schema_version") != BENCH_SCHEMA_VERSION:
        return None
    return payload
