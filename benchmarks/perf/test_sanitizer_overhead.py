"""Perf smoke test: the dynamic sanitizer must be cheap when on.

Same harness shape as ``test_obs_overhead.py``: wall-clock ratio of a
sanitize-on run to a plain run of the same lock-heavy workload in the
same process.  The hooks sit behind one ``san is not None`` test per
memory/barrier instruction, and the checking itself is dictionary work
per *lock-adjacent* access, so even the hashtable kernel — nothing but
lock traffic — must stay under 2.5x.  The off path is covered by the
hot-loop benchmark: when ``sanitize`` is not passed every guard is a
single pointer test.

Run explicitly (not part of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import time

from repro.sim.config import GPUConfig
from repro.sim.run import simulate

HT = dict(n_threads=256, n_buckets=8, items_per_thread=1, block_dim=128)

REPS = 3

#: Sanitize-on slowdown ceiling (same budget as full obs collection).
SANITIZE_CEILING = 2.5


def _best_wall(sanitize, reps=REPS):
    config = GPUConfig.preset("fermi", scheduler="gto")
    best = float("inf")
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = simulate("ht", config=config, params=dict(HT),
                          sanitize=sanitize)
        best = min(best, time.perf_counter() - start)
    return best, result


def test_sanitizer_overhead_stays_under_ceiling():
    plain, _ = _best_wall(None)
    checked, result = _best_wall(True)
    sanitizer = result.sanitizer
    assert sanitizer.counters["checked_writes"] > 0, \
        "sanitizer must be exercised"
    assert sanitizer.counters["lock_acquires"] > 0
    assert sanitizer.ok, sanitizer.render()
    ratio = checked / plain
    assert ratio < SANITIZE_CEILING, (
        f"sanitize-on run costs {ratio:.2f}x "
        f"(ceiling {SANITIZE_CEILING}x; plain {plain * 1e3:.1f}ms, "
        f"checked {checked * 1e3:.1f}ms)"
    )
