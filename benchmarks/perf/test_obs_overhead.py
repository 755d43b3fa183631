"""Perf smoke test: observability must be cheap, and free when off.

Two bounds, both measured as wall-clock ratios on the same machine in
the same process (so absolute speed divides out):

* **Full collection** (event bus + interval sampler) must stay under
  2.5x the plain run.  The event sinks sit on cold decision branches
  (threshold crossings, back-off transitions, lock attempts), so even
  a lock-heavy BOWS workload should pay far less than that.
* The **disabled path** is guarded by the call budget in
  ``tests/test_hotpath_budget.py``: producers hold
  :func:`repro.obs.null_emitter` and the GPU loop's only addition is
  one ``sampler is not None`` test, so any real cost shows up as more
  Python-level calls per warp instruction.

Run explicitly (not part of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import time

from repro.obs import ObsConfig
from repro.sim.config import GPUConfig
from repro.sim.run import simulate

#: Lock-heavy enough that events actually stream (BOWS + DDOS on).
HT = dict(n_threads=256, n_buckets=8, items_per_thread=1, block_dim=128)

REPS = 3

#: Full collection (events + sampler) slowdown ceiling.
FULL_COLLECTION_CEILING = 2.5


def _best_wall(obs, reps=REPS):
    config = GPUConfig.preset("fermi", scheduler="gto", bows="adaptive")
    best = float("inf")
    result = None
    for _ in range(reps):
        start = time.perf_counter()
        result = simulate("ht", config=config, params=dict(HT), obs=obs)
        best = min(best, time.perf_counter() - start)
    return best, result


def test_full_collection_stays_under_ceiling():
    plain, _ = _best_wall(None)
    collected, result = _best_wall(
        ObsConfig(event_capacity=500_000, sample_interval=500))
    assert result.obs.bus.total_events > 0, "collection must be exercised"
    assert result.obs.series.rows, "sampler must be exercised"
    ratio = collected / plain
    assert ratio < FULL_COLLECTION_CEILING, (
        f"event+sampler collection costs {ratio:.2f}x "
        f"(ceiling {FULL_COLLECTION_CEILING}x; plain {plain * 1e3:.1f}ms, "
        f"collected {collected * 1e3:.1f}ms)"
    )
