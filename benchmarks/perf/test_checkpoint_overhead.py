"""Perf smoke test: autocheckpointing must be nearly free.

``simulate(checkpoint_every=...)`` at the default epoch
(``config.progress_epoch``) serializes the complete machine state once
per epoch — a pickle of the simulation graph plus an atomic file write.
That must stay within **10%** of the plain run's wall clock on the
fast engine, or crash-safety would become something users turn off.

Measured as a same-process wall-clock ratio (min over reps, so
machine noise divides out), on the same lock-heavy ht workload the
other overhead guards use, plus the sync-free nw1 shape.

Run explicitly (not part of tier-1)::

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import time

import pytest

from repro.sim.config import GPUConfig
from repro.sim.run import simulate

PARAMS = {
    "ht": dict(n_threads=256, n_buckets=8, items_per_thread=1,
               block_dim=128),
    "nw1": dict(n_threads=256, n_cols=64, cell_work=4, block_dim=128),
}

REPS = 3

#: Autocheckpointing slowdown ceiling (<=10% over the plain run).
CHECKPOINT_CEILING = 1.10


def _best_wall(kernel, checkpoint_path=None, reps=REPS):
    config = GPUConfig.preset("fermi", scheduler="gto", bows="adaptive")
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        simulate(
            kernel, config=config, params=dict(PARAMS[kernel]),
            checkpoint_every=True if checkpoint_path else None,
            checkpoint_path=checkpoint_path,
        )
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("kernel", ["ht", "nw1"])
def test_default_epoch_checkpointing_stays_under_ceiling(kernel, tmp_path):
    plain = _best_wall(kernel)
    path = tmp_path / f"{kernel}.ckpt"
    checkpointed = _best_wall(kernel, checkpoint_path=path)
    ratio = checkpointed / plain
    assert ratio < CHECKPOINT_CEILING, (
        f"{kernel}: checkpoint_every=progress_epoch costs {ratio:.2f}x "
        f"(ceiling {CHECKPOINT_CEILING}x; plain {plain * 1e3:.1f}ms, "
        f"checkpointed {checkpointed * 1e3:.1f}ms)"
    )
