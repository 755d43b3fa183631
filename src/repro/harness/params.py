"""Canonical workload parameters for the experiment harness.

Two scales:

* ``full`` — used by the ``benchmarks/`` regeneration targets.  Sized so
  contention (threads per lock / per bucket / per flag) sits in the
  paper's regime while a pure-Python cycle-level simulation finishes in
  seconds per run.
* ``quick`` — used by the test suite: same shapes, much smaller.

All experiments run the scaled GTX480-shaped machine
(:func:`repro.sim.config.fermi_config`) unless stated otherwise.
"""

from __future__ import annotations

from typing import Dict

from repro.kernels import SYNC_KERNELS

#: Paper Figure 2/9 kernel order.
KERNEL_ORDER = list(SYNC_KERNELS)

FULL_PARAMS: Dict[str, dict] = {
    "ht": dict(n_threads=1024, n_buckets=16, items_per_thread=2,
               block_dim=256),
    "atm": dict(n_threads=768, n_accounts=48, rounds=1, block_dim=256),
    "tsp": dict(n_threads=512, eval_iters=200, block_dim=256),
    "ds": dict(n_threads=512, n_particles=64, constraints_per_thread=1,
               block_dim=256),
    "nw1": dict(n_threads=768, n_cols=128, cell_work=32, block_dim=256),
    "nw2": dict(n_threads=768, n_cols=128, cell_work=32, block_dim=256),
    "tb": dict(n_threads=512, n_cells=16, items_per_thread=2,
               block_dim=256),
    "st": dict(n_threads=512, n_cells=4096, cell_work=12, block_dim=256),
}

QUICK_PARAMS: Dict[str, dict] = {
    "ht": dict(n_threads=256, n_buckets=8, items_per_thread=1,
               block_dim=128),
    "atm": dict(n_threads=256, n_accounts=32, rounds=1, block_dim=128),
    "tsp": dict(n_threads=128, eval_iters=32, block_dim=64),
    "ds": dict(n_threads=256, n_particles=48, constraints_per_thread=1,
               block_dim=128),
    "nw1": dict(n_threads=256, n_cols=32, cell_work=8, block_dim=128),
    "nw2": dict(n_threads=256, n_cols=32, cell_work=8, block_dim=128),
    "tb": dict(n_threads=256, n_cells=16, items_per_thread=1,
               block_dim=128),
    # ST needs enough waiting warps for DDOS confidence to accumulate
    # against the producers' aliasing-guard decrements.
    "st": dict(n_threads=256, n_cells=1024, cell_work=8, block_dim=128),
}

#: Sync-free kernels for DDOS accuracy and Figure 14, full scale.
FULL_SYNC_FREE: Dict[str, dict] = {
    "kmeans": dict(n_threads=256, per_thread=16, block_dim=128),
    "ms": dict(n_threads=256, iterations=16, stride=256, block_dim=128),
    "hl": dict(n_threads=256, iterations=12, stride=512, block_dim=128),
    "vecadd": dict(n_threads=256, per_thread=8, block_dim=128),
    "reduction": dict(n_threads=256, block_dim=128),
    "stencil": dict(n_threads=256, per_thread=8, block_dim=128),
    "histogram": dict(n_threads=256, per_thread=8, block_dim=128),
}

QUICK_SYNC_FREE: Dict[str, dict] = {
    "kmeans": dict(n_threads=128, per_thread=8, block_dim=64),
    "ms": dict(n_threads=128, iterations=12, stride=256, block_dim=64),
    "hl": dict(n_threads=128, iterations=10, stride=512, block_dim=64),
    "vecadd": dict(n_threads=128, per_thread=4, block_dim=64),
    "reduction": dict(n_threads=128, block_dim=64),
    "stencil": dict(n_threads=128, per_thread=4, block_dim=64),
    "histogram": dict(n_threads=128, per_thread=4, block_dim=64),
}


def sync_params(scale: str = "full") -> Dict[str, dict]:
    if scale == "full":
        return {k: dict(v) for k, v in FULL_PARAMS.items()}
    if scale == "quick":
        return {k: dict(v) for k, v in QUICK_PARAMS.items()}
    raise ValueError(f"unknown scale {scale!r}")


def sync_free_params(scale: str = "full") -> Dict[str, dict]:
    if scale == "full":
        return {k: dict(v) for k, v in FULL_SYNC_FREE.items()}
    if scale == "quick":
        return {k: dict(v) for k, v in QUICK_SYNC_FREE.items()}
    raise ValueError(f"unknown scale {scale!r}")


def params_for(kernel: str, scale: str = "full") -> dict:
    """``kernel``'s parameters at ``scale`` from whichever registry (sync
    or sync-free) names it; ``{}`` (builder defaults) if neither does."""
    return {**sync_free_params(scale), **sync_params(scale)}.get(kernel, {})
