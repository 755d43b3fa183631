"""Memory-system substrate: coalescer, caches, global memory, timing model.

Models the GPU memory hierarchy the paper's analysis depends on:

* per-SM L1 data caches that are **not** coherent (stores write through to
  L2 and do not allocate; other SMs may hold stale lines — exactly why GPU
  spin code polls with atomics or ``.cg``/volatile loads);
* a shared, banked L2 where all atomic operations are resolved;
* a flat DRAM latency/occupancy model behind the L2.
"""

from repro.memory.cache import Cache
from repro.memory.coalescer import coalesce
from repro.memory.memsys import GlobalMemory, MemorySubsystem

__all__ = [
    "Cache",
    "GlobalMemory",
    "MemorySubsystem",
    "coalesce",
]
