"""Simulation statistics.

Everything the paper's figures report is derived from these counters:

* dynamic instruction counts at warp and thread granularity, split into
  synchronization overhead vs useful work (``!sync`` annotations) and
  spin-inducing-branch executions (Figures 1c, 13a);
* memory transactions, split sync vs other (Figures 1d, 13b);
* SIMD efficiency = average active lanes per issued instruction
  (Figures 1e, 13c);
* lock-acquire and wait-exit outcome distributions (Figures 2, 12),
  classifying failed acquires as intra- vs inter-warp conflicts;
* backed-off-warp occupancy over time (Figure 11);
* issue-slot accounting and energy-model inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.memory.memsys import MemoryStats

#: Version of the :meth:`SimStats.summary` reporting schema.  Bump this
#: whenever a key is added, removed, renamed, or its meaning changes —
#: downstream consumers (golden fixtures, lab result caches, plots)
#: key on it to detect incompatible records.
SUMMARY_SCHEMA_VERSION = 1

#: The frozen key list of :meth:`SimStats.summary`, in emission order.
#: ``tests/test_stats_schema.py`` asserts summaries match this exactly;
#: change it only together with ``SUMMARY_SCHEMA_VERSION``.
SUMMARY_KEYS = (
    "schema_version",
    "cycles",
    "warp_instructions",
    "thread_instructions",
    "ipc",
    "simd_efficiency",
    "sync_instruction_fraction",
    "memory_transactions",
    "sync_transaction_fraction",
    "lock_success",
    "inter_warp_fail",
    "intra_warp_fail",
    "wait_exit_success",
    "wait_exit_fail",
    "backed_off_fraction",
    "dynamic_energy_pj",
)


@dataclass
class LockStats:
    """Lock-acquire and wait-exit outcome counters (thread granularity)."""

    lock_success: int = 0
    inter_warp_fail: int = 0
    intra_warp_fail: int = 0
    wait_exit_success: int = 0
    wait_exit_fail: int = 0

    @property
    def total(self) -> int:
        return (
            self.lock_success
            + self.inter_warp_fail
            + self.intra_warp_fail
            + self.wait_exit_success
            + self.wait_exit_fail
        )

    @property
    def acquire_attempts(self) -> int:
        return self.lock_success + self.inter_warp_fail + self.intra_warp_fail

    @property
    def fail_rate(self) -> float:
        attempts = self.acquire_attempts
        if attempts == 0:
            return 0.0
        return (self.inter_warp_fail + self.intra_warp_fail) / attempts

    def as_dict(self) -> Dict[str, int]:
        return {
            "lock_success": self.lock_success,
            "inter_warp_fail": self.inter_warp_fail,
            "intra_warp_fail": self.intra_warp_fail,
            "wait_exit_success": self.wait_exit_success,
            "wait_exit_fail": self.wait_exit_fail,
        }


@dataclass
class SimStats:
    """Aggregate counters for one kernel execution.

    ``useful_thread_instructions`` (thread - sync), ``active_lane_sum``
    (= thread) and ``issued_slots`` (= warp instructions) restate other
    counters: nothing counts them per issue, a finishing run sets them
    (``Simulation._finish``).
    """

    cycles: int = 0
    # Instruction counts.
    warp_instructions: int = 0
    thread_instructions: int = 0
    sib_warp_instructions: int = 0
    sib_thread_instructions: int = 0
    sync_thread_instructions: int = 0
    useful_thread_instructions: int = 0
    atomic_warp_instructions: int = 0
    # SIMD efficiency inputs.
    active_lane_sum: int = 0
    # Scheduler occupancy (cycle-weighted sums, Figure 11).
    backed_off_warp_cycles: float = 0.0
    resident_warp_cycles: float = 0.0
    # Issue accounting.
    issue_slots: int = 0          # scheduler-cycles available
    issued_slots: int = 0         # scheduler-cycles that issued
    # Synchronization outcomes.
    locks: LockStats = field(default_factory=LockStats)
    # Memory events.
    memory: MemoryStats = field(default_factory=MemoryStats)
    # Energy (filled in by the energy model at the end of a run).
    dynamic_energy_pj: float = 0.0
    # Barrier accounting.
    barrier_waits: int = 0

    # ------------------------------------------------------------------
    # Derived metrics

    @property
    def simd_efficiency(self) -> float:
        """Average fraction of active lanes per issued warp instruction."""
        if self.warp_instructions == 0:
            return 0.0
        return self.active_lane_sum / (self.warp_instructions * 32)

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.warp_instructions / self.cycles

    @property
    def backed_off_fraction(self) -> float:
        """Cycle-weighted average fraction of resident warps backed off."""
        if self.resident_warp_cycles == 0:
            return 0.0
        return self.backed_off_warp_cycles / self.resident_warp_cycles

    @property
    def sync_instruction_fraction(self) -> float:
        total = self.thread_instructions
        if total == 0:
            return 0.0
        return self.sync_thread_instructions / total

    @property
    def sync_transaction_fraction(self) -> float:
        total = self.memory.total_transactions
        if total == 0:
            return 0.0
        return self.memory.sync_transactions / total

    def merge(self, other: "SimStats") -> None:
        """Accumulate ``other`` into this (for multi-SM aggregation)."""
        self.warp_instructions += other.warp_instructions
        self.thread_instructions += other.thread_instructions
        self.sib_warp_instructions += other.sib_warp_instructions
        self.sib_thread_instructions += other.sib_thread_instructions
        self.sync_thread_instructions += other.sync_thread_instructions
        self.useful_thread_instructions += other.useful_thread_instructions
        self.atomic_warp_instructions += other.atomic_warp_instructions
        self.active_lane_sum += other.active_lane_sum
        self.backed_off_warp_cycles += other.backed_off_warp_cycles
        self.resident_warp_cycles += other.resident_warp_cycles
        self.issue_slots += other.issue_slots
        self.issued_slots += other.issued_slots
        self.barrier_waits += other.barrier_waits
        for name, value in other.locks.as_dict().items():
            setattr(self.locks, name, getattr(self.locks, name) + value)
        self.memory.merge(other.memory)

    def summary(self) -> Dict[str, float]:
        """Flat dict of headline numbers (reporting/serialization).

        The key set is versioned: ``schema_version`` is always present
        and the remaining keys are exactly ``SUMMARY_KEYS``.
        """
        return {
            "schema_version": SUMMARY_SCHEMA_VERSION,
            "cycles": self.cycles,
            "warp_instructions": self.warp_instructions,
            "thread_instructions": self.thread_instructions,
            "ipc": round(self.ipc, 4),
            "simd_efficiency": round(self.simd_efficiency, 4),
            "sync_instruction_fraction": round(self.sync_instruction_fraction, 4),
            "memory_transactions": self.memory.total_transactions,
            "sync_transaction_fraction": round(self.sync_transaction_fraction, 4),
            "lock_success": self.locks.lock_success,
            "inter_warp_fail": self.locks.inter_warp_fail,
            "intra_warp_fail": self.locks.intra_warp_fail,
            "wait_exit_success": self.locks.wait_exit_success,
            "wait_exit_fail": self.locks.wait_exit_fail,
            "backed_off_fraction": round(self.backed_off_fraction, 4),
            "dynamic_energy_pj": round(self.dynamic_energy_pj, 1),
        }
