"""Functional global memory plus the L1/L2/DRAM timing model.

Functional state (what values memory holds) is a single flat word array —
the simulator executes instructions functionally at issue, in a global
total order, so atomicity of read-modify-write operations is inherent.
Timing (when a warp's destination registers become available, queueing
at L2 banks and DRAM) is computed here: each access returns its
completion cycle to the SM, which blocks the warp's scoreboard until
then, and counts its transactions in :class:`MemoryStats`.

Coherence model (Fermi-faithful, Section II of the paper):

* loads allocate in the issuing SM's L1 unless the ``.cg`` variant is used;
* stores are write-through, no-allocate, and evict the line from the
  *local* L1 only — remote L1s may serve stale data, which is why spin
  code must poll with atomics or ``.cg`` loads;
* atomics bypass L1 entirely and are serialized at the L2 banks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.memory.cache import Cache
from repro.memory.coalescer import coalesce
from repro.sim.config import GPUConfig
from repro.sim.registers import count_nonzero

#: Bytes per memory word (all accesses are 32-bit).
WORD_BYTES = 4

#: Message of the ``IndexError`` every functional access path raises.
OUT_OF_BOUNDS = "global memory access out of bounds"


class GlobalMemory:
    """Flat, word-addressed functional memory with a bump allocator."""

    def __init__(self, size_words: int = 1 << 20) -> None:
        self.words = np.zeros(size_words, dtype=np.int64)
        self._next_free = 0
        #: Write-version counter: bumped on every functional write.  An
        #: O(1) global-progress witness for the forward-progress guard
        #: (:mod:`repro.sim.progress`) — a spinning warp polls and
        #: CAS-fails without ever writing, so a livelocked machine's
        #: version goes flat while a progressing one keeps moving.
        self.version = 0
        #: Optional observer ``hook(n_words)`` called on every functional
        #: write (the sanitizer's raw-write coverage counter).  Never
        #: affects functional state.
        self.write_hook = None

    @property
    def size_bytes(self) -> int:
        return self.words.size * WORD_BYTES

    def alloc(self, n_words: int, align_words: int = 32) -> int:
        """Reserve ``n_words`` and return the base *byte* address."""
        base = -(-self._next_free // align_words) * align_words
        if base + n_words > self.words.size:
            raise MemoryError(
                f"global memory exhausted: need {n_words} words at {base}"
            )
        self._next_free = base + n_words
        return base * WORD_BYTES

    def _index(self, byte_addrs: np.ndarray) -> np.ndarray:
        idx = np.asarray(byte_addrs, dtype=np.int64) // WORD_BYTES
        # One comparison for both bounds: reinterpreted as unsigned, a
        # negative index is larger than any array size.
        if count_nonzero(idx.view(np.uint64) >= self.words.size):
            raise IndexError(OUT_OF_BOUNDS)
        return idx

    def read(self, byte_addrs: np.ndarray) -> np.ndarray:
        return self.words[self._index(byte_addrs)]

    def write(self, byte_addrs: np.ndarray, values: np.ndarray) -> None:
        idx = self._index(byte_addrs)
        self.words[idx] = np.asarray(values, dtype=np.int64)
        self.version += 1
        if self.write_hook is not None:
            self.write_hook(idx.size)

    # Convenience scalar/stage helpers for workload setup and validation.

    def _word_index(self, byte_addr: int) -> int:
        # A negative index would wrap to the end of ``words``.
        index = byte_addr // WORD_BYTES
        if not 0 <= index < self.words.size:
            raise IndexError(OUT_OF_BOUNDS)
        return index

    def read_word(self, byte_addr: int) -> int:
        return self.words.item(self._word_index(byte_addr))

    def write_word(self, byte_addr: int, value: int) -> None:
        self.words[self._word_index(byte_addr)] = value
        self.version += 1
        if self.write_hook is not None:
            self.write_hook(1)

    def _span(self, byte_addr: int, n_words: int) -> slice:
        # A slice would clip a range that leaves memory, and a negative
        # start would count from the end of ``words``.
        start = byte_addr // WORD_BYTES
        if not 0 <= start <= start + n_words <= self.words.size:
            raise IndexError(OUT_OF_BOUNDS)
        return slice(start, start + n_words)

    def store_array(self, byte_addr: int, values: Sequence[int]) -> None:
        span = self._span(byte_addr, len(values))
        self.words[span] = np.asarray(values, dtype=np.int64)
        self.version += 1

    def load_array(self, byte_addr: int, n_words: int) -> np.ndarray:
        return self.words[self._span(byte_addr, n_words)].copy()


@dataclass
class MemoryStats:
    """Aggregate event counters (inputs to metrics and the energy model)."""

    load_transactions: int = 0
    store_transactions: int = 0
    atomic_transactions: int = 0
    sync_transactions: int = 0
    other_transactions: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    dram_accesses: int = 0

    @property
    def total_transactions(self) -> int:
        return (
            self.load_transactions
            + self.store_transactions
            + self.atomic_transactions
        )

    def merge(self, other: "MemoryStats") -> None:
        for name in vars(other):
            setattr(self, name, getattr(self, name) + getattr(other, name))


class MemorySubsystem:
    """Timing model: per-SM L1s, banked shared L2, DRAM behind it."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.l1: List[Cache] = [Cache(config.l1d) for _ in range(config.num_sms)]
        self.l2 = Cache(config.l2)
        self._bank_free = [0] * config.num_l2_banks
        self._dram_free = 0
        # Frozen geometry the per-address paths would otherwise re-read
        # through two attribute hops (or a ``len``) per transaction.
        self._l1_line_bytes = config.l1d.line_bytes
        self._l2_line_bytes = config.l2.line_bytes
        self._n_banks = config.num_l2_banks
        self.stats = MemoryStats()
        # Seeded memory-latency spread (schedule-perturbation fuzzing):
        # the RNG sequence is a deterministic function of the seed and
        # the (deterministic) global access order, so a fuzz seed
        # reproduces its schedule exactly.
        perturb = config.perturb
        self._jitter = 0
        self._jitter_rng = None
        if perturb is not None and perturb.mem_jitter_cycles > 0:
            import random
            self._jitter = perturb.mem_jitter_cycles
            self._jitter_rng = random.Random(perturb.seed * 1000003 + 17)

    # ------------------------------------------------------------------

    def _l2_latency(self, line_addr: int, now: int) -> int:
        """Completion cycle of an L2 access arriving at ``now``
        (:meth:`atomic` runs the same steps inline)."""
        cfg = self.config
        bank_free = self._bank_free
        bank = (line_addr // self._l2_line_bytes) % self._n_banks
        start = bank_free[bank]
        if start < now:
            start = now
        bank_free[bank] = start + cfg.l2_service_interval
        jitter = (
            self._jitter_rng.randrange(self._jitter + 1)
            if self._jitter_rng is not None else 0
        )
        stats = self.stats
        if self.l2.access(line_addr):
            stats.l2_hits += 1
            return start + cfg.l2_hit_latency + jitter
        stats.l2_misses += 1
        dram_start = start + cfg.l2_hit_latency
        if dram_start < self._dram_free:
            dram_start = self._dram_free
        self._dram_free = dram_start + cfg.dram_service_interval
        stats.dram_accesses += 1
        return dram_start + cfg.dram_latency + jitter

    def _classify(self, n_tx: int, sync: bool) -> None:
        if sync:
            self.stats.sync_transactions += n_tx
        else:
            self.stats.other_transactions += n_tx

    # ------------------------------------------------------------------

    def load(self, sm_id: int, addresses: np.ndarray, now: int,
             bypass_l1: bool = False, sync: bool = False) -> int:
        """A warp-level load of the given active-lane byte addresses;
        returns its completion cycle."""
        lines = coalesce(addresses, self._l1_line_bytes)
        completion = now
        l1 = self.l1[sm_id]
        stats = self.stats
        l1_done = now + self.config.l1_hit_latency
        for line in lines:
            if not bypass_l1 and l1.access(line):
                stats.l1_hits += 1
                done = l1_done
            else:
                if not bypass_l1:
                    stats.l1_misses += 1
                done = self._l2_latency(line, l1_done)
            if done > completion:
                completion = done
        n_tx = len(lines)
        stats.load_transactions += n_tx
        self._classify(n_tx, sync)
        return completion

    def store(self, sm_id: int, addresses: np.ndarray, now: int,
              sync: bool = False) -> int:
        """Write-through, no-allocate store; evicts the local L1 lines.
        Returns the completion cycle."""
        lines = coalesce(addresses, self._l1_line_bytes)
        completion = now
        l1 = self.l1[sm_id]
        for line in lines:
            l1.invalidate(line)
            done = self._l2_latency(line, now)
            if done > completion:
                completion = done
        n_tx = len(lines)
        self.stats.store_transactions += n_tx
        self._classify(n_tx, sync)
        return completion

    def atomic(self, sm_id: int, addresses: List[int], now: int,
               sync: bool = True) -> int:
        """Atomic RMW: bypasses L1, serialized per unique address at L2.

        ``addresses`` is the active lanes' byte addresses as the list of
        Python ints the issue path already holds; returns the completion
        cycle.  Each unique address is one :meth:`_l2_latency` visit,
        run inline — the same bank, jitter, L2 and DRAM steps in the
        same order — and each L1 line is invalidated once (a hash
        table's bucket locks share a line).
        """
        cfg = self.config
        unique = sorted(set(addresses))
        invalidate = self.l1[sm_id].invalidate
        l1_line_bytes = self._l1_line_bytes
        l2_line_bytes = self._l2_line_bytes
        n_banks = self._n_banks
        bank_free = self._bank_free
        service = cfg.atomic_service_interval
        l2_hit_latency = cfg.l2_hit_latency
        latency = cfg.atomic_latency
        rng = self._jitter_rng
        l2_access = self.l2.access
        stats = self.stats
        completion = now
        last_line = None
        for addr in unique:
            line = addr // l1_line_bytes * l1_line_bytes
            if line != last_line:  # ``unique`` is sorted
                invalidate(line)
                last_line = line
            bank = line // l2_line_bytes % n_banks
            start = bank_free[bank]
            if start < now:
                start = now
            bank_free[bank] = start + service
            jitter = rng.randrange(self._jitter + 1) if rng is not None else 0
            if l2_access(line):
                stats.l2_hits += 1
                done = start + l2_hit_latency
            else:
                stats.l2_misses += 1
                done = start + l2_hit_latency
                if done < self._dram_free:
                    done = self._dram_free
                self._dram_free = done + cfg.dram_service_interval
                stats.dram_accesses += 1
                done += cfg.dram_latency
            done += jitter + latency
            if done > completion:
                completion = done
        n_tx = len(unique)
        stats.atomic_transactions += n_tx
        self._classify(n_tx, sync)
        return completion
