"""Streaming multiprocessor: issue arbitration and instruction execution.

Per cycle, each of the SM's warp schedulers issues at most one instruction
from a ready warp.  Readiness = not finished, not blocked at a barrier or
memory fence, and the instruction's registers clear the scoreboard.

BOWS arbitration (paper Figure 8) is layered on the base policy:

1. the base policy chooses among ready warps that are *not* backed off
   (greedy/oldest/criticality per policy);
2. only if none exists is the backed-off queue consulted, FIFO, and a
   backed-off warp is eligible only once its pending back-off delay has
   expired;
3. a warp leaving the backed-off state reverts to normal priority and its
   pending delay register restarts.

DDOS hooks: ``setp`` executions update the issuing warp's path/value
history (profiled thread = first active lane); backward branches consult
and train the SIB-PT.

Warps are pre-decoded once per program
(:func:`repro.sim.executor.decode_program`) and tracked in per-scheduler
ready sets plus a wait heap keyed by each warp's next-event cycle, so
idle warps cost no per-cycle host work.  A warp's readiness inputs
(scoreboard, memory fence) only change when the warp itself issues, so
its cached ``_ready_from`` is refreshed exactly there; barrier releases
re-register freed warps immediately, so a warp freed by an earlier
scheduler's issue can still issue from a later scheduler in the same
cycle.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Optional, Set, Tuple

from repro.core.bows import BOWSUnit
from repro.core.cawa import CAWAPredictor
from repro.core.ddos import DDOSEngine
from repro.isa.instructions import Instruction
from repro.isa.program import Program
from repro.memory.memsys import GlobalMemory, MemorySubsystem
from repro.metrics.stats import SimStats
from repro.obs.bus import emitter_for
from repro.obs.events import (
    BarrierArrive,
    BarrierRelease,
    Issue,
    LockAcquireFail,
    LockAcquireSuccess,
)
from repro.sim.config import GPUConfig
from repro.sim.executor import decode_program
from repro.sim.registers import count_nonzero
from repro.sim.schedulers import make_scheduler
from repro.sim.warp import Warp

#: Identifies a warp across the whole GPU for lock-holder tracking.
WarpKey = Tuple[int, int]  # (cta_id, warp_in_cta)

#: ``SM.wake`` of an SM on which nothing is waiting.
NEVER = 1 << 62


class SM:
    """One streaming multiprocessor."""

    def __init__(
        self,
        sm_id: int,
        config: GPUConfig,
        program: Program,
        params: Dict[str, int],
        memory: GlobalMemory,
        memsys: MemorySubsystem,
        lock_table: Dict[int, Tuple[WarpKey, int]],
        stats: SimStats,
        obs=None,
        sanitizer=None,
    ) -> None:
        self.sm_id = sm_id
        self.config = config
        self.program = program
        self.memory = memory
        self.memsys = memsys
        self.lock_table = lock_table
        self.stats = stats
        #: Dynamic sanitizer (None when off — every hook site guards on
        #: ``self.san is not None`` so the hot path pays one test).
        self.san = sanitizer

        self.warps: Dict[int, Warp] = {}
        self._free_slots: List[int] = list(range(config.max_warps_per_sm))
        self._cta_slots: Dict[int, List[int]] = {}

        # ``obs`` is the run's :class:`repro.obs.Observability` or None;
        # its decision bus feeds BOWS, DDOS and the emitters bound below.
        bus = obs.bus if obs is not None else None
        n_sched = config.num_schedulers_per_sm
        self.schedulers = [
            make_scheduler(
                config.scheduler,
                config,
                [s for s in range(config.max_warps_per_sm) if s % n_sched == i],
                salt=sm_id * n_sched + i,
            )
            for i in range(n_sched)
        ]
        self.bows: Optional[BOWSUnit] = (
            BOWSUnit(config.bows, sm_id=sm_id, bus=bus)
            if config.bows is not None else None
        )
        self.ddos: Optional[DDOSEngine] = (
            DDOSEngine(config.ddos, program, config.max_warps_per_sm,
                       sm_id=sm_id, bus=bus)
            if config.ddos is not None
            else None
        )
        #: Pre-bound obs event sinks (no-ops when no bus is attached);
        #: both emission sites are off the per-issue critical path.
        self._emit_bar_arrive = emitter_for(bus, BarrierArrive)
        self._emit_bar_release = emitter_for(bus, BarrierRelease)
        #: Lock-attempt sinks run once per *lane* of every lock attempt —
        #: hotter than the per-issue path — and the issue recorder once
        #: per issue, so all three are None when off, like ``san``: one
        #: test per site, no arguments built.
        self._emit_lock_ok = self._emit_lock_fail = None
        if bus is not None:
            self._emit_lock_ok = bus.emitter(LockAcquireSuccess)
            self._emit_lock_fail = bus.emitter(LockAcquireFail)
        self._emit_issue = (
            obs.issues.emitter(Issue)
            if obs is not None and obs.issues is not None else None
        )
        self.cawa: Optional[CAWAPredictor] = (
            CAWAPredictor() if config.scheduler == "cawa" else None
        )
        self._last_charge = 0

        #: Pre-decoded program, indexed by PC.  Its ops pickle by
        #: reference to the program (``DecodedOp.__reduce__``), so the
        #: whole SM — warps, schedulers, ready sets and the rows that
        #: share them, wait heap, BOWS/DDOS units, emitters — checkpoints
        #: as-is, shared identity preserved.
        self._ops = decode_program(program, config, params).ops
        #: Per-scheduler sets of slots ready to issue right now, split by
        #: BOWS state: the base policy chooses among the normal ones.
        self._ready_normal: List[Set[int]] = [set() for _ in self.schedulers]
        self._ready_backed: List[Set[int]] = [set() for _ in self.schedulers]
        #: (next-event cycle, slot) heap of the warps waiting on a known
        #: cycle, one entry each (see :meth:`_register`).
        self._wait_heap: List[Tuple[int, int]] = []
        self._sched_of = [
            slot % n_sched for slot in range(config.max_warps_per_sm)
        ]
        #: O(1) occupancy counters mirrored from the warp states; the
        #: cycle loop (:meth:`repro.sim.gpu.Simulation._advance`)
        #: integrates them for all SMs at once.
        self._n_live = 0
        self._n_backed = 0
        #: One row per scheduler for the issue loop: the scheduler and
        #: *its* two ready sets (the same objects as above).
        self._rows = list(zip(
            self.schedulers, self._ready_normal, self._ready_backed
        ))
        #: The cycle this SM can next act on, as :meth:`step` left it:
        #: the cycle loop steps the SM no earlier.
        self.wake = NEVER

    # ------------------------------------------------------------------
    # CTA residency

    def can_accept_cta(self, warps_per_cta: int) -> bool:
        within_cta_limit = len(self._cta_slots) < self.config.max_ctas_per_sm
        return within_cta_limit and len(self._free_slots) >= warps_per_cta

    def launch_cta(self, cta_id: int, warps_per_cta: int, cta_dim: int,
                   grid_dim: int, age_base: int) -> None:
        """Place one CTA's warps into free warp slots."""
        if not self.can_accept_cta(warps_per_cta):
            raise RuntimeError(f"SM{self.sm_id} cannot accept CTA {cta_id}")
        slots = [self._free_slots.pop(0) for _ in range(warps_per_cta)]
        self._cta_slots[cta_id] = slots
        for i, slot in enumerate(slots):
            warp = self.warps[slot] = Warp(
                program=self.program,
                warp_slot=slot,
                sm_id=self.sm_id,
                cta_id=cta_id,
                warp_in_cta=i,
                cta_dim=cta_dim,
                grid_dim=grid_dim,
                warp_size=self.config.warp_size,
                age=age_base + i,
            )
            if self.bows is not None:
                self.bows.on_warp_reset(slot)
            # Fresh warps are always immediately issuable (empty
            # scoreboard, no fence — ``_ready_from`` is 0): straight to
            # the ready set.
            warp._decoded = self._ops[warp.stack.pc]
            self._ready_normal[self._sched_of[slot]].add(slot)
            self._n_live += 1
            self.wake = 0  # issuable on the next visited cycle
        for scheduler in self.schedulers:
            scheduler.invalidate_order()

    @property
    def resident_ctas(self) -> int:
        return len(self._cta_slots)

    @property
    def idle(self) -> bool:
        return not self.warps

    # ------------------------------------------------------------------
    # Per-cycle operation

    def step(self, now: int) -> int:
        """Let every scheduler try to issue; returns instructions issued.

        O(schedulers + ready warps) per cycle: warps whose wake-up cycle
        arrived are drained from the wait heap into their scheduler's
        ready set, and issuing warps are re-registered with a freshly
        cached ``_ready_from``.

        This is the one frame of the issue path: drain, select, the
        issue prologue, the op's handler, then the refresh of the issuing
        warp's cache (its PC, scoreboard and fence can change nowhere
        else) and its re-registration (:meth:`_register`, inlined).
        """
        if self.cawa is not None:
            self._charge_cawa(now)
        warps = self.warps
        heap = self._wait_heap
        if heap and heap[0][0] <= now:
            sched_of = self._sched_of
            while heap and heap[0][0] <= now:
                slot = heappop(heap)[1]
                warp = warps[slot]
                t = warp._ready_from
                if t > now:
                    # The fence it was filed under has expired before its
                    # scoreboard release: wait on under the release.
                    heappush(heap, (t, slot))
                    continue
                sets = (
                    self._ready_backed
                    if warp.backed_off else self._ready_normal
                )
                sets[sched_of[slot]].add(slot)
        stats = self.stats
        bows = self.bows
        rows = self._rows
        issued = 0
        for scheduler, normal, backed in rows:
            # Every policy answers None for an empty set (and draws no
            # random number), so the call is skipped.
            slot = scheduler.select(normal, warps, now) if normal else None
            if slot is not None:
                normal.discard(slot)
            elif backed:
                slot = bows.select_backed_off(backed, now, warps)
                if slot is None:
                    continue
                backed.discard(slot)
            else:
                continue
            warp = warps[slot]
            was_backed = warp.backed_off

            # -- issue prologue ------------------------------------------
            dop = warp._decoded
            frames = warp.stack.frames
            top = frames[-1]
            exec_mask = top.mask
            if dop.guard is None:
                n_exec = top.n
            else:
                exec_mask = dop.guard_op(
                    exec_mask, warp.regs.pred_values[dop.guard]
                )
                n_exec = int(count_nonzero(exec_mask))
            if dop.is_branch:
                if self.ddos is not None:
                    is_sib = self.ddos.is_sib(dop.index)
                else:
                    is_sib = dop.static_sib if bows is not None else False
            else:
                is_sib = False
            if self._emit_issue is not None:
                self._record_issue(now, warp, dop.instr, n_exec)

            stats.warp_instructions += 1
            stats.thread_instructions += n_exec
            if dop.is_sync:
                stats.sync_thread_instructions += n_exec
            if is_sib:
                stats.sib_warp_instructions += 1
                stats.sib_thread_instructions += n_exec
            warp.issued_instructions += 1
            if self.cawa is not None:
                self.cawa.on_issue(warp, dop.instr, now)
            if bows is not None:
                bows.on_issue(warp, now, is_sib, is_store=dop.is_store)

            dop.handler(self, warp, dop, exec_mask, n_exec, now)

            # -- epilogue ------------------------------------------------
            if warp.backed_off != was_backed:
                self._n_backed += 1 if warp.backed_off else -1
            scheduler.notify_issue(slot, now)
            issued += 1
            if not frames:
                self._n_live -= 1
                # A finished warp never blocks its CTA's barrier: its
                # exit may release warp-mates already waiting there.
                self._barrier_arrive(warp.cta_id, now=now, skip_slot=slot)
                self._retire_if_cta_done(warp.cta_id, now=now)
                continue
            # Refresh: re-cache the decoded op and earliest issue cycle.
            dop = self._ops[frames[-1].pc]
            warp._decoded = dop
            pending = warp.pending
            t = 0
            if pending:
                for key in dop.hazard_keys:
                    release = pending.get(key)
                    if release is not None and release > t:
                        t = release
            membar = warp.membar_until
            if membar > t:
                t = membar
            warp._ready_from = t
            # _register(warp, now), unless it waits at a barrier.
            if warp.at_barrier:
                continue
            if t <= now:
                (backed if warp.backed_off else normal).add(slot)
            else:
                heappush(heap, (membar if membar > now else t, slot))
        # Wake time: the earliest cycle after ``now`` on which a warp of
        # this SM may act.  The ready sets and the drained heap partition
        # the live warps not at a barrier: a ready normal warp acts at
        # ``now + 1``, the smallest candidate there is; a ready backed-off
        # warp once its pending delay expires (``now + 1`` if it has); a
        # waiting warp at its heap key, its next-event time
        # (:meth:`_register`).  Nothing but this SM's own step or a CTA
        # launch can move it.
        wake = heap[0][0] if heap else NEVER
        for _, normal, backed in rows:
            if normal:
                wake = now + 1
                break
            for slot in backed:
                t = warps[slot].pending_delay_until
                if t < wake:
                    wake = t
        self.wake = wake if wake > now else now + 1
        return issued

    def _register(self, warp: Warp, now: int) -> None:
        """File a warp released from a barrier under ready-now or the
        wait heap (:meth:`step` inlines this for the issuer).

        The heap key is the warp's *next-event* time: ``membar_until``
        while fenced — even when a scoreboard release lands later, so the
        loop visits the cycle the fence expires on — else the release.
        A waiting warp's inputs cannot change (only its own issue moves
        them) and a fence in the future stays in the future for every
        earlier query, so a key is exact from here until it is popped;
        :meth:`step` re-files a warp whose fence expired first.  Each
        waiting warp has exactly one entry: it is filed only here, not
        ready and not at a barrier, and leaves the heap before it can
        issue again.
        """
        t = warp._ready_from
        slot = warp.warp_slot
        if t <= now:
            sets = (
                self._ready_backed if warp.backed_off
                else self._ready_normal
            )
            sets[self._sched_of[slot]].add(slot)
        else:
            membar = warp.membar_until
            heappush(self._wait_heap,
                     (membar if membar > now else t, slot))

    def next_event(self, now: int) -> Optional[int]:
        """Earliest cycle after ``now`` when some warp may become ready,
        as of this SM's last step: its ``wake``."""
        return self.wake if self.wake < NEVER else None

    def accumulate_occupancy(self, dt: float) -> None:
        """A no-op.  The cycle loop integrates ``_n_live`` / ``_n_backed``
        itself; this name exists only because the ledger's tracer wraps
        it by name (``benchmarks/ledger/tracing.py:289``)."""

    # ------------------------------------------------------------------
    # Helpers

    def _record_issue(self, now: int, warp: Warp, instr: Instruction,
                      n_exec: int) -> None:
        """Called before ``bows.on_issue``, so ``backed_off`` is the
        state the warp was selected in."""
        self._emit_issue(
            cycle=now, sm_id=self.sm_id, warp_slot=warp.warp_slot,
            cta_id=warp.cta_id, pc=instr.index, opcode=instr.opcode.value,
            active_lanes=n_exec, backed_off=warp.backed_off,
        )

    def _barrier_arrive(self, cta_id: int, now: Optional[int] = None,
                        skip_slot: Optional[int] = None) -> None:
        slots = self._cta_slots.get(cta_id, [])
        waiting = [
            self.warps[s] for s in slots if not self.warps[s].finished
        ]
        if waiting and all(w.at_barrier for w in waiting):
            self._emit_bar_release(
                cycle=now, sm_id=self.sm_id, cta_id=cta_id,
                released=len(waiting),
            )
            if self.san is not None:
                self.san.note_barrier_release(cta_id, now)
            for w in waiting:
                w.at_barrier = False
                # Released warps become schedulable at once, so a warp
                # freed by an earlier scheduler's issue can still issue
                # from a later scheduler this same cycle.  The issuing
                # warp itself (``skip_slot``) is registered by the
                # post-issue code in :meth:`step`.
                if w.warp_slot != skip_slot:
                    self._register(w, now)

    def _retire_if_cta_done(self, cta_id: int,
                            now: Optional[int] = None) -> None:
        slots = self._cta_slots.get(cta_id)
        if slots is None:
            return
        if all(self.warps[s].finished for s in slots):
            # A finished warp can never block a barrier.
            self._barrier_arrive(cta_id, now=now)
            for slot in slots:
                del self.warps[slot]
                if self.bows is not None:
                    self.bows.on_warp_reset(slot)
            del self._cta_slots[cta_id]
            self._free_slots.extend(slots)
            self._free_slots.sort()
            for scheduler in self.schedulers:
                scheduler.invalidate_order()

    def _charge_cawa(self, now: int) -> None:
        dt = now - self._last_charge
        if dt <= 0:
            return
        self._last_charge = now
        for warp in self.warps.values():
            if warp.finished:
                continue
            warp.cawa_cycles += dt
            if warp.at_barrier or warp._ready_from > now:
                warp.cawa_nstall += dt
