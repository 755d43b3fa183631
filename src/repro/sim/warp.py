"""Warp state: registers, SIMT stack, scoreboard, scheduling flags.

A warp is the schedulable unit.  Besides the architectural state (register
file, reconvergence stack) it carries the per-warp bookkeeping used by the
schedulers and by the paper's mechanisms:

* ``age`` — dynamic warp id used by GTO ("older" = launched earlier);
* ``backed_off`` / ``pending_delay_until`` — BOWS state (Section III);
* ``cawa_*`` — inputs to the CAWA criticality estimate (Section II);
* ``at_barrier`` / ``membar_until`` — synchronization stalls.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.isa.instructions import Instruction
from repro.isa.program import Program
from repro.sim.registers import RegisterFile
from repro.sim.scoreboard import Scoreboard
from repro.sim.simt_stack import SIMTStack


class Warp:
    """One warp resident on an SM."""

    def __init__(
        self,
        program: Program,
        warp_slot: int,
        sm_id: int,
        cta_id: int,
        warp_in_cta: int,
        cta_dim: int,
        grid_dim: int,
        warp_size: int,
        age: int,
    ) -> None:
        self.program = program
        self.warp_slot = warp_slot
        self.sm_id = sm_id
        self.cta_id = cta_id
        self.warp_in_cta = warp_in_cta
        self.age = age

        first_tid = warp_in_cta * warp_size
        tids = first_tid + np.arange(warp_size, dtype=np.int64)
        valid = tids < cta_dim
        self.regs = RegisterFile(
            warp_size, program.registers(), program.predicates()
        )
        self.stack = SIMTStack(warp_size, start_pc=0, initial_mask=valid)
        self.scoreboard = Scoreboard()
        self.sregs = {
            "tid": tids,
            "ntid": np.full(warp_size, cta_dim, dtype=np.int64),
            "ctaid": np.full(warp_size, cta_id, dtype=np.int64),
            "nctaid": np.full(warp_size, grid_dim, dtype=np.int64),
            "laneid": np.arange(warp_size, dtype=np.int64),
            "warpid": np.full(warp_size, warp_slot, dtype=np.int64),
            "gtid": cta_id * cta_dim + tids,
        }

        # DDOS profiles one fixed thread per warp: the lowest-numbered
        # live lane (Section IV-A's "first active thread").  Updated
        # only when lanes exit.
        self.profiled_lane: int = int(np.argmax(valid)) if valid.any() else -1

        # Synchronization stalls.
        self.at_barrier = False
        self.membar_until = 0
        self.last_store_completion = 0

        # BOWS state.
        self.backed_off = False
        self.pending_delay_until = 0

        # Hang forensics: last lock address this warp failed to acquire
        # and how many acquires have failed (repro.sim.progress).
        self.lock_fail_addr: Optional[int] = None
        self.lock_fails = 0

        # CAWA criticality inputs.
        self.cawa_ninst = float(program.static_size)
        self.cawa_nstall = 0.0
        self.cawa_cycles = 0.0
        self.cawa_issued = 0

        # Stats.
        self.issued_instructions = 0
        self.thread_instructions = 0

        # Fast-engine cache (repro.sim.sm, engine="fast").  Refreshed by
        # the SM after each of this warp's issues — the only time its
        # readiness inputs can change:
        #   _decoded    — DecodedOp for the current PC;
        #   _ready_from — first cycle the warp can issue: the max of
        #                 membar_until and the pending scoreboard
        #                 releases over the current instruction's hazard
        #                 keys (0 = nothing pending).
        # The reference engine ignores both.
        self._decoded = None
        self._ready_from = 0

    # ------------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.stack.finished

    def refresh_profiled_lane(self) -> None:
        """Re-pick the profiled thread after lanes exit."""
        live = self.stack.live_mask()
        if self.profiled_lane >= 0 and live[self.profiled_lane]:
            return
        self.profiled_lane = int(np.argmax(live)) if live.any() else -1

    @property
    def pc(self) -> int:
        return self.stack.pc

    def current_instruction(self) -> Instruction:
        return self.program[self.stack.pc]

    def exec_mask(self, instr: Instruction) -> np.ndarray:
        """Lanes that actually execute ``instr`` (active ∧ guard)."""
        active = self.stack.active_mask
        if instr.guard is None:
            return active.copy()
        guard = self.regs.read_pred(instr.guard.name)
        if instr.guard_negated:
            guard = ~guard
        return np.logical_and(active, guard)

    # ------------------------------------------------------------------
    # CAWA accessors (Section II: criticality = nInst * CPIavg + nStall).

    @property
    def cawa_cpi(self) -> float:
        if self.cawa_issued == 0:
            return 1.0
        return max(self.cawa_cycles / self.cawa_issued, 1.0)

    @property
    def criticality(self) -> float:
        return self.cawa_ninst * self.cawa_cpi + self.cawa_nstall

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.finished else f"pc={self.pc}"
        return (
            f"Warp(slot={self.warp_slot}, sm={self.sm_id}, cta={self.cta_id},"
            f" {state})"
        )
