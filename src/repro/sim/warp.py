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

from functools import lru_cache
from typing import Dict, Optional

import numpy as np

from repro.isa.program import Program
from repro.sim.registers import RegisterFile, count_nonzero
from repro.sim.simt_stack import SIMTStack


@lru_cache(maxsize=1024)
def _read_only(value: Optional[int], warp_size: int) -> np.ndarray:
    """A frozen special-register vector shared by every warp that reads
    it: ``value`` in every lane, or the lane ids for ``value=None``."""
    vector = (np.arange(warp_size, dtype=np.int64) if value is None
              else np.full(warp_size, value, dtype=np.int64))
    vector.setflags(write=False)
    return vector


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

        lane_ids = _read_only(None, warp_size)
        tids = lane_ids + warp_in_cta * warp_size
        valid = tids < cta_dim
        self.regs = RegisterFile(
            warp_size, program.registers(), program.predicates()
        )
        self.stack = SIMTStack(warp_size, start_pc=0, initial_mask=valid)
        #: The scoreboard: register key (``r:name`` / ``p:name``) -> the
        #: cycle its pending write becomes visible.  An instruction issues
        #: only once every one of its hazard keys is released (RAW and
        #: WAW; the in-order front end rules out WAR).  Updated in place,
        #: never rebound: the issue path reads it, the handlers' tail
        #: reserves in it.
        self.pending: Dict[str, int] = {}
        # Read-only: only ``tid`` and ``gtid`` are this warp's own.
        self.sregs = {
            "tid": tids,
            "ntid": _read_only(cta_dim, warp_size),
            "ctaid": _read_only(cta_id, warp_size),
            "nctaid": _read_only(grid_dim, warp_size),
            "laneid": lane_ids,
            "warpid": _read_only(warp_slot, warp_size),
            "gtid": cta_id * cta_dim + tids,
        }

        # DDOS profiles one fixed thread per warp: the lowest-numbered
        # live lane (Section IV-A's "first active thread").  Updated
        # only when lanes exit.
        self.profiled_lane: int = (
            int(valid.argmax()) if count_nonzero(valid) else -1)

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

        # Issue cache (repro.sim.sm).  Refreshed by the SM after each of
        # this warp's issues — the only time its readiness inputs can
        # change:
        #   _decoded    — DecodedOp for the current PC;
        #   _ready_from — first cycle the warp can issue: the max of
        #                 membar_until and the pending scoreboard
        #                 releases over the current instruction's hazard
        #                 keys (0 = nothing pending).
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
