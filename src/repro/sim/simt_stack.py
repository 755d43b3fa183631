"""Stack-based SIMT reconvergence (pre-Volta semantics).

Each warp owns a stack of ``(pc, rpc, active_mask)`` entries.  The top of
stack (TOS) determines the next PC and which lanes execute.  On a divergent
conditional branch the TOS becomes the reconvergence entry (its PC is set
to the branch's immediate post-dominator) and one entry per divergent path
is pushed.  When a pushed entry's PC reaches its RPC it is popped, lanes
re-merge, and execution resumes below.

This faithfully reproduces the behaviour the paper depends on: lanes that
exit a spin loop *wait at the reconvergence point* for their warp-mates
still spinning, which is why intra-warp lock handoff must be written with
the "done flag" pattern of Figure 1a (otherwise: SIMT-induced deadlock,
Section IV).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.isa.program import RECONVERGE_AT_EXIT
from repro.sim.registers import count_nonzero

#: RPC value for the base stack entry: only "reconverges" at thread exit.
_NO_RPC = -1


def _count(mask: np.ndarray) -> int:
    """Lanes set in ``mask`` as a plain ``int`` (it reaches ``SimStats``)."""
    return int(count_nonzero(mask))


@dataclass
class StackEntry:
    """One reconvergence-stack entry.

    ``mask`` is replaced, never updated in place (an unguarded
    instruction's exec mask aliases it), and ``n`` — its lane count —
    is set with it, so nobody re-counts a mask that has not changed.
    """

    pc: int
    rpc: int
    mask: np.ndarray  # bool[warp_size]
    n: int  # == count_nonzero(mask)

    def clone(self) -> "StackEntry":
        return StackEntry(self.pc, self.rpc, self.mask.copy(), self.n)


class SIMTStack:
    """Per-warp reconvergence stack."""

    def __init__(self, warp_size: int, start_pc: int = 0,
                 initial_mask: Optional[np.ndarray] = None) -> None:
        self.warp_size = warp_size
        if initial_mask is None:
            initial_mask = np.ones(warp_size, dtype=bool)
        else:
            initial_mask = np.asarray(initial_mask, dtype=bool).copy()
        #: The entries, bottom first.  Part of the contract: the list is
        #: mutated in place and never rebound, so the issue path reads
        #: ``frames[-1]`` (the TOS entry) directly.  Every entry pushed
        #: or kept by an update has a non-empty mask.
        self.frames: List[StackEntry] = [
            StackEntry(start_pc, _NO_RPC, initial_mask, _count(initial_mask))
        ]

    # ------------------------------------------------------------------
    # Queries

    @property
    def finished(self) -> bool:
        return not self.frames

    @property
    def pc(self) -> int:
        return self.frames[-1].pc

    @property
    def active_mask(self) -> np.ndarray:
        """Boolean lane mask of the TOS entry (do not mutate)."""
        return self.frames[-1].mask

    @property
    def depth(self) -> int:
        return len(self.frames)

    def live_mask(self) -> np.ndarray:
        """Union of all entries' masks: lanes that have not exited."""
        live = np.zeros(self.warp_size, dtype=bool)
        for entry in self.frames:
            np.logical_or(live, entry.mask, out=live)
        return live

    def entries(self) -> List[StackEntry]:
        """Copy of the stack, bottom first (for inspection/tests)."""
        return [e.clone() for e in self.frames]

    # ------------------------------------------------------------------
    # Updates

    def advance(self) -> None:
        """Move the TOS past a non-branch instruction (pc += 1)."""
        top = self.frames[-1]
        pc = top.pc + 1
        top.pc = pc
        if pc == top.rpc:
            self.pop_reconverged()

    def branch(self, taken_mask: np.ndarray, target: int, rpc: int) -> bool:
        """Apply a (possibly divergent) conditional branch at the TOS.

        Args:
            taken_mask: lanes (within the TOS mask) that take the branch.
            target: branch target instruction index.
            rpc: reconvergence index from the program analysis
                (``RECONVERGE_AT_EXIT`` maps to "never", handled by exit).

        Returns:
            True when the branch diverged (both paths non-empty).
        """
        top = self.frames[-1]
        taken = np.logical_and(taken_mask, top.mask)
        n_taken = _count(taken)
        if n_taken == 0:
            self.advance()
            return False
        if n_taken == top.n:
            self.uniform_jump(target)
            return False
        self.diverge(taken, n_taken, target, rpc)
        return True

    def diverge(self, taken: np.ndarray, n_taken: int, target: int,
                rpc: int) -> None:
        """Split the TOS: ``taken`` lanes go to ``target``, the rest fall
        through, and the TOS becomes their reconvergence entry.

        ``taken`` must be a non-empty proper subset of the TOS mask and
        ``n_taken`` its lane count — the caller has already counted
        (:meth:`branch` does it for callers that have not); uniform
        outcomes go through :meth:`uniform_jump` / :meth:`advance`.
        """
        top = self.frames[-1]
        fall = np.logical_and(top.mask, ~taken)
        fall_pc = top.pc + 1
        if rpc == RECONVERGE_AT_EXIT:
            # Paths only meet at exit; model as reconverging "nowhere":
            # the reconvergence entry keeps the full mask but is only
            # reached when both children exit (exit() clears their lanes).
            reconv_pc = _NO_RPC
        else:
            reconv_pc = rpc
        top.pc = reconv_pc
        # Push fall-through first, taken on top (taken path runs first).
        # Lane groups already sitting at the reconvergence point are not
        # pushed; they simply wait in the reconvergence entry.
        if reconv_pc == _NO_RPC or fall_pc != reconv_pc:
            self.frames.append(
                StackEntry(fall_pc, reconv_pc, fall, top.n - n_taken)
            )
        if reconv_pc == _NO_RPC or target != reconv_pc:
            self.frames.append(StackEntry(target, reconv_pc, taken, n_taken))
        self.pop_reconverged()

    def uniform_jump(self, target: int) -> None:
        """Unconditional branch of the whole TOS entry."""
        top = self.frames[-1]
        top.pc = target
        if target == top.rpc:
            self.pop_reconverged()

    def exit_lanes(self, mask: np.ndarray) -> None:
        """Retire ``mask`` lanes (an ``exit`` executed under that mask)."""
        keep = ~mask
        frames = self.frames
        for entry in frames:
            # A new array, never an in-place update: an unguarded
            # instruction's exec mask aliases the TOS mask.
            entry.mask = np.logical_and(entry.mask, keep)
            entry.n = _count(entry.mask)
        frames[:] = [e for e in frames if e.n]
        self.pop_reconverged()

    # ------------------------------------------------------------------

    def pop_reconverged(self) -> None:
        """Pop entries whose PC reached their reconvergence point.

        Every update that can move a PC onto its RPC ends here; the
        decoded handlers' tail, which advances the TOS itself, calls it
        when ``pc == rpc``.

        Every entry on the stack has a non-empty mask (a divergent
        branch pushes two non-empty halves, :meth:`exit_lanes` drops the
        entries it empties), so the PC test is the only one needed.
        """
        stack = self.frames
        while stack:
            top = stack[-1]
            if top.rpc == _NO_RPC or top.pc != top.rpc:
                break
            stack.pop()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = [
            f"(pc={e.pc}, rpc={e.rpc}, n={e.n})"
            for e in self.frames
        ]
        return f"SIMTStack[{' '.join(parts)}]"
