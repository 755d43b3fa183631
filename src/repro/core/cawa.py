"""CAWA criticality estimation (Lee et al., ISCA 2015; paper Section II).

CAWA predicts which warp will finish last — the *critical* warp — and
prioritizes it.  The criticality metric is::

    criticality = nInst * CPIavg + nStall

where ``nInst`` estimates the remaining dynamic instruction count from
branch outcomes (a taken backward branch implies the loop body will run
again, so the estimate grows by the loop length), ``CPIavg`` is the warp's
average cycles-per-instruction, and ``nStall`` accumulates cycles the warp
spent unable to issue.

The paper's observation (reproduced here): on busy-wait code the
criticality predictor rewards *spinning* warps — every spin iteration's
backward branch inflates ``nInst`` — so CAWA tends to prioritize exactly
the warps BOWS wants to throttle.
"""

from __future__ import annotations

from repro.isa.instructions import Instruction
from repro.sim.warp import Warp


class CAWAPredictor:
    """Online criticality bookkeeping for the warps of one SM."""

    #: Floor for the remaining-instruction estimate (a live warp always
    #: has at least a few instructions left).
    MIN_REMAINING = 1.0

    def on_issue(self, warp: Warp, instr: Instruction, now: int) -> None:
        """Update ``nInst``/CPI inputs when ``warp`` issues ``instr``."""
        warp.cawa_issued += 1
        warp.cawa_ninst = max(warp.cawa_ninst - 1.0, self.MIN_REMAINING)

    def on_branch(self, warp: Warp, instr: Instruction,
                  taken_any: bool) -> None:
        """Grow the remaining-instruction estimate on taken backward branches."""
        if taken_any and instr.is_backward_branch:
            assert instr.target_index is not None
            warp.cawa_ninst += float(instr.index - instr.target_index)

    @staticmethod
    def criticality(warp: Warp) -> float:
        return warp.criticality
