"""BOWS — Back-Off Warp Spinning (paper Section III).

Per-SM unit holding the two pieces of scheduling state BOWS adds:

* the **backed-off queue** — FIFO of warps that executed a spin-inducing
  branch and are therefore deprioritized: they may only issue when no
  normal warp can, and leave the queue (reverting to normal priority) as
  soon as they issue their next instruction;
* the **pending back-off delay** per warp — set when a warp exits the
  backed-off state, it enforces a minimum interval between the starts of
  two consecutive spin-loop iterations by the same warp: a warp whose
  delay has not expired is not eligible for issue from the backed-off
  queue at all.

The delay limit is either fixed or driven by the adaptive controller
(:class:`~repro.core.adaptive.AdaptiveDelayController`), fed with
per-window total/SIB instruction counts.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, Optional, Set

from repro.core.adaptive import AdaptiveDelayController
from repro.obs.bus import emitter_for
from repro.obs.events import AdaptiveDelayUpdate, BackoffEnter, BackoffExit
from repro.sim.config import BOWSConfig
from repro.sim.warp import Warp


class BOWSUnit:
    """Backed-off queue, pending delays, and window accounting for one SM."""

    def __init__(self, config: BOWSConfig, sm_id: int = 0, bus=None) -> None:
        self.config = config
        self.sm_id = sm_id
        # Pre-bound event sinks (repro.obs); all three fire only on cold
        # branches (state transitions / window ends), never per issue.
        self._emit_enter = emitter_for(bus, BackoffEnter)
        self._emit_exit = emitter_for(bus, BackoffExit)
        self._emit_delay = emitter_for(bus, AdaptiveDelayUpdate)
        self._queue: Deque[int] = deque()
        self._queued: Set[int] = set()
        self._controller: Optional[AdaptiveDelayController] = (
            AdaptiveDelayController(config) if config.adaptive else None
        )
        self._window_end = config.window
        self._window_start = 0
        self._window_total = 0
        self._window_sib = 0
        self._window_stores = 0

    # ------------------------------------------------------------------

    @property
    def delay_limit(self) -> int:
        if self._controller is not None:
            return self._controller.delay_limit
        return self.config.delay_limit

    @property
    def controller(self) -> Optional[AdaptiveDelayController]:
        """The adaptive controller, if any (for inspection/plotting)."""
        return self._controller

    @property
    def backed_off_slots(self) -> Set[int]:
        return set(self._queued)

    def queue_order(self) -> Iterable[int]:
        """Warp slots in backed-off FIFO order (oldest first)."""
        return iter(self._queue)

    # ------------------------------------------------------------------
    # Event hooks

    def on_sib_executed(self, warp: Warp, now: int) -> None:
        """Warp executed a SIB with at least one lane looping: back off."""
        warp.backed_off = True
        if warp.warp_slot not in self._queued:
            self._queue.append(warp.warp_slot)
            self._queued.add(warp.warp_slot)
            self._emit_enter(
                cycle=now, sm_id=self.sm_id,
                warp_slot=warp.warp_slot, cta_id=warp.cta_id,
            )

    def on_issue(self, warp: Warp, now: int, is_sib: bool,
                 is_store: bool = False) -> None:
        """Account an issued instruction; release the warp if backed off."""
        self._window_total += 1
        if is_sib:
            self._window_sib += 1
        if is_store:
            self._window_stores += 1
        if self._controller is not None and now >= self._window_end:
            elapsed = max(now - self._window_start, 1)
            window_total = self._window_total
            window_sib = self._window_sib
            self._controller.end_window(
                window_total, window_sib, elapsed,
                self._window_stores,
            )
            self._window_total = 0
            self._window_sib = 0
            self._window_stores = 0
            self._window_start = now
            self._window_end = now + self.config.window
            self._emit_delay(
                cycle=now, sm_id=self.sm_id,
                delay_limit=self._controller.delay_limit,
                window_total=window_total, window_sib=window_sib,
                direction=self._controller.direction,
            )
        if warp.backed_off:
            # Exiting the backed-off state: normal priority is restored
            # and the pending back-off delay starts counting down.
            warp.backed_off = False
            warp.pending_delay_until = now + self.delay_limit
            self._discard(warp.warp_slot)
            self._emit_exit(
                cycle=now, sm_id=self.sm_id,
                warp_slot=warp.warp_slot, cta_id=warp.cta_id,
                delay_until=warp.pending_delay_until,
            )

    def on_warp_reset(self, warp_slot: int) -> None:
        """Warp slot reused by a new CTA: forget its backed-off state."""
        self._discard(warp_slot)

    # ------------------------------------------------------------------
    # Scheduling queries

    def select_backed_off(self, ready_slots: Set[int], now: int,
                          warps_by_slot) -> Optional[int]:
        """Pick the frontmost eligible backed-off warp, FIFO order."""
        for slot in self._queue:
            if slot not in ready_slots:
                continue
            warp = warps_by_slot[slot]
            if now >= warp.pending_delay_until:
                return slot
        return None

    # ------------------------------------------------------------------

    def _discard(self, warp_slot: int) -> None:
        if warp_slot in self._queued:
            self._queued.discard(warp_slot)
            self._queue.remove(warp_slot)
