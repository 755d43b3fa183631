"""Adaptive back-off delay-limit estimation.

Two controllers are provided:

* ``"paper"`` — the paper's Figure 5 pseudo-code.  Over successive
  windows of ``T`` cycles it raises the delay limit by one step while
  the dynamic share of spin-inducing branches is non-negligible
  (``SIB > FRAC1 * total``), drops it by a double step when the
  useful ratio ``total / SIB`` degrades versus the previous window
  (``< FRAC2 *`` previous), and clamps to ``[min_limit, max_limit]``.

* ``"hillclimb"`` (default for ``adaptive=True``) — extremum seeking on
  the *useful instruction rate*.  Each window measures
  ``(total - SIB) / elapsed_cycles``; if the rate improved since the
  last window the controller keeps moving the delay limit in the same
  direction, otherwise it reverses.  This finds each kernel's
  Figure 10 sweet spot directly: lock-contended kernels (HT/ATM/DS)
  climb toward large delays because removing spin traffic speeds up
  the real work, while wait/work-merged kernels (ST/NW) descend to
  zero because any delay gates productive iterations.

Why the extension: the paper's trigger counts *all* dynamic SIB
executions.  A spin iteration is only ~5-7 instructions, of which
exactly one is the SIB, so with the paper's FRAC1=0.5 the increase rule
cannot fire on any of our kernels; with a FRAC1 small enough to fire on
spin-heavy kernels it also fires on merged wait/work loops (BH-ST,
dataflow NW), whose closing branch is a SIB on *productive* iterations
too — ramping the delay there throttles real work.  The rate-seeking
controller needs no workload-dependent threshold.  Both controllers are
compared by ``benchmarks/test_ablation_bows.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.config import BOWSConfig


@dataclass
class WindowSample:
    """Instruction counts observed during one execution window."""

    total_instructions: int
    sib_instructions: int
    elapsed_cycles: int = 0
    store_instructions: int = 0

    @property
    def useful_ratio(self) -> Optional[float]:
        if self.sib_instructions == 0:
            return None
        return self.total_instructions / self.sib_instructions

    @property
    def progress_rate(self) -> float:
        """Global stores per cycle: a forward-progress proxy.

        Spin iterations issue no stores (they retry a CAS and loop);
        critical sections and real work do.  Counting committed global
        stores per window therefore tracks end-to-end progress without
        any workload annotation — exactly the signal an extremum-seeking
        throttle needs.
        """
        elapsed = max(self.elapsed_cycles, 1)
        return self.store_instructions / elapsed


class AdaptiveDelayController:
    """Per-SM adaptive delay-limit estimation."""

    def __init__(self, config: BOWSConfig) -> None:
        self.config = config
        if config.controller == "hillclimb":
            # Start from no throttle: kernels that a delay can only hurt
            # (merged wait/work loops) never pay a transient, while
            # spin-bound kernels climb from zero as each step improves
            # the measured useful rate.
            self.delay_limit = config.min_limit
        elif config.controller == "paper":
            self.delay_limit = config.delay_limit
        else:
            raise ValueError(
                f"unknown adaptive controller {config.controller!r}"
            )
        self._previous: Optional[WindowSample] = None
        self._direction = 1
        self._streak = 0
        self._dry_windows = 0
        self.windows_observed = 0
        #: Delay limit after each window — the controller's trajectory,
        #: for inspection/plotting (see examples/adaptive_trace.py).
        self.history: list = []

    @property
    def direction(self) -> int:
        """Current hill-climb search direction (+1 raising, -1 lowering)."""
        return self._direction

    def end_window(self, total_instructions: int, sib_instructions: int,
                   elapsed_cycles: int = 0,
                   store_instructions: int = 0) -> int:
        """Process one window's counts; returns the new delay limit."""
        sample = WindowSample(total_instructions, sib_instructions,
                              elapsed_cycles, store_instructions)
        self.windows_observed += 1
        if self.config.controller == "paper":
            self._paper_step(sample)
        else:
            self._hillclimb_step(sample)
        cfg = self.config
        self.delay_limit = max(cfg.min_limit,
                               min(cfg.max_limit, self.delay_limit))
        self._previous = sample
        self.history.append(self.delay_limit)
        return self.delay_limit

    # ------------------------------------------------------------------

    def _paper_step(self, sample: WindowSample) -> None:
        cfg = self.config
        if sample.sib_instructions > cfg.frac1 * sample.total_instructions:
            self.delay_limit += cfg.delay_step
        else:
            # Spin share negligible: throttling harder only adds
            # handoff/signal latency, so ramp back down.
            self.delay_limit -= cfg.delay_step
        ratio = sample.useful_ratio
        prev_ratio = self._previous.useful_ratio if self._previous else None
        if (
            ratio is not None
            and prev_ratio is not None
            and ratio < cfg.frac2 * prev_ratio
        ):
            self.delay_limit -= 2 * cfg.delay_step

    def _hillclimb_step(self, sample: WindowSample) -> None:
        cfg = self.config
        if sample.store_instructions == 0:
            # No progress signal this window.  Sparse stores are normal
            # for heavily-serialized kernels (hold), but a long dry
            # stretch usually means the throttle itself froze progress
            # (an over-throttled kernel stops storing *because* of the
            # delay) — blow the fuse and halve the limit so the climb
            # can re-earn it once stores resume.
            self._dry_windows += 1
            if self._dry_windows >= 10:
                self.delay_limit //= 2
                self._dry_windows = 0
                self._streak = 0
                self._direction = -1
            return
        self._dry_windows = 0
        if self._previous is not None:
            if sample.progress_rate < self._previous.progress_rate:
                self._direction = -self._direction
                self._streak = 0
            else:
                self._streak = min(self._streak + 1, 2)
        # Accelerate while the climb keeps paying off (the optimum can
        # be an order of magnitude above the step size), reset to the
        # base step on every reversal so oscillation stays tight.
        step = cfg.delay_step * (1 << self._streak)
        self.delay_limit += self._direction * step
