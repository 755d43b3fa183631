"""Baseline warp-scheduling policies: LRR, GTO, CAWA (paper Section II).

Each SM owns ``num_schedulers_per_sm`` scheduler instances; resident warps
are partitioned among them by warp slot (as on real hardware, a warp is
pinned to one scheduler).  Every cycle each scheduler picks at most one
ready warp to issue.

BOWS is deliberately *not* a scheduler subclass: per the paper it extends
any existing policy.  The SM first asks the base policy to choose among
ready, non-backed-off warps; only when none exists does it consult the
BOWS backed-off queue (:meth:`repro.core.bows.BOWSUnit.select_backed_off`).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set

from repro.sim.config import GPUConfig, PerturbConfig
from repro.sim.warp import Warp


class WarpScheduler:
    """Base class: a priority-ordering policy over one scheduler's warps."""

    #: Registry name; subclasses override.
    name = "base"

    def __init__(self, config: GPUConfig, slots: List[int]) -> None:
        self.config = config
        self.slots = list(slots)
        self.last_issued: Optional[int] = None

    def select(self, ready: Set[int], warps: Dict[int, Warp],
               now: int) -> Optional[int]:
        """Pick a warp slot from ``ready`` (subset of ``self.slots``)."""
        raise NotImplementedError

    def notify_issue(self, slot: int, now: int) -> None:
        self.last_issued = slot

    def enable_order_cache(self) -> None:
        """Allow the policy to cache warp-membership-derived orderings.

        Only the SM's fast engine opts in: it guarantees
        :meth:`invalidate_order` is called whenever the resident-warp
        set changes (CTA launch/retire).  Policies without a derived
        ordering ignore this.
        """

    def invalidate_order(self) -> None:
        """Resident-warp set changed; drop any cached ordering."""


class LRRScheduler(WarpScheduler):
    """Loose round-robin: rotate through warps, skipping unready ones."""

    name = "lrr"

    def __init__(self, config: GPUConfig, slots: List[int]) -> None:
        super().__init__(config, slots)
        self._pointer = 0

    def select(self, ready: Set[int], warps: Dict[int, Warp],
               now: int) -> Optional[int]:
        n = len(self.slots)
        for i in range(n):
            slot = self.slots[(self._pointer + i) % n]
            if slot in ready:
                return slot
        return None

    def notify_issue(self, slot: int, now: int) -> None:
        super().notify_issue(slot, now)
        # Advance past the issued warp so its peers get the next turns.
        self._pointer = (self.slots.index(slot) + 1) % len(self.slots)


class GTOScheduler(WarpScheduler):
    """Greedy-then-oldest with periodic age-priority rotation.

    Strict GTO can livelock spin-lock code (a spinning warp stays
    greedily scheduled while the lock holder starves); following the
    paper (Section IV-C) the age priority is rotated every
    ``gto_rotation_period`` cycles.
    """

    name = "gto"

    def __init__(self, config: GPUConfig, slots: List[int]) -> None:
        super().__init__(config, slots)
        self._cache_order = False
        self._by_age: Optional[List[int]] = None
        self._rank: Optional[Dict[int, int]] = None

    def enable_order_cache(self) -> None:
        self._cache_order = True
        self._by_age = None
        self._rank = None

    def invalidate_order(self) -> None:
        self._by_age = None
        self._rank = None

    def select(self, ready: Set[int], warps: Dict[int, Warp],
               now: int) -> Optional[int]:
        if self.last_issued is not None and self.last_issued in ready:
            return self.last_issued
        if self._cache_order:
            # Cached-order path: "first ready slot in the rotated age
            # order" == "ready slot minimizing rotated age rank" — an
            # O(|ready|) min instead of a scan over all resident slots.
            if not ready:
                return None
            rank = self._rank
            if rank is None:
                self._sort_by_age(warps)
                rank = self._rank
            n = len(rank)
            period = self.config.gto_rotation_period
            rotation = (now // period) % n if period > 0 else 0
            best = None
            best_rank = n
            for slot in ready:
                rotated = (rank[slot] - rotation) % n
                if rotated < best_rank:
                    best_rank = rotated
                    best = slot
            return best
        order = self.priority_order(warps, now)
        for slot in order:
            if slot in ready:
                return slot
        return None

    def _sort_by_age(self, warps: Dict[int, Warp]) -> None:
        by_age = sorted(
            (slot for slot in self.slots if slot in warps),
            key=lambda s: warps[s].age,
        )
        self._by_age = by_age
        self._rank = {slot: i for i, slot in enumerate(by_age)}

    def priority_order(self, warps: Dict[int, Warp], now: int) -> List[int]:
        """Oldest-first order, rotated every rotation period."""
        by_age = self._by_age
        if by_age is None:
            if self._cache_order:
                self._sort_by_age(warps)
                by_age = self._by_age
            else:
                by_age = sorted(
                    (slot for slot in self.slots if slot in warps),
                    key=lambda s: warps[s].age,
                )
        if not by_age:
            return []
        period = self.config.gto_rotation_period
        rotation = (now // period) % len(by_age) if period > 0 else 0
        return by_age[rotation:] + by_age[:rotation]


class CAWAScheduler(WarpScheduler):
    """Criticality-aware: always issue the most critical ready warp."""

    name = "cawa"

    def select(self, ready: Set[int], warps: Dict[int, Warp],
               now: int) -> Optional[int]:
        best: Optional[int] = None
        best_crit = float("-inf")
        for slot in self.slots:
            if slot not in ready:
                continue
            crit = warps[slot].criticality
            if crit > best_crit:
                best_crit = crit
                best = slot
        return best


class PerturbedScheduler(WarpScheduler):
    """Seeded perturbation layered over any base policy (fuzzing).

    Not a policy of its own: the schedule-perturbation fuzzer
    (:mod:`repro.fuzz`) wraps the configured base scheduler with this to
    explore the space of legal-but-unlucky issue orders.  Two knobs:

    * *tie-break jitter* — with probability ``sched_jitter`` the base
      policy's pick is replaced by a seeded-random choice among the
      ready warps;
    * *priority rotation* — every ``rotation_period`` cycles a rotating
      warp slot is force-prioritized whenever it is ready, emulating
      adversarial age/priority reassignment.

    Both are deterministic in (seed, cycle, issue history), so a fuzz
    seed replays its schedule exactly.
    """

    name = "perturbed"

    def __init__(self, base: WarpScheduler, perturb: PerturbConfig,
                 salt: int) -> None:
        super().__init__(base.config, base.slots)
        self.base = base
        self.perturb = perturb
        self._rng = random.Random(perturb.seed * 1000003 + salt)

    def select(self, ready: Set[int], warps: Dict[int, Warp],
               now: int) -> Optional[int]:
        if not ready:
            return None
        p = self.perturb
        if p.rotation_period > 0 and self.slots:
            pivot = self.slots[(now // p.rotation_period) % len(self.slots)]
            if pivot in ready:
                return pivot
        if p.sched_jitter > 0 and self._rng.random() < p.sched_jitter:
            return self._rng.choice(sorted(ready))
        return self.base.select(ready, warps, now)

    def notify_issue(self, slot: int, now: int) -> None:
        super().notify_issue(slot, now)
        self.base.notify_issue(slot, now)

    def enable_order_cache(self) -> None:
        self.base.enable_order_cache()

    def invalidate_order(self) -> None:
        self.base.invalidate_order()


_SCHEDULERS = {
    cls.name: cls for cls in (LRRScheduler, GTOScheduler, CAWAScheduler)
}


def make_scheduler(name: str, config: GPUConfig,
                   slots: List[int],
                   salt: int = 0) -> WarpScheduler:
    """Instantiate a scheduler policy by name (``lrr``/``gto``/``cawa``).

    When ``config.perturb`` is set the policy is wrapped in a
    :class:`PerturbedScheduler` seeded from ``config.perturb.seed`` and
    ``salt`` (unique per scheduler instance across the GPU).
    """
    try:
        cls = _SCHEDULERS[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {sorted(_SCHEDULERS)}"
        ) from None
    scheduler = cls(config, slots)
    if config.perturb is not None:
        scheduler = PerturbedScheduler(scheduler, config.perturb, salt)
    return scheduler
