"""Per-warp scoreboard: blocks issue until in-flight writes complete.

The scoreboard records, per destination register, the cycle at which its
pending write becomes visible.  An instruction may issue only when every
register it reads or writes has no pending write completing after the
current cycle (read-after-write and write-after-write protection; the
in-order, single-issue-per-warp front end makes WAR hazards impossible).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional


class Scoreboard:
    """Tracks pending register writebacks for one warp."""

    def __init__(self) -> None:
        #: register key -> release cycle of its pending write.  Part of
        #: the contract: updated in place, never rebound (the fast
        #: engine's issue path reads it, its handler tail reserves in it).
        self.pending: Dict[str, int] = {}

    def ready(self, names: Iterable[str], now: int) -> bool:
        """True when none of ``names`` has a write completing after ``now``."""
        pending = self.pending
        if not pending:
            return True
        for name in names:
            release = pending.get(name)
            if release is not None and release > now:
                return False
        return True

    def reserve(self, names: Iterable[str], release_cycle: int) -> None:
        """Mark ``names`` as written back at ``release_cycle``."""
        for name in names:
            current = self.pending.get(name, 0)
            if release_cycle > current:
                self.pending[name] = release_cycle

    def next_release(self, names: Iterable[str], now: int) -> Optional[int]:
        """Earliest cycle > now when all of ``names`` become available."""
        latest = now
        found = False
        for name in names:
            release = self.pending.get(name)
            if release is not None and release > latest:
                latest = release
                found = True
        return latest if found else None
