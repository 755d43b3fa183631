"""Dynamic synchronization sanitizer: opt-in execution-time checking.

``simulate(..., sanitize=True)`` threads a :class:`Sanitizer` through
the SMs.  It is a pure observer — it never perturbs simulated state, so
sanitizer-on runs produce bitwise-identical stats to sanitizer-off runs
(enforced by the golden-equivalence suite) — and it is pre-bound like
the obs emitters: when off, the only cost on the hot path is one
``is not None`` test per memory/barrier instruction.

Checks (``SAN*`` ids; static counterparts are ``docs/analysis.md``):

========  ========  ====================================================
id        severity  finding
========  ========  ====================================================
SAN001    error     write-write data race on a lock-protected address
SAN002    error     ``bar.sync`` executed by a divergent warp
SAN003    error     ``!lock_release`` of a lock this lane does not hold
SAN004    warning   plain (non-atomic) store to a known lock word
========  ========  ====================================================

Race detection is Eraser-style lockset checking with a barrier-epoch
happens-before refinement: two writes to the same address by different
threads conflict unless they hold a common lock, are separated by a
``bar.sync`` release in the same CTA, or at least one is atomic.  Only
*write-write* conflicts are reported by default — single-writer
publish/poll (``membar`` + ``!wait_branch`` flag polling, the NW and
BH-ST idiom) is how this machine is meant to synchronize, so racy reads
are opt-in (``SanitizerConfig(track_reads=True)``) and reported as
SAN001 with ``detail.kind = "read-write"``.

The sanitizer also installs a :class:`GlobalMemory` write hook to count
every functional write, reported as coverage (``raw_writes`` vs
``checked_writes``), and emits a ``sanitizer`` obs event per diagnostic
when an event bus is attached so findings land in
``HangReport.events_tail``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.obs.bus import emitter_for
from repro.obs.events import SanitizerFinding

__all__ = ["Sanitizer", "SanitizerConfig", "as_sanitizer"]

#: Global thread identity: (sm, cta, warp-in-cta, lane).
_Thread = Tuple[int, int, int, int]

_EMPTY: FrozenSet[int] = frozenset()


@dataclass(frozen=True)
class SanitizerConfig:
    """Knobs for the dynamic sanitizer (hashable; rides RunSpec)."""

    #: Stop recording new diagnostics after this many distinct findings.
    max_diagnostics: int = 200
    #: Also check read accesses against the write shadow (reports the
    #: intentional publish/poll idiom too — debugging aid, not CI).
    track_reads: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "max_diagnostics": self.max_diagnostics,
            "track_reads": self.track_reads,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SanitizerConfig":
        return cls(
            max_diagnostics=data.get("max_diagnostics", 200),
            track_reads=data.get("track_reads", False),
        )


class _Shadow:
    """Last-write shadow state for one address."""

    __slots__ = ("thread", "cta", "epoch", "locks", "pc", "cycle", "atomic")

    def __init__(self, thread: _Thread, cta: int, epoch: int,
                 locks: FrozenSet[int], pc: int, cycle: int,
                 atomic: bool) -> None:
        self.thread = thread
        self.cta = cta
        self.epoch = epoch
        self.locks = locks
        self.pc = pc
        self.cycle = cycle
        self.atomic = atomic


class Sanitizer:
    """Execution-time synchronization checker (attach via ``simulate``)."""

    def __init__(self, config: Optional[SanitizerConfig] = None,
                 bus=None) -> None:
        self.config = config or SanitizerConfig()
        self.kernel = ""
        self.diagnostics: List[Diagnostic] = []
        #: Occurrences per finding key (diagnostics are deduplicated).
        self.counts: Dict[Tuple[str, int], int] = {}
        self.counters: Dict[str, int] = {
            "raw_writes": 0,
            "checked_writes": 0,
            "checked_reads": 0,
            "lock_acquires": 0,
            "lock_releases": 0,
            "barrier_epochs": 0,
        }
        self._bus = bus
        #: Locks held per thread: thread -> {lock addr: acquire pc}.
        self._held: Dict[_Thread, Dict[int, int]] = {}
        #: Addresses ever contended as locks (CAS !lock_try targets).
        self._lock_words: Set[int] = set()
        self._shadow: Dict[int, _Shadow] = {}
        #: Barrier epoch per CTA (bumped on every barrier release).
        self._epochs: Dict[int, int] = {}
        self._full = False

    # -- lifecycle -------------------------------------------------------

    def begin_run(self, kernel: str, bus=None) -> None:
        self.kernel = kernel
        if bus is not None:
            self._bus = bus
        self._emit = emitter_for(self._bus, SanitizerFinding)

    def attach_memory(self, memory) -> None:
        """Install the :class:`GlobalMemory` write hook (coverage).

        The hook is a bound method, so it pickles with shared identity
        in a checkpoint."""
        memory.write_hook = self._on_raw_write

    def _on_raw_write(self, n_words: int) -> None:
        self.counters["raw_writes"] += n_words

    # -- reporting -------------------------------------------------------

    def _report(self, diag_id: str, severity: str, pc: int, message: str,
                hint: str, warp: int, lane: Optional[int], cycle: int,
                **detail) -> None:
        key = (diag_id, pc)
        self.counts[key] = self.counts.get(key, 0) + 1
        if self.counts[key] > 1 or self._full:
            return
        if len(self.diagnostics) + 1 >= self.config.max_diagnostics:
            self._full = True
        self.diagnostics.append(Diagnostic(
            id=diag_id, severity=severity, kernel=self.kernel, pc=pc,
            message=message, hint=hint, warp=warp, lane=lane, cycle=cycle,
            detail=detail,
        ))
        self._emit(cycle=cycle, diag_id=diag_id, severity=severity,
                   pc=pc, warp_slot=warp)

    # -- hooks (called from SM execute paths, both engines) --------------

    def note_atomic(self, sm_id: int, cta: int, warp_in_cta: int, lane: int,
                    addr: int, pc: int, cycle: int, *, lock_try: bool,
                    success: bool, release: bool, wrote: bool) -> None:
        thread = (sm_id, cta, warp_in_cta, lane)
        if lock_try:
            self._lock_words.add(addr)
            self._shadow.pop(addr, None)
            if success:
                self.counters["lock_acquires"] += 1
                self._held.setdefault(thread, {})[addr] = pc
        if release:
            self.counters["lock_releases"] += 1
            held = self._held.get(thread)
            if held is None or addr not in held:
                self._report(
                    "SAN003", "error", pc,
                    f"release of lock @{addr} that this lane does not "
                    f"hold",
                    "a release must follow this lane's own successful "
                    "!lock_try acquire of the same address (double "
                    "release, or release on the failure path)",
                    warp_in_cta, lane, cycle, addr=addr, sm=sm_id,
                    cta=cta,
                )
            else:
                del held[addr]
        elif wrote and not lock_try and addr not in self._lock_words:
            # Unconditional RMW atomics are synchronized accesses; they
            # update the shadow so plain writes racing them are caught.
            self._update_shadow(thread, cta, addr, pc, cycle, atomic=True)

    def note_store(self, sm_id: int, cta: int, warp_in_cta: int,
                   lanes, addrs, pc: int, cycle: int, *,
                   release: bool) -> None:
        for lane, addr in zip(lanes, addrs):
            lane = int(lane)
            addr = int(addr)
            thread = (sm_id, cta, warp_in_cta, lane)
            if release:
                # Plain-store lock release (paper-idiomatic on pre-Volta).
                self.counters["lock_releases"] += 1
                held = self._held.get(thread)
                if held is None or addr not in held:
                    self._report(
                        "SAN003", "error", pc,
                        f"release of lock @{addr} that this lane does "
                        f"not hold",
                        "a release must follow this lane's own "
                        "successful !lock_try acquire of the same "
                        "address",
                        warp_in_cta, lane, cycle, addr=addr, sm=sm_id,
                        cta=cta,
                    )
                else:
                    del held[addr]
                continue
            if addr in self._lock_words:
                self._report(
                    "SAN004", "warning", pc,
                    f"plain store to lock word @{addr}",
                    "lock words should only be written by atomics (or a "
                    "store annotated !lock_release)",
                    warp_in_cta, lane, cycle, addr=addr,
                )
                continue
            self.counters["checked_writes"] += 1
            self._update_shadow(thread, cta, addr, pc, cycle, atomic=False)

    def note_load(self, sm_id: int, cta: int, warp_in_cta: int,
                  lanes, addrs, pc: int, cycle: int) -> None:
        if not self.config.track_reads:
            return
        epoch_cache = self._epochs
        for lane, addr in zip(lanes, addrs):
            addr = int(addr)
            prev = self._shadow.get(addr)
            if prev is None:
                continue
            lane = int(lane)
            thread = (sm_id, cta, warp_in_cta, lane)
            if prev.thread == thread or prev.atomic:
                continue
            self.counters["checked_reads"] += 1
            if prev.cta == cta and epoch_cache.get(cta, 0) > prev.epoch:
                continue
            locks = self._locks_of(thread)
            if locks & prev.locks:
                continue
            if not locks and not prev.locks:
                continue
            self._report(
                "SAN001", "error", pc,
                f"read of @{addr} races with the write at pc {prev.pc} "
                f"(cycle {prev.cycle})",
                "synchronize the read with the writer's lock, or accept "
                "it as an intentional poll (this check is opt-in)",
                warp_in_cta, lane, cycle, addr=addr, kind="read-write",
                other_pc=prev.pc,
            )

    def _locks_of(self, thread: _Thread) -> FrozenSet[int]:
        held = self._held.get(thread)
        return frozenset(held) if held else _EMPTY

    def _update_shadow(self, thread: _Thread, cta: int, addr: int,
                       pc: int, cycle: int, *, atomic: bool) -> None:
        epoch = self._epochs.get(cta, 0)
        locks = self._locks_of(thread)
        prev = self._shadow.get(addr)
        if (prev is not None and prev.thread != thread
                and not atomic and not prev.atomic
                and not (prev.cta == cta and epoch > prev.epoch)
                and not (locks & prev.locks)
                and (locks or prev.locks)):
            self._report(
                "SAN001", "error", pc,
                f"write-write race on lock-protected address @{addr}: "
                f"conflicts with the write at pc {prev.pc} "
                f"(cycle {prev.cycle})",
                "both writers must hold a common lock, or be separated "
                "by a bar.sync in the same CTA",
                thread[2], thread[3], cycle, addr=addr,
                kind="write-write", other_pc=prev.pc,
                locks=sorted(locks), other_locks=sorted(prev.locks),
            )
        self._shadow[addr] = _Shadow(thread, cta, epoch, locks, pc,
                                     cycle, atomic)

    def note_barrier(self, sm_id: int, cta: int, warp_in_cta: int,
                     pc: int, cycle: int, stack_depth: int) -> None:
        if stack_depth > 1:
            self._report(
                "SAN002", "error", pc,
                "bar.sync executed by a divergent warp (SIMT stack depth "
                f"{stack_depth})",
                "a partial warp at a barrier deadlocks the CTA on "
                "stack-based SIMT hardware; reconverge before the "
                "barrier",
                warp_in_cta, None, cycle, sm=sm_id, cta=cta,
            )

    def note_barrier_release(self, cta: int, cycle: int) -> None:
        self._epochs[cta] = self._epochs.get(cta, 0) + 1
        self.counters["barrier_epochs"] += 1

    # -- results ---------------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    @property
    def races(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.id == "SAN001"]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kernel": self.kernel,
            "config": self.config.to_dict(),
            "ok": self.ok,
            "counters": dict(self.counters),
            "counts": {f"{i}@{pc}": n for (i, pc), n in
                       sorted(self.counts.items())},
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def render(self) -> str:
        lines = [
            f"sanitizer {self.kernel or '?'}: "
            + ("OK" if self.ok else f"{len(self.diagnostics)} finding(s)")
            + f" ({self.counters['checked_writes']} writes checked, "
              f"{self.counters['barrier_epochs']} barrier epochs)"
        ]
        for diag in self.diagnostics:
            occurrences = self.counts.get((diag.id, diag.pc), 1)
            suffix = f" [x{occurrences}]" if occurrences > 1 else ""
            lines.append("  " + diag.format().replace("\n", "\n  ")
                         + suffix)
        return "\n".join(lines)


def as_sanitizer(value) -> Optional[Sanitizer]:
    """Coerce ``simulate``'s ``sanitize=`` argument.

    ``False``/``None`` -> None; ``True`` -> default :class:`Sanitizer`;
    a :class:`SanitizerConfig` -> sanitizer with that config; an
    existing :class:`Sanitizer` passes through (caller keeps the
    reference to inspect diagnostics afterwards).
    """
    if value is None or value is False:
        return None
    if value is True:
        return Sanitizer()
    if isinstance(value, SanitizerConfig):
        return Sanitizer(value)
    if isinstance(value, Sanitizer):
        return value
    raise TypeError(
        f"sanitize= expects bool, SanitizerConfig or Sanitizer, "
        f"got {type(value).__name__}"
    )
