"""Forward-progress guard: hang classification and forensics.

The paper's workloads are spin-lock and barrier kernels — exactly the
programs that wedge a SIMT machine.  A *deadlocked* run stops issuing
entirely and is caught by the GPU loop's no-event check, but a
*livelocked* run (a warp spinning on a lock that will never be released)
keeps issuing spin iterations forever and, without this module, burns
silently until ``max_cycles``.

:class:`ProgressMonitor` is sampled by ``Simulation._advance`` every
``config.progress_epoch`` cycles.  Each sample is cheap: per-warp
retired-instruction counters and PCs, plus global digests (the
functional-memory write version, lock acquisitions, warp completions).
When *none* of the global digests move for a full
``config.no_progress_window``, the window is classified:

* **deadlock** — no warp issued anything during the window (defensive;
  the no-event fast-forward check usually fires first);
* **livelock** — warps issued, but every issuing warp stayed inside a
  small PC footprint (a spin loop), nothing observable changed, and
  there is synchronization evidence (failed lock acquires, sync/atomic
  traffic, DDOS-detected spinning, or BOWS back-off);
* **slow-but-progressing** — anything else; the run continues and, if it
  ultimately exhausts ``max_cycles``, the timeout carries the same
  :class:`HangReport` diagnostics.

Classification raises :class:`SimulationDeadlock` or
:class:`SimulationLivelock` carrying a structured, JSON-serializable
:class:`HangReport`: per-SM/per-warp PC and SIMT stack, scoreboard
pending state, barrier membership, lock-owner inference from the atomic
trace, and — from the run's :class:`~repro.obs.Observability`, when one
is attached — the last decision events and, if issues were recorded,
the last issued instructions.

:class:`InvariantChecker` (``config.invariant_checks``, opt-in debug
mode) additionally asserts micro-architectural sanity every epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.obs.bus import emitter_for
from repro.obs.events import HangSuspected, format_event

__all__ = [
    "HangReport",
    "InvariantChecker",
    "InvariantViolation",
    "ProgressMonitor",
    "SimulationDeadlock",
    "SimulationHang",
    "SimulationLivelock",
    "SimulationTimeout",
    "build_hang_report",
]


# ----------------------------------------------------------------------
# Exceptions

class SimulationHang(RuntimeError):
    """Base of all no-forward-progress failures; carries a HangReport.

    The ``report`` attribute survives pickling (process-pool workers
    raise these across process boundaries back to the lab runner).
    """

    def __init__(self, message: str,
                 report: Optional["HangReport"] = None) -> None:
        super().__init__(message)
        self.report = report

    def __reduce__(self):
        return (type(self), (self.args[0], self.report))


class SimulationDeadlock(SimulationHang):
    """No warp can ever become ready again (e.g. SIMT-induced deadlock)."""


class SimulationLivelock(SimulationHang):
    """Warps keep issuing but only re-execute spin loops with no
    observable global-state change (e.g. a never-released lock)."""


class SimulationTimeout(SimulationHang):
    """The run exceeded ``config.max_cycles`` while still progressing."""


class InvariantViolation(AssertionError):
    """An opt-in micro-architectural invariant failed (simulator bug)."""


# ----------------------------------------------------------------------
# HangReport

@dataclass
class HangReport:
    """Structured forensics for a hung (or timed-out) simulation.

    Everything is plain data: ``to_dict()`` round-trips through JSON, so
    a journal's ``failed`` record carries the report verbatim.
    """

    #: "deadlock" | "livelock" | "timeout".
    kind: str
    #: Cycle at which the hang was classified.
    cycle: int
    #: No-progress window observed before classification (0 = unknown).
    window: int
    #: One-line human classification rationale.
    reason: str
    #: Per-warp state: sm, slot, cta, warp_in_cta, pc, finished,
    #: at_barrier, backed_off, spinning (DDOS), issued, issued_in_window,
    #: pc_footprint, simt_stack [(pc, rpc, n_active)], scoreboard
    #: {reg: release_cycle}, lock_fail_addr, lock_fails.
    warps: List[Dict[str, Any]] = field(default_factory=list)
    #: Per-CTA barrier membership: cta, sm, waiting/live warp slots.
    barriers: List[Dict[str, Any]] = field(default_factory=list)
    #: Lock-owner inference from the atomic trace: addr, holder
    #: (cta, warp_in_cta, lane), waiter warp labels.
    locks: List[Dict[str, Any]] = field(default_factory=list)
    #: Global memory/progress digests at classification time.
    digests: Dict[str, Any] = field(default_factory=dict)
    #: Last-N issued instructions (stringified repro.obs ``Issue``
    #: events) when the run recorded issues.
    trace_tail: List[str] = field(default_factory=list)
    #: Last-K scheduler/sync decision events (stringified repro.obs
    #: events) when an event bus was attached — what DDOS/BOWS and the
    #: lock/barrier machinery decided right before the hang.
    events_tail: List[str] = field(default_factory=list)
    #: Sanitizer findings (serialized repro.analysis Diagnostics) when
    #: the run had the dynamic sanitizer attached — a race detected
    #: before the hang usually *explains* the hang.
    diagnostics: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "kind": self.kind,
            "cycle": self.cycle,
            "window": self.window,
            "reason": self.reason,
            "warps": [dict(w) for w in self.warps],
            "barriers": [dict(b) for b in self.barriers],
            "locks": [dict(l) for l in self.locks],
            "digests": dict(self.digests),
            "trace_tail": list(self.trace_tail),
            "events_tail": list(self.events_tail),
        }
        if self.diagnostics:
            data["diagnostics"] = [dict(d) for d in self.diagnostics]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "HangReport":
        return cls(
            kind=data["kind"],
            cycle=data["cycle"],
            window=data.get("window", 0),
            reason=data.get("reason", ""),
            warps=list(data.get("warps", [])),
            barriers=list(data.get("barriers", [])),
            locks=list(data.get("locks", [])),
            digests=dict(data.get("digests", {})),
            trace_tail=list(data.get("trace_tail", [])),
            events_tail=list(data.get("events_tail", [])),
            diagnostics=list(data.get("diagnostics", [])),
        )

    # -- presentation ---------------------------------------------------

    def spinning_warps(self) -> List[Dict[str, Any]]:
        """Warps that issued during the window without leaving a small
        PC footprint — the livelock suspects."""
        return [
            w for w in self.warps
            if not w["finished"] and w.get("issued_in_window", 0) > 0
        ]

    def describe(self) -> str:
        """Multi-line human rendering (also the exception message)."""
        lines = [
            f"simulation {self.kind} at cycle {self.cycle}: {self.reason}",
            "warp states:",
        ]
        for w in self.warps:
            if w["finished"]:
                continue
            state = "barrier" if w["at_barrier"] else f"pc={w['pc']}"
            flags = []
            if w.get("backed_off"):
                flags.append("backed-off")
            if w.get("spinning"):
                flags.append("spinning")
            if w.get("issued_in_window"):
                flags.append(f"issued {w['issued_in_window']} in window")
            if w.get("lock_fail_addr") is not None:
                flags.append(f"failing CAS on lock @{w['lock_fail_addr']}")
            suffix = f" [{', '.join(flags)}]" if flags else ""
            lines.append(
                f"  SM{w['sm']} slot {w['slot']} cta {w['cta']}: "
                f"{state}{suffix}"
            )
        for lock in self.locks:
            holder = lock.get("holder")
            held = (
                f"held by cta {holder['cta']} warp {holder['warp_in_cta']} "
                f"lane {holder['lane']}" if holder else "holder unknown"
            )
            waiters = lock.get("waiters") or []
            lines.append(
                f"  lock @{lock['addr']}: {held}; "
                f"{len(waiters)} warp(s) spinning on it"
            )
        if self.events_tail:
            lines.append("last scheduler/sync decisions:")
            for line in self.events_tail[-8:]:
                lines.append(f"  {line}")
        if self.trace_tail:
            lines.append("last issued instructions:")
            for line in self.trace_tail[-8:]:
                lines.append(f"  {line}")
        if self.diagnostics:
            lines.append("sanitizer findings before the hang:")
            for d in self.diagnostics[:8]:
                lines.append(
                    f"  {d.get('id', '?')} at pc {d.get('pc', '?')}: "
                    f"{d.get('message', '')}"
                )
        if self.kind == "deadlock":
            lines.append(
                "hint: a warp blocked forever at a barrier or reconvergence "
                "point usually indicates a SIMT-induced deadlock "
                "(paper Section IV)"
            )
        elif self.kind == "livelock":
            lines.append(
                "hint: spinning warps with a never-changing global state "
                "usually indicate a leaked lock or a flag that is never "
                "signalled (paper Section IV)"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Report construction

def _warp_snapshot(sm, slot: int, warp,
                   issued_in_window: int = 0,
                   footprint: Optional[Set[int]] = None) -> Dict[str, Any]:
    finished = warp.finished
    stack = [] if finished else [
        (e.pc, e.rpc, e.n) for e in warp.stack.frames
    ]
    spinning = False
    if sm.ddos is not None:
        spinning = sm.ddos.warp_spinning(slot)
    return {
        "sm": sm.sm_id,
        "slot": slot,
        "cta": warp.cta_id,
        "warp_in_cta": warp.warp_in_cta,
        "pc": None if finished else warp.pc,
        "finished": finished,
        "at_barrier": warp.at_barrier,
        "backed_off": warp.backed_off,
        "spinning": spinning,
        "issued": warp.issued_instructions,
        "issued_in_window": issued_in_window,
        "pc_footprint": sorted(footprint) if footprint else [],
        "simt_stack": stack,
        "scoreboard": dict(warp.pending),
        "lock_fail_addr": warp.lock_fail_addr,
        "lock_fails": warp.lock_fails,
    }


def build_hang_report(
    kind: str,
    now: int,
    sms,
    memory=None,
    stats=None,
    window: int = 0,
    reason: str = "",
    issued_in_window: Optional[Dict[Tuple, int]] = None,
    footprints: Optional[Dict[Tuple, Set[int]]] = None,
    obs=None,
) -> HangReport:
    """Assemble a :class:`HangReport` from live simulator state.

    Tolerates missing context (``memory``/``stats``/``obs`` may be
    None) so the no-event deadlock path can report without a monitor.
    """
    issued_in_window = issued_in_window or {}
    footprints = footprints or {}
    warps: List[Dict[str, Any]] = []
    barriers: List[Dict[str, Any]] = []
    lock_table: Dict[int, Tuple] = {}
    for sm in sms:
        lock_table = sm.lock_table  # shared GPU-wide table
        for slot, warp in sorted(sm.warps.items()):
            key = (sm.sm_id, slot, warp.cta_id, warp.warp_in_cta)
            warps.append(_warp_snapshot(
                sm, slot, warp,
                issued_in_window=issued_in_window.get(key, 0),
                footprint=footprints.get(key),
            ))
        for cta_id, slots in sorted(sm._cta_slots.items()):
            waiting = [s for s in slots if sm.warps[s].at_barrier]
            if waiting:
                live = [s for s in slots if not sm.warps[s].finished]
                barriers.append({
                    "sm": sm.sm_id,
                    "cta": cta_id,
                    "waiting_slots": waiting,
                    "live_slots": live,
                })

    locks: List[Dict[str, Any]] = []
    contended: Dict[int, List[str]] = {}
    for w in warps:
        addr = w.get("lock_fail_addr")
        if addr is not None and not w["finished"]:
            contended.setdefault(addr, []).append(
                f"SM{w['sm']}:w{w['slot']}"
            )
    for addr in sorted(set(contended) | set(lock_table)):
        holder = lock_table.get(addr)
        locks.append({
            "addr": addr,
            "holder": (
                {"cta": holder[0][0], "warp_in_cta": holder[0][1],
                 "lane": holder[1]}
                if holder is not None else None
            ),
            "waiters": contended.get(addr, []),
        })

    digests: Dict[str, Any] = {}
    if memory is not None:
        digests["memory_version"] = memory.version
    if stats is not None:
        digests["lock_success"] = stats.locks.lock_success
        digests["lock_fail"] = (
            stats.locks.inter_warp_fail + stats.locks.intra_warp_fail
        )
        digests["warp_instructions"] = stats.warp_instructions
    # stats.memory is only merged after a completed run; mid-run the
    # live counters sit on the (shared) memory subsystem.
    memstats = sms[0].memsys.stats if sms else None
    if memstats is not None:
        digests["atomic_transactions"] = memstats.atomic_transactions
        digests["sync_transactions"] = memstats.sync_transactions

    tail: List[str] = []
    events_tail: List[str] = []
    if obs is not None:
        if obs.issues is not None:
            tail = [str(issue) for issue in obs.issues.tail(32)]
        if obs.bus is not None:
            events_tail = [format_event(e) for e in obs.bus.tail(20)]

    diagnostics: List[Dict[str, Any]] = []
    sanitizer = sms[0].san if sms else None
    if sanitizer is not None:
        diagnostics = [d.to_dict() for d in sanitizer.diagnostics]

    return HangReport(
        kind=kind, cycle=now, window=window, reason=reason,
        warps=warps, barriers=barriers, locks=locks,
        digests=digests, trace_tail=tail, events_tail=events_tail,
        diagnostics=diagnostics,
    )


# ----------------------------------------------------------------------
# ProgressMonitor

class ProgressMonitor:
    """Classifies no-progress windows from cheap per-epoch samples.

    Global progress is witnessed by any of: a functional-memory write
    (``GlobalMemory.version``), a successful lock acquisition, a warp
    finishing or retiring (its CTA leaving the SM), or a warp's sampled
    PC footprint growing beyond ``hang_footprint_limit`` (the warp is
    covering new code, not spinning).  When none of these move for a
    full ``no_progress_window``, the window is classified (module
    docstring) and a :class:`SimulationHang` subclass is raised.
    """

    def __init__(self, config, sms, memory, stats, obs=None) -> None:
        self.config = config
        self.sms = sms
        self.memory = memory
        self.stats = stats
        self.obs = obs
        self._emit_hang = emitter_for(
            obs.bus if obs is not None else None, HangSuspected
        )
        self.window = config.no_progress_window
        self.epoch = max(1, min(config.progress_epoch, max(self.window, 1)))
        self.footprint_limit = config.hang_footprint_limit
        self.next_sample = self.epoch
        self.checker = (
            InvariantChecker(config) if config.invariant_checks else None
        )
        #: Last classification outcome ("progressing" or the stall
        #: rationale); surfaced in timeout reports.
        self.last_assessment = "progressing"
        self._baseline_issued: Dict[Tuple, int] = {}
        self._reset_window(0)

    # ------------------------------------------------------------------

    def _global_digest(self) -> Dict[str, int]:
        locks = self.stats.locks
        return {
            "memory_version": self.memory.version,
            "lock_success": locks.lock_success,
        }

    def _warp_keys(self):
        for sm in self.sms:
            for slot, warp in sm.warps.items():
                yield (sm.sm_id, slot, warp.cta_id, warp.warp_in_cta), sm, warp

    # ------------------------------------------------------------------

    def sample(self, now: int) -> None:
        """Take one epoch sample; raises on a classified hang."""
        self.next_sample = now + self.epoch
        if self.checker is not None:
            self.checker.check(now, self.sms)

        progressed = self._global_digest() != self._baseline
        issued_in_window: Dict[Tuple, int] = {}
        sync_evidence = False
        any_issued = False
        seen: Set[Tuple] = set()
        for key, sm, warp in self._warp_keys():
            seen.add(key)
            if key not in self._baseline_issued:
                # Freshly-dispatched warp: a CTA slot turned over, which
                # itself witnesses progress.
                progressed = True
                self._baseline_issued[key] = warp.issued_instructions
                continue
            delta = warp.issued_instructions - self._baseline_issued[key]
            issued_in_window[key] = delta
            if warp.finished:
                if key not in self._baseline_finished:
                    progressed = True  # finished during this window
                continue
            if delta > 0:
                any_issued = True
                footprint = self._footprints.setdefault(key, set())
                footprint.add(warp.pc)
                if len(footprint) > self.footprint_limit:
                    progressed = True
                if warp.backed_off or (
                    sm.ddos is not None and sm.ddos.warp_spinning(key[1])
                ):
                    sync_evidence = True
        if set(self._baseline_issued) - seen:
            progressed = True  # a CTA retired: its warps made progress

        if progressed:
            self._reset_window(now)
            return
        if now - self._window_start < self.window:
            return

        # A full window with zero observable progress: classify.
        window = now - self._window_start
        if not any_issued:
            self.last_assessment = "deadlock"
            reason = ("no warp issued any instruction for "
                      f"{window} cycles")
            self._emit_hang(cycle=now, hang_kind="deadlock", reason=reason)
            report = self._report("deadlock", now, window, reason,
                                  issued_in_window)
            raise SimulationDeadlock(report.describe(), report)

        sync_evidence = sync_evidence or self._sync_traffic_moved()
        if sync_evidence:
            self.last_assessment = "livelock"
            reason = (
                f"warps kept issuing for {window} cycles but no memory "
                "write, lock acquisition, or warp completion occurred "
                "(spin loops re-executing with no global-state change)"
            )
            self._emit_hang(cycle=now, hang_kind="livelock", reason=reason)
            report = self._report(
                "livelock", now, window, reason, issued_in_window,
            )
            raise SimulationLivelock(report.describe(), report)

        # Issuing, tiny footprints, but no sync traffic at all: likely a
        # pure-compute loop we cannot prove is a spin.  Keep running —
        # max_cycles remains the backstop and will carry this verdict.
        self.last_assessment = (
            "suspected livelock (small PC footprints, no global progress, "
            "but no synchronization traffic to confirm)"
        )
        self._emit_hang(
            cycle=now, hang_kind="suspected", reason=self.last_assessment,
        )

    # ------------------------------------------------------------------

    def _memstats(self):
        """The live mid-run memory counters (``stats.memory`` is only
        merged from the subsystem after a completed run)."""
        return self.sms[0].memsys.stats if self.sms else self.stats.memory

    def _sync_traffic_moved(self) -> bool:
        """Did lock-acquire failures or sync/atomic traffic occur since
        the window started?  (Monotone counters: compare to window base.)"""
        locks = self.stats.locks
        mem = self._memstats()
        base = self._window_sync_base
        return (
            locks.inter_warp_fail + locks.intra_warp_fail > base[0]
            or mem.atomic_transactions > base[1]
            or mem.sync_transactions > base[2]
        )

    def _reset_window(self, now: int) -> None:
        self._window_start = now
        self._baseline = self._global_digest()
        self._baseline_issued = {}
        self._baseline_finished: Set[Tuple] = set()
        for key, _sm, warp in self._warp_keys():
            self._baseline_issued[key] = warp.issued_instructions
            if warp.finished:
                self._baseline_finished.add(key)
        self._footprints: Dict[Tuple, Set[int]] = {}
        locks = self.stats.locks
        mem = self._memstats()
        self._window_sync_base = (
            locks.inter_warp_fail + locks.intra_warp_fail,
            mem.atomic_transactions,
            mem.sync_transactions,
        )
        self.last_assessment = "progressing"

    def _report(self, kind: str, now: int, window: int, reason: str,
                issued_in_window: Dict[Tuple, int]) -> HangReport:
        return build_hang_report(
            kind, now, self.sms,
            memory=self.memory, stats=self.stats,
            window=window, reason=reason,
            issued_in_window=issued_in_window,
            footprints=self._footprints,
            obs=self.obs,
        )

    def timeout_report(self, now: int) -> HangReport:
        """Diagnostics for a ``max_cycles`` exhaustion (same shape)."""
        issued = {}
        for key, _sm, warp in self._warp_keys():
            base = self._baseline_issued.get(key, warp.issued_instructions)
            issued[key] = warp.issued_instructions - base
        reason = f"exceeded max_cycles while {self.last_assessment}"
        self._emit_hang(cycle=now, hang_kind="timeout", reason=reason)
        return self._report(
            "timeout", now, now - self._window_start, reason, issued,
        )


# ----------------------------------------------------------------------
# InvariantChecker

class InvariantChecker:
    """Opt-in per-epoch micro-architectural sanity assertions.

    Catches simulator bugs close to their cause instead of as a wrong
    result (or hang) millions of cycles later.  Checked per live warp:

    * scoreboard-entry balance — every pending key names a register or
      predicate the program declares, and the entry count is bounded;
    * SIMT-stack depth bounds — 1 <= depth <= warp_size + 1 (each
      divergence splits lanes, so leaf groups cannot exceed lanes);
    * reconvergence sanity — entry masks are non-empty and match their
      cached lane counts, PCs and RPCs are within program bounds, and
      live lanes are a subset of the warp's initially-valid lanes.
    """

    def __init__(self, config) -> None:
        self.config = config

    def check(self, now: int, sms) -> None:
        for sm in sms:
            known = None
            for slot, warp in sm.warps.items():
                if warp.finished:
                    continue
                if known is None:
                    # The scoreboard is keyed by hazard key (``r:name``).
                    known = {key for instr in warp.program.instructions
                             for key in instr.hazard_keys}
                self._check_scoreboard(now, sm, slot, warp, known)
                self._check_stack(now, sm, slot, warp)

    def _fail(self, now: int, sm, slot: int, what: str) -> None:
        raise InvariantViolation(
            f"invariant violated at cycle {now} on SM{sm.sm_id} "
            f"warp slot {slot}: {what}"
        )

    def _check_scoreboard(self, now, sm, slot, warp, known) -> None:
        pending = warp.pending
        if len(pending) > len(known):
            self._fail(now, sm, slot,
                       f"scoreboard holds {len(pending)} entries for "
                       f"{len(known)} architectural names")
        for name, release in pending.items():
            if name not in known:
                self._fail(now, sm, slot,
                           f"scoreboard entry for unknown register {name!r}")
            if not isinstance(release, int) or release < 0:
                self._fail(now, sm, slot,
                           f"scoreboard release {release!r} for {name!r} "
                           "is not a non-negative cycle")

    def _check_stack(self, now, sm, slot, warp) -> None:
        entries = warp.stack.entries()
        depth = len(entries)
        if not 1 <= depth <= warp.stack.warp_size + 1:
            self._fail(now, sm, slot,
                       f"SIMT stack depth {depth} outside "
                       f"[1, {warp.stack.warp_size + 1}]")
        n_prog = len(warp.program)
        valid = warp.sregs["tid"] < warp.sregs["ntid"]
        for entry in entries:
            if not entry.mask.any():
                self._fail(now, sm, slot, "empty SIMT-stack entry mask")
            lanes = int(entry.mask.sum())
            if entry.n != lanes:
                self._fail(now, sm, slot,
                           f"SIMT-stack entry counts {entry.n} lanes, its "
                           f"mask holds {lanes}")
            if (entry.mask & ~valid).any():
                self._fail(now, sm, slot,
                           "SIMT-stack entry activates an invalid lane")
            if not (-1 <= entry.pc < n_prog):
                self._fail(now, sm, slot,
                           f"SIMT-stack pc {entry.pc} outside program")
            if not (-1 <= entry.rpc < n_prog):
                self._fail(now, sm, slot,
                           f"SIMT-stack rpc {entry.rpc} outside program")
