"""Typed observability events: the decisions the paper's figures hinge on.

Every event is a small frozen dataclass whose first field is the
simulated ``cycle`` it occurred at.  The taxonomy mirrors the paper's
narrative causally, not just statistically:

* **DDOS transitions** — :class:`SIBDetected` / :class:`SIBCleared`
  record a branch's SIB-PT confidence crossing the prediction threshold
  in either direction (Section IV): *when* was a spin-inducing branch
  flagged, and did the aliasing guard ever un-flag it?
* **BOWS scheduling** — :class:`BackoffEnter` / :class:`BackoffExit`
  bracket each warp's stay in the backed-off queue (Figure 8 / the
  Figure 11 occupancy curve is the integral of these intervals);
  :class:`AdaptiveDelayUpdate` records each window decision of the
  adaptive delay controller (Figure 5 / Figure 10).
* **Synchronization outcomes** — :class:`LockAcquireSuccess` /
  :class:`LockAcquireFail` are the per-attempt version of the Figure
  2/12 aggregate counters; :class:`BarrierArrive` /
  :class:`BarrierRelease` time CTA barrier episodes.
* **Forensics** — :class:`HangSuspected` marks the forward-progress
  guard classifying (or suspecting) a hang.
* **The issue stream** — :class:`Issue`, one per issued warp
  instruction, recorded only on request and in a ring of its own
  (``Observability.issues``) so it never evicts a decision event.

Events are plain data: :func:`event_to_dict` / :func:`format_event`
are the only serialization surface, used by profile reports, the
progress spool, and :class:`~repro.sim.progress.HangReport` tails.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Tuple


@dataclass(frozen=True)
class SIBDetected:
    """A branch's SIB-PT confidence rose to the prediction threshold."""

    kind = "sib_detected"
    cycle: int
    sm_id: int
    branch: int
    confidence: int


@dataclass(frozen=True)
class SIBCleared:
    """A branch's SIB-PT confidence fell back below the threshold
    (the aliasing guard drained it — paper Section IV-C)."""

    kind = "sib_cleared"
    cycle: int
    sm_id: int
    branch: int


@dataclass(frozen=True)
class BackoffEnter:
    """A warp executed a spin-inducing branch and joined the
    backed-off queue (deprioritized until no normal warp can issue)."""

    kind = "backoff_enter"
    cycle: int
    sm_id: int
    warp_slot: int
    cta_id: int


@dataclass(frozen=True)
class BackoffExit:
    """A backed-off warp issued and reverted to normal priority; its
    pending back-off delay runs until ``delay_until``."""

    kind = "backoff_exit"
    cycle: int
    sm_id: int
    warp_slot: int
    cta_id: int
    delay_until: int


@dataclass(frozen=True)
class AdaptiveDelayUpdate:
    """The adaptive controller closed a window and chose a new delay
    limit (``direction`` is the controller's current search direction)."""

    kind = "adaptive_delay_update"
    cycle: int
    sm_id: int
    delay_limit: int
    window_total: int
    window_sib: int
    direction: int


@dataclass(frozen=True)
class LockAcquireSuccess:
    """One lane's lock-try CAS succeeded (it now holds the lock)."""

    kind = "lock_acquire_success"
    cycle: int
    sm_id: int
    warp_slot: int
    addr: int
    lane: int


@dataclass(frozen=True)
class LockAcquireFail:
    """One lane's lock-try CAS failed; ``conflict`` classifies the
    holder as ``"intra"``- or ``"inter"``-warp (Figures 2/12)."""

    kind = "lock_acquire_fail"
    cycle: int
    sm_id: int
    warp_slot: int
    addr: int
    lane: int
    conflict: str


@dataclass(frozen=True)
class BarrierArrive:
    """A warp issued ``bar.sync`` and is now waiting at its CTA barrier."""

    kind = "barrier_arrive"
    cycle: int
    sm_id: int
    cta_id: int
    warp_slot: int


@dataclass(frozen=True)
class BarrierRelease:
    """Every live warp of the CTA arrived; ``released`` warps resume."""

    kind = "barrier_release"
    cycle: int
    sm_id: int
    cta_id: int
    released: int


@dataclass(frozen=True)
class HangSuspected:
    """The forward-progress guard classified (or suspects) a hang."""

    kind = "hang_suspected"
    cycle: int
    hang_kind: str
    reason: str


@dataclass(frozen=True)
class SanitizerFinding:
    """The dynamic sanitizer recorded a new diagnostic (first occurrence
    of a ``SAN*`` id at this pc — see ``docs/analysis.md``)."""

    kind = "sanitizer"
    cycle: int
    diag_id: str
    severity: str
    pc: int
    warp_slot: int


@dataclass(frozen=True)
class CheckpointSaved:
    """The simulation's complete machine state was written to disk at an
    epoch boundary (see :mod:`repro.sim.checkpoint`)."""

    kind = "checkpoint_saved"
    cycle: int
    path: str
    size_bytes: int


@dataclass(frozen=True)
class RunResumed:
    """A simulation was restored from a checkpoint instead of restarting
    from cycle 0 (``cycle`` is the resume point)."""

    kind = "run_resumed"
    cycle: int
    path: str
    spec_hash: str


@dataclass(frozen=True)
class Issue:
    """One issued warp instruction; ``backed_off`` is the BOWS state the
    warp was selected in."""

    kind = "issue"
    cycle: int
    sm_id: int
    warp_slot: int
    cta_id: int
    pc: int
    opcode: str
    active_lanes: int
    backed_off: bool

    def __str__(self) -> str:
        flags = " B" if self.backed_off else ""
        return (
            f"[{self.cycle:>8}] SM{self.sm_id} w{self.warp_slot:02d} "
            f"cta{self.cta_id} pc={self.pc:<4} {self.opcode:<12} "
            f"lanes={self.active_lanes}{flags}"
        )


#: Every event type, in taxonomy order (reporting / docs / tests).
EVENT_TYPES: Tuple[type, ...] = (
    SIBDetected,
    SIBCleared,
    BackoffEnter,
    BackoffExit,
    AdaptiveDelayUpdate,
    LockAcquireSuccess,
    LockAcquireFail,
    BarrierArrive,
    BarrierRelease,
    HangSuspected,
    SanitizerFinding,
    CheckpointSaved,
    RunResumed,
    Issue,
)

#: kind string -> event class (deserialization).
EVENT_KINDS: Dict[str, type] = {cls.kind: cls for cls in EVENT_TYPES}


def event_to_dict(event: Any) -> Dict[str, Any]:
    """JSON-ready dict: the event's fields plus its ``"event"`` kind."""
    data = dataclasses.asdict(event)
    data["event"] = event.kind
    return data


def event_from_dict(data: Dict[str, Any]) -> Any:
    """Rebuild an event from :func:`event_to_dict` output."""
    data = dict(data)
    cls = EVENT_KINDS[data.pop("event")]
    return cls(**data)


def format_event(event: Any) -> str:
    """One-line human rendering (hang-report tails, profile logs)."""
    fields = dataclasses.asdict(event)
    cycle = fields.pop("cycle")
    detail = " ".join(f"{k}={v}" for k, v in fields.items())
    return f"[{cycle:>8}] {event.kind} {detail}"
