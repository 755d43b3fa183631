"""DDOS — Dynamic Detection Of Spinning (paper Section IV).

A thread is *spinning* between two dynamic instances of an instruction if
it executes the instruction twice without an observable change to net
system state (Li et al.).  Tracking every register of every GPU thread is
impractical, so DDOS approximates: per warp it profiles only the first
active thread, and only at ``setp`` instructions (which compute loop exit
conditions on NVIDIA GPUs), recording

* a *path history* of hashed ``setp`` PCs, and
* a *value history* of hashed ``setp`` source-operand values.

A repeating joint path+value pattern means the profiled thread is
re-evaluating the same exit condition over the same values — a spin.  The
detector locks onto a candidate period with the match pointer, requires
``period - 1`` further consecutive matches (the paper's *remaining
matches* counter), then marks the warp spinning; any mismatch clears the
state (Figure 7b step 5).

Warp spinning states feed a per-SM *spin-inducing branch prediction table*
(SIB-PT): a backward branch executed by a spinning warp gains confidence;
a backward branch taken by a non-spinning warp loses confidence (guarding
against hash aliasing).  A branch is predicted spin-inducing while its
confidence is at or above the threshold.

:func:`score_result` scores the engines' detection records against the
kernel's ``!sib`` annotations (Table I's per-kernel :class:`DetectionOutcome`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.isa.instructions import Instruction
from repro.isa.program import Program
from repro.obs.bus import emitter_for
from repro.obs.events import SIBCleared, SIBDetected
from repro.sim.config import DDOSConfig


def hash_xor(value: int, bits: int) -> int:
    """XOR-fold a 32-bit value into ``bits`` bits (paper Section IV-B).

    Folds successive ``bits``-wide slices of the value together, so
    changes anywhere in the word perturb the hash — this is what removes
    the MODULO scheme's blindness to high-order-bit-only changes.
    """
    value &= 0xFFFFFFFF
    mask = (1 << bits) - 1
    result = 0
    while value:
        result ^= value & mask
        value >>= bits
    return result


def hash_modulo(value: int, bits: int) -> int:
    """Keep the least-significant ``bits`` bits (paper's MODULO hashing).

    Blind to changes above bit ``bits-1`` — a ``for`` loop whose induction
    variable increments by a power of two ≥ ``2**bits`` looks value-stable
    and is falsely detected as a spin (paper Section VI-B, Figure 14).
    """
    return value & ((1 << bits) - 1)


_HASHES = {"xor": hash_xor, "modulo": hash_modulo}

#: One history event: (path hash, value hash of src0, value hash of src1).
_Entry = Tuple[int, int, int]


@dataclass
class _WarpHistory:
    """Path/value history registers and match FSM for one warp slot."""

    entries: Deque[_Entry]
    match_period: Optional[int] = None
    remaining_matches: int = 0
    spinning: bool = False

    def reset(self) -> None:
        self.entries.clear()
        self.match_period = None
        self.remaining_matches = 0
        self.spinning = False


@dataclass
class _BranchRecord:
    """SIB-PT entry plus detection-accuracy bookkeeping."""

    confidence: int = 0
    first_seen: Optional[int] = None
    last_seen: Optional[int] = None
    confirmed_at: Optional[int] = None


class DDOSEngine:
    """Per-SM DDOS unit: warp histories plus the shared SIB-PT."""

    def __init__(self, config: DDOSConfig, program: Program,
                 n_warp_slots: int, sm_id: int = 0, bus=None) -> None:
        self.config = config
        self.program = program
        self.sm_id = sm_id
        # Pre-bound event sinks (repro.obs): no per-decision branch on
        # "is observability attached?" — the disabled path is a no-op.
        self._emit_detected = emitter_for(bus, SIBDetected)
        self._emit_cleared = emitter_for(bus, SIBCleared)
        # A module-level function: pickles by reference in a checkpoint.
        self._hash = _HASHES[config.hashing]
        self._histories: Dict[int, _WarpHistory] = {
            slot: _WarpHistory(deque(maxlen=config.history_length))
            for slot in range(n_warp_slots)
        }
        #: SIB-PT: branch instruction index -> record.
        self.sib_pt: Dict[int, _BranchRecord] = {}
        #: All backward branches ever seen (for accuracy metrics).
        self._seen_branches: Dict[int, _BranchRecord] = {}
        self._n_warp_slots = n_warp_slots
        # Time-sharing state: which warp currently owns the (single)
        # history register set.
        self._shared_owner = 0
        self._shared_epoch_end = config.time_sharing_epoch

    # ------------------------------------------------------------------
    # Event hooks (called by the SM at execution)

    def on_setp(self, warp_slot: int, instr: Instruction,
                value0: int, value1: int, now: int) -> None:
        """Profiled thread executed a ``setp``: update histories."""
        history = self._history_for(warp_slot, now)
        if history is None:
            return
        cfg = self.config
        entry: _Entry = (
            self._hash(instr.index, cfg.path_bits),
            self._hash(int(value0), cfg.value_bits),
            self._hash(int(value1), cfg.value_bits),
        )
        self._insert(history, entry)

    def on_backward_branch(self, warp_slot: int, instr: Instruction,
                           taken_any: bool, now: int) -> None:
        """A warp executed a backward branch: update the SIB-PT."""
        record = self._seen_branches.setdefault(instr.index, _BranchRecord())
        if record.first_seen is None:
            record.first_seen = now
        record.last_seen = now

        spinning = self.warp_spinning(warp_slot)
        if spinning:
            entry = self._sib_pt_entry(instr.index)
            if entry is None:
                return
            entry.confidence += 1
            if entry.confidence == self.config.confidence_threshold:
                # Crossed the prediction threshold from below: the
                # branch is now predicted spin-inducing.
                self._emit_detected(
                    cycle=now, sm_id=self.sm_id, branch=instr.index,
                    confidence=entry.confidence,
                )
            if (
                entry.confidence >= self.config.confidence_threshold
                and entry.confirmed_at is None
            ):
                entry.confirmed_at = now
                record.confirmed_at = record.confirmed_at or now
        elif taken_any:
            entry = self.sib_pt.get(instr.index)
            if entry is not None and entry.confidence > 0:
                entry.confidence -= 1
                if entry.confidence == self.config.confidence_threshold - 1:
                    # Fell below the threshold: prediction turned off
                    # (the aliasing guard drained it).
                    self._emit_cleared(
                        cycle=now, sm_id=self.sm_id, branch=instr.index,
                    )

    # ------------------------------------------------------------------
    # Queries

    def warp_spinning(self, warp_slot: int) -> bool:
        history = self._current_history(warp_slot)
        return history.spinning if history is not None else False

    def is_sib(self, branch_index: int) -> bool:
        """Is this branch currently predicted spin-inducing?"""
        entry = self.sib_pt.get(branch_index)
        return (
            entry is not None
            and entry.confidence >= self.config.confidence_threshold
        )

    def predicted_sibs(self) -> Set[int]:
        """Branches this engine ever confirmed as spin-inducing.

        The live prediction (:meth:`is_sib`) follows the confidence
        counter up *and* down — after a kernel's spinning phase ends,
        the aliasing guard legitimately drains confidence.  For
        reporting and accuracy scoring, "was confirmed at any point"
        is the meaningful notion.
        """
        return {
            index
            for index, record in self._seen_branches.items()
            if record.confirmed_at is not None
        }

    def detection_records(self) -> Dict[int, _BranchRecord]:
        """Bookkeeping for accuracy metrics (TSDR/FSDR/DPR)."""
        return dict(self._seen_branches)

    # ------------------------------------------------------------------
    # Internals

    def _history_for(self, warp_slot: int, now: int) -> Optional[_WarpHistory]:
        """History registers for a warp, honoring time-sharing."""
        if not self.config.time_sharing:
            return self._histories[warp_slot]
        # One physical register set, rotated among warps each epoch.
        while now >= self._shared_epoch_end:
            self._shared_epoch_end += self.config.time_sharing_epoch
            self._shared_owner = (self._shared_owner + 1) % self._n_warp_slots
            self._histories[0].reset()
        if warp_slot != self._shared_owner:
            return None
        return self._histories[0]

    def _current_history(self, warp_slot: int) -> Optional[_WarpHistory]:
        if not self.config.time_sharing:
            return self._histories[warp_slot]
        if warp_slot != self._shared_owner:
            return None
        return self._histories[0]

    def _insert(self, history: _WarpHistory, entry: _Entry) -> None:
        """Shift in a new history entry and run the match FSM."""
        entries = history.entries
        if history.match_period is not None:
            period = history.match_period
            if len(entries) >= period and entries[period - 1] == entry:
                # entries[period-1] is the event one full period ago.
                if history.remaining_matches > 0:
                    history.remaining_matches -= 1
                if history.remaining_matches == 0:
                    history.spinning = True
                entries.appendleft(entry)
                return
            # Mismatch: the FSM resets (match pointer / remaining matches
            # cleared, spinning state lost); the shift registers keep
            # their contents, as in Figure 7b step 5.  Fall through to
            # candidate-period search with the new entry.
            history.match_period = None
            history.remaining_matches = 0
            history.spinning = False

        entries.appendleft(entry)
        # Look for the most recent earlier occurrence of this entry: its
        # distance is the candidate period (the match pointer).
        for distance in range(1, len(entries)):
            if entries[distance] == entry:
                history.match_period = distance
                history.remaining_matches = max(distance - 1, 1)
                return

    def _sib_pt_entry(self, branch_index: int) -> Optional[_BranchRecord]:
        """SIB-PT entry for a branch, allocating (with eviction) if needed."""
        entry = self.sib_pt.get(branch_index)
        if entry is not None:
            return entry
        if len(self.sib_pt) >= self.config.sib_pt_entries:
            victim = min(self.sib_pt, key=lambda i: self.sib_pt[i].confidence)
            if self.sib_pt[victim].confidence > 0:
                return None  # table full of useful entries; drop the update
            del self.sib_pt[victim]
        entry = _BranchRecord(confidence=0)
        self.sib_pt[branch_index] = entry
        return entry


@dataclass
class DetectionOutcome:
    """Per-kernel detection scoring."""

    kernel: str
    true_sibs: int
    detected_true: int
    false_candidates: int
    detected_false: int
    true_dprs: List[float] = field(default_factory=list)
    false_dprs: List[float] = field(default_factory=list)

    @property
    def tsdr(self) -> Optional[float]:
        if self.true_sibs == 0:
            return None
        return self.detected_true / self.true_sibs

    @property
    def fsdr(self) -> Optional[float]:
        if self.false_candidates == 0:
            return None
        return self.detected_false / self.false_candidates


def score_result(kernel: str, result) -> DetectionOutcome:
    """Score a finished run's (a :class:`~repro.sim.gpu.SimResult`) DDOS
    predictions against the program's ``!sib`` ground truth.

    A branch counts as detected if *any* SM's DDOS engine confirmed it.
    Candidate set for false detections = all backward branches executed
    that are not annotated ``!sib``.
    """
    program = result.launch.program
    truth = program.true_sibs()

    confirmed: Dict[int, Tuple[int, int, int]] = {}
    seen: Dict[int, Tuple[int, int]] = {}
    for engine in result.ddos_engines:
        for index, record in engine.detection_records().items():
            first, last = record.first_seen, record.last_seen
            if index in seen:
                first = min(first, seen[index][0])
                last = max(last, seen[index][1])
            seen[index] = (first, last)
            if record.confirmed_at is not None:
                if (
                    index not in confirmed
                    or record.confirmed_at < confirmed[index][0]
                ):
                    confirmed[index] = (record.confirmed_at, first, last)

    outcome = DetectionOutcome(
        kernel=kernel,
        true_sibs=len(truth),
        detected_true=0,
        false_candidates=0,
        detected_false=0,
    )
    for index, (first, last) in seen.items():
        is_true = index in truth
        detected = index in confirmed
        if is_true:
            if detected:
                outcome.detected_true += 1
        else:
            outcome.false_candidates += 1
            if detected:
                outcome.detected_false += 1
        if detected:
            confirmed_at = confirmed[index][0]
            span = max(last - first, 1)
            dpr = max(confirmed_at - first, 0) / span
            (outcome.true_dprs if is_true else outcome.false_dprs).append(dpr)
    return outcome
