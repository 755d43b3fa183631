"""The host record: one versioned JSONL format, one writer, one reader.

Every JSONL line the host writes about its runs — the sweep and serve
journals and the worker's per-job progress spool — is built by
:func:`record` as ``{"v": 1, "kind": K, ...}`` with exactly the keys
:data:`RECORD_KEYS` names for ``K``.
:meth:`SweepJournal.append` is the one writer (flush + fsync per line,
so every completed line survives a SIGKILL of the writer; the advisory
spool skips the fsync) and :func:`read_records` the one reader (a torn
final line is left for the next call; a line that is not a v1 record of
a known kind is skipped and counted).

A run's outcome is a record wherever it goes: a result is its
``result`` record in the cache entry and on the serve wire, a failure
its ``failed`` record in the journal and on the wire.  :func:`check` is
the one test of a record's version, kind and key set.

Whatever the host narrates is one of these records too (``done``,
``failed`` or ``note``), and :func:`render` alone turns it into text.

``repro sweep --journal j.jsonl`` writes a journal; after a crash,
``repro sweep --resume j.jsonl`` rebuilds the specs from it and re-runs
the batch — finished specs come back as result-cache hits (recorded as
``from_cache`` done records), so nothing completed is ever recomputed.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.lab.spec import RunSpec, _json_default

#: Version of the record layout: readers skip any other.
RECORD_VERSION = 1

#: Exactly the keys of each record kind besides ``v`` and ``kind``.
#: Frozen: changing a set requires a version bump.
RECORD_KEYS: Dict[str, Tuple[str, ...]] = {
    # The journal: a batch's specs (enough to rebuild each one), their
    # outcomes (``hang``: the inline HangReport) and batch/daemon notes.
    "spec": ("hash", "label", "spec"),
    "done": ("hash", "from_cache", "cycles", "attempts", "elapsed_s"),
    "failed": ("hash", "error_type", "message", "transient", "attempts",
               "elapsed_s", "hang"),
    # A result in full: the cache entry's body and the wire's payload.
    "result": ("hash", "cycles", "stats", "predicted_sibs", "ddos",
               "elapsed_s", "phases", "obs", "sanitizer"),
    "note": ("note", "detail"),
    # The progress spool: worker marks, obs rows and decision events.
    # A note's or a mark's fields vary, so they nest under ``detail``.
    "lifecycle": ("phase", "detail"),
    "sample": ("row",),
    "event": ("event",),
    "event_gap": ("skipped",),
}

_LINE_KEYS = {kind: {"v", "kind", *keys} for kind, keys in RECORD_KEYS.items()}


class JournalError(RuntimeError):
    """The journal could not be read or does not describe a sweep."""


def check(line: Any, kind: Optional[str] = None) -> Dict[str, Any]:
    """``line`` if it is a v1 record of a known kind (of ``kind``, when
    given) with exactly that kind's keys; else ``ValueError`` naming the
    version, the kind or the missing and extra keys."""
    if not isinstance(line, dict):
        raise ValueError(f"expected a v{RECORD_VERSION} record object, "
                         f"got {type(line).__name__}")
    if line.get("v") != RECORD_VERSION:
        raise ValueError(f"record version {line.get('v')!r}, expected "
                         f"{RECORD_VERSION}")
    got = line.get("kind")
    if kind is not None and got != kind:
        raise ValueError(f"expected a {kind!r} record, got {got!r}")
    expected = _LINE_KEYS.get(got) if isinstance(got, str) else None
    if expected is None:
        raise ValueError(f"unknown record kind {got!r}")
    if line.keys() != expected:
        raise ValueError(
            f"{got!r} record: expected keys {sorted(RECORD_KEYS[got])}; "
            f"missing {sorted(expected - line.keys())}, "
            f"unexpected {sorted(line.keys() - expected)}")
    return line


def record(kind: str, **fields: Any) -> Dict[str, Any]:
    """One v1 record of ``kind``; ``ValueError`` unless ``fields`` is
    exactly that kind's key set."""
    return check({"v": RECORD_VERSION, "kind": kind, **fields}, kind)


def note_record(note: str, **detail: Any) -> Dict[str, Any]:
    """A ``note`` record: the fact's name and its fields."""
    return record("note", note=note, detail=detail)


def outcome_record(outcome) -> Dict[str, Any]:
    """A ``RunResult`` as its ``done`` record, a ``RunFailure`` as its
    ``failed`` record."""
    common = dict(hash=outcome.spec_hash, attempts=outcome.attempts,
                  elapsed_s=round(outcome.elapsed_s, 3))
    if outcome.ok:
        return record("done", **common, from_cache=outcome.from_cache,
                      cycles=outcome.cycles)
    return record("failed", **common, error_type=outcome.error_type,
                  message=outcome.message, hang=outcome.hang,
                  transient=outcome.transient)


#: How a note reads on a progress line: a ``str.format`` template over
#: its ``detail``; any other note reads as its name and ``key=value``\ s.
NOTE_LINES: Dict[str, str] = {
    # The execution core's decisions (the first three are journaled).
    "worker_lost": "worker died (requeued={requeued})",
    "retry": "transient {error_type}, retrying in {backoff_s:.2f}s",
    "straggler": "straggler ({running_s:.1f}s > {budget_s:.1f}s budget; "
                 "in-worker alarm missing?)",
    "write_failed": "{write} failed, continuing without it: "
                    "{error_type}: {message}",
    # The front ends.
    "signal": "signal received: draining (repeat to abort immediately)",
    "submit": "{status} as {job} (client {client})",
    "serve_start": "serving on {address} ({workers} {mode} workers)",
    "serve_exit": "stopped (abort={abort}, interrupted={interrupted})",
}


def render(line: Dict[str, Any], name: Optional[str] = None) -> str:
    """The one progress line for a ``done``, ``failed`` or ``note``
    record; ``name`` is the display name of the spec it is about."""
    if line["kind"] == "note":
        template, detail = NOTE_LINES.get(line["note"]), line["detail"]
        text = (template.format(**detail) if template else " ".join(
            [line["note"], *(f"{k}={v}" for k, v in detail.items())]))
    elif line["kind"] == "failed":
        text = f"FAILED ({line['error_type']})"
    elif line["from_cache"]:
        text = "cached"
    else:
        text = f"ok ({line['cycles']} cycles, {line['elapsed_s']:.1f}s)"
    return text if name is None else f"{name}: {text}"


def read_records(path, offset: int = 0
                 ) -> Tuple[List[Dict[str, Any]], int, int]:
    """Read the complete lines of ``path`` from byte ``offset`` on.

    Returns ``(records, end, skipped)``: the v1 records read, the offset
    after the last complete line (a torn final line stays unconsumed for
    the next call) and how many lines were not a v1 record of a known
    kind.  Blank lines are ignored.
    """
    with open(path, "rb") as handle:
        handle.seek(offset)
        chunk = handle.read()
    lines = chunk.split(b"\n")
    torn = lines.pop()
    records, skipped = [], 0
    for line in lines:
        if not line.strip():
            continue
        try:
            records.append(check(json.loads(line)))
        except ValueError:
            skipped += 1
    return records, offset + len(chunk) - len(torn), skipped


class SweepJournal:
    """Appendable journal handle (open for the duration of a batch)."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        size = self._handle.tell()
        records, end, _ = read_records(self.path) if size else ([], 0, 0)
        # Specs an earlier writer already journaled are not re-recorded.
        self._spec_hashes = {r["hash"] for r in records
                             if r["kind"] == "spec"}
        if end < size:                      # a killed writer's torn line
            self._handle.write("\n")       # ends here, not in ours

    # -- writing --------------------------------------------------------

    def append(self, line: Dict[str, Any], durable: bool = True) -> None:
        """Write one :func:`record`; ``durable`` adds the fsync (the
        progress spool is advisory and goes without)."""
        text = json.dumps(line, separators=(",", ":"),
                          default=_json_default) + "\n"
        # One writer at a time: the serve daemon journals from its
        # client threads and its dispatcher through one handle.
        with self._lock:
            self._handle.write(text)
            self._handle.flush()
            if durable:
                os.fsync(self._handle.fileno())

    def record_spec(self, spec: RunSpec) -> None:
        """Journal the spec itself (idempotent across resumes)."""
        spec_hash = spec.content_hash()
        if spec_hash in self._spec_hashes:
            return
        self.append(record("spec", hash=spec_hash, label=spec.label,
                           spec=spec.to_dict()))
        self._spec_hashes.add(spec_hash)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@contextlib.contextmanager
def open_journal(journal, note: str,
                 **detail: Any) -> Iterator[Optional[SweepJournal]]:
    """``journal`` — a path, a live :class:`SweepJournal`, or ``None`` —
    as an open journal that ``note`` has been written to.

    A path is opened here and closed on exit; a live journal is the
    caller's to close, and ``None`` stays ``None``.
    """
    with contextlib.ExitStack() as stack:
        if journal is not None:
            if not isinstance(journal, SweepJournal):
                journal = stack.enter_context(SweepJournal(journal))
            journal.append(note_record(note, **detail))
        yield journal


@dataclass
class JournalState:
    """Parsed view of a journal (``load_journal``)."""

    path: str
    #: spec hash -> rebuilt RunSpec, in first-seen order.
    specs: Dict[str, RunSpec] = field(default_factory=dict)
    #: spec hash -> last ``done`` record.
    done: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: spec hash -> last ``failed`` record.
    failed: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    notes: List[Dict[str, Any]] = field(default_factory=list)
    #: Lines that are not a readable v1 record (at most the torn final
    #: line of a killed writer under normal operation).
    skipped_lines: int = 0
    #: kind -> count of v1 records no journal holds (progress-spool kinds).
    unknown_kinds: Dict[str, int] = field(default_factory=dict)

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.done.values() if r["from_cache"])

    @property
    def executed(self) -> int:
        return sum(1 for r in self.done.values() if not r["from_cache"])

    @property
    def pending(self) -> List[RunSpec]:
        """Specs with no ``done`` record yet (what a resume must run)."""
        return [spec for spec_hash, spec in self.specs.items()
                if spec_hash not in self.done]


def load_journal(path) -> JournalState:
    """Parse a journal; tolerates (and counts) unreadable lines."""
    path = Path(path)
    if not path.is_file():
        raise JournalError(f"no sweep journal at {path}")
    records, end, skipped = read_records(path)
    # Read once and to the end: an unconsumed tail is a torn line.
    state = JournalState(path=str(path), skipped_lines=skipped
                         + (end < path.stat().st_size))
    for rec in records:
        kind = rec["kind"]
        if kind == "spec":
            if rec["hash"] not in state.specs:
                try:
                    state.specs[rec["hash"]] = RunSpec.from_dict(
                        rec["spec"], label=rec["label"])
                except (KeyError, TypeError, ValueError):
                    state.skipped_lines += 1
        elif kind in ("done", "failed"):
            getattr(state, kind)[rec["hash"]] = rec
        elif kind == "note":
            state.notes.append(rec)
        else:
            state.unknown_kinds[kind] = state.unknown_kinds.get(kind, 0) + 1
    if not state.specs:
        raise JournalError(f"{path} contains no spec records — " + (
            f"{state.skipped_lines} unreadable line(s): a journal that "
            f"predates record v{RECORD_VERSION} is not read; re-running the "
            f"sweep against the same cache recomputes nothing"
            if state.skipped_lines else "is it a sweep journal?"))
    return state


__all__ = [
    "JournalError",
    "JournalState",
    "NOTE_LINES",
    "RECORD_KEYS",
    "RECORD_VERSION",
    "SweepJournal",
    "check",
    "load_journal",
    "note_record",
    "open_journal",
    "outcome_record",
    "read_records",
    "record",
    "render",
]
