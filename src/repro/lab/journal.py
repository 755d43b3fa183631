"""Append-only sweep journal: the durable record that makes sweeps resumable.

A journal is a JSONL file, one self-describing record per line, written
with flush + fsync so every completed record survives a SIGKILL of the
writer (a torn final line is tolerated and skipped on load).  Records:

``{"type": "spec", "hash": ..., "spec": {...}, "label": ...}``
    One per sweep item, written up front — the journal alone is enough
    to rebuild the full spec list via :meth:`RunSpec.from_dict`.
``{"type": "done", "hash": ..., "from_cache": bool, "cycles": int}``
    A spec produced a result (served from cache or freshly executed).
``{"type": "failed", "hash": ..., "error_type": ..., "transient": bool}``
    A spec exhausted its attempts.
``{"type": "note", ...}``
    Free-form progress marks (interruption, resume, worker loss).

``repro sweep --journal j.jsonl`` writes one; after a crash,
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
from typing import Any, Dict, Iterator, List, Optional

from repro.lab.spec import RunSpec, _json_default


class JournalError(RuntimeError):
    """The journal could not be read or does not describe a sweep."""


class SweepJournal:
    """Appendable journal handle (open for the duration of a batch)."""

    def __init__(self, path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        # Specs an earlier writer already journaled are not re-recorded.
        self._spec_hashes = set()
        if self.path.stat().st_size:
            for record in _read_records(self.path):
                if (isinstance(record, dict) and record.get("type") == "spec"
                        and "hash" in record):
                    self._spec_hashes.add(record["hash"])

    # -- writing --------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, default=_json_default)
        # One writer at a time: the serve daemon journals from its
        # client threads and its dispatcher through one handle.
        with self._lock:
            self._handle.write(line + "\n")
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def record_spec(self, spec: RunSpec) -> None:
        """Journal the spec itself (idempotent across resumes)."""
        spec_hash = spec.content_hash()
        if spec_hash in self._spec_hashes:
            return
        self._spec_hashes.add(spec_hash)
        self._append({
            "type": "spec",
            "hash": spec_hash,
            "label": spec.label,
            "spec": spec.to_dict(),
        })

    def record_done(self, spec_hash: str, from_cache: bool,
                    cycles: int) -> None:
        self._append({
            "type": "done",
            "hash": spec_hash,
            "from_cache": bool(from_cache),
            "cycles": int(cycles),
        })

    def record_failed(self, spec_hash: str, error_type: str,
                      transient: bool) -> None:
        self._append({
            "type": "failed",
            "hash": spec_hash,
            "error_type": error_type,
            "transient": bool(transient),
        })

    def record_outcome(self, outcome) -> None:
        """Journal a terminal record: a ``RunResult`` as ``done``, a
        ``RunFailure`` as ``failed``."""
        if outcome.ok:
            self.record_done(outcome.spec_hash, outcome.from_cache,
                             outcome.cycles)
        else:
            self.record_failed(outcome.spec_hash, outcome.error_type,
                               outcome.transient)

    def record_note(self, note: str, **detail: Any) -> None:
        self._append({"type": "note", "note": note, **detail})

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
            journal.record_note(note, **detail)
        yield journal


@dataclass
class JournalState:
    """Parsed view of a journal (``load_journal``)."""

    path: str
    #: spec hash -> rebuilt RunSpec, in first-seen order.
    specs: Dict[str, RunSpec] = field(default_factory=dict)
    #: spec hashes with a ``done`` record.
    done: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: spec hash -> last ``failed`` record.
    failed: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    notes: List[Dict[str, Any]] = field(default_factory=list)
    #: Lines that could not be parsed (at most the torn final line of a
    #: killed writer under normal operation).
    skipped_lines: int = 0

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.done.values() if r.get("from_cache"))

    @property
    def executed(self) -> int:
        return sum(1 for r in self.done.values() if not r.get("from_cache"))

    @property
    def pending(self) -> List[RunSpec]:
        """Specs with no ``done`` record yet (what a resume must run)."""
        return [spec for spec_hash, spec in self.specs.items()
                if spec_hash not in self.done]

    def all_specs(self) -> List[RunSpec]:
        return list(self.specs.values())


def _read_records(path: Path):
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except ValueError:
                yield None  # torn tail from a killed writer


def load_journal(path) -> JournalState:
    """Parse a journal; tolerates (and counts) a torn final line."""
    path = Path(path)
    if not path.is_file():
        raise JournalError(f"no sweep journal at {path}")
    state = JournalState(path=str(path))
    for record in _read_records(path):
        if record is None or not isinstance(record, dict):
            state.skipped_lines += 1
            continue
        kind = record.get("type")
        if kind == "spec":
            spec_hash = record.get("hash")
            if spec_hash and spec_hash not in state.specs:
                try:
                    state.specs[spec_hash] = RunSpec.from_dict(
                        record["spec"], label=record.get("label"),
                    )
                except (KeyError, TypeError, ValueError):
                    state.skipped_lines += 1
        elif kind == "done":
            state.done[record.get("hash")] = record
        elif kind == "failed":
            state.failed[record.get("hash")] = record
        elif kind == "note":
            state.notes.append(record)
        else:
            state.skipped_lines += 1
    if not state.specs:
        raise JournalError(
            f"{path} contains no spec records — is it a sweep journal?"
        )
    return state


__all__ = [
    "JournalError",
    "JournalState",
    "SweepJournal",
    "load_journal",
    "open_journal",
]
