"""On-disk content-addressed result cache (durable, concurrency-safe).

Entries live under ``<cache_dir>/<code_fingerprint>/<spec_hash>.json``.
The spec hash covers everything that determines a simulation's outcome
(kernel, params, seed, full GPU config); the code fingerprint
(:func:`repro.sim.checkpoint.code_fingerprint`) covers the code that
computes it — a SHA-256 over the simulator layer and the lab modules
that run a spec and encode its result — so editing any of that source
invalidates prior results wholesale rather than serving stale numbers,
while an edit above it (the daemon, the CLI, the harness) keeps them.

Durability guarantees (see ``docs/robustness.md``):

* **Atomic writes** — every entry goes through temp file +
  ``os.replace``, so concurrent sweep workers, parallel pytest sessions,
  and multiple Runners can share one cache directory without ever
  exposing a half-written entry.
* **Checksummed reads** — entries embed a SHA-256 over the canonical
  JSON body; :meth:`ResultCache.get` verifies it — once per
  file version: a cache object remembers what it verified until the
  file's ``(inode, size, mtime)`` changes — and treats any mismatch
  (torn write, bit rot, hand-editing), and any entry filed under a hash
  or code fingerprint that is not its own, as a miss.  Never a crash,
  never a silently wrong result.
* **Quarantine** — a corrupt entry is moved to
  ``<cache_dir>/quarantine/`` rather than deleted or overwritten in
  place, preserving the evidence; :meth:`ResultCache.verify` (surfaced
  as ``repro cache verify [--repair]``) scans the whole store.
* **Multi-file mutations lock** — quarantine moves, repair scans, and
  ``clear`` hold an advisory :class:`~repro.lab.locking.FileLock` on
  ``<cache_dir>/.lock``, so two processes never fight over the same
  files (single-entry put/get need no lock thanks to the atomic
  rename).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.lab.locking import FileLock, LockTimeout
from repro.lab.results import RunResult
from repro.lab.spec import RunSpec, _json_default
from repro.sim.checkpoint import code_fingerprint

#: Default cache location (relative to the current working directory);
#: override with the REPRO_LAB_CACHE_DIR environment variable.
DEFAULT_CACHE_DIR = ".lab_cache"

#: Entry payload schema version.  v2 added the content checksum; an
#: entry without one is a defect like any other.
ENTRY_VERSION = 2

#: Subdirectory corrupt entries are moved into (never deleted).
QUARANTINE_DIR = "quarantine"

#: Bounds of a cache object's memo of verified entries: how many it
#: holds (oldest dropped first) and the largest entry file it keeps —
#: an obs-heavy result is simply verified on every read.
MEMO_ENTRIES = 512
MEMO_MAX_BYTES = 32 * 1024


def _canonical_body(body) -> bytes:
    """Deterministic JSON serialization the checksum is computed over.

    Written entries embed exactly this text, so re-serializing the
    parsed body on read reproduces the checksummed bytes bit-for-bit.
    """
    return json.dumps(
        body, sort_keys=True, separators=(",", ":"), default=_json_default,
    ).encode("utf-8")


class EntryDefect(Exception):
    """A file in the store is not an intact entry for its slot."""


def _signature(stat: os.stat_result) -> Tuple[int, int, int]:
    """What identifies one version of an entry file: ``os.replace``
    brings a new inode, an in-place rewrite a new size or mtime."""
    return stat.st_ino, stat.st_size, stat.st_mtime_ns


def default_cache_dir() -> Path:
    return Path(os.environ.get("REPRO_LAB_CACHE_DIR", DEFAULT_CACHE_DIR))


@dataclass
class CacheStats:
    """Summary for ``repro cache stats``."""

    directory: str
    entries: int
    size_bytes: int
    current_entries: int
    stale_entries: int
    fingerprint: str
    quarantined_entries: int = 0

    def render(self) -> str:
        mib = self.size_bytes / (1024 * 1024)
        text = (
            f"cache directory : {self.directory}\n"
            f"entries         : {self.entries} ({mib:.2f} MiB)\n"
            f"  current code  : {self.current_entries}\n"
            f"  stale code    : {self.stale_entries}\n"
            f"code fingerprint: {self.fingerprint[:16]}"
        )
        if self.quarantined_entries:
            text += f"\nquarantined     : {self.quarantined_entries}"
        return text


@dataclass
class EntryReport:
    """Integrity report for one cache entry (``repro cache verify``)."""

    path: str
    spec_hash: str
    size_bytes: int
    #: ``ok`` | ``corrupt`` | ``stale`` (different code fingerprint;
    #: not integrity-checked).
    status: str
    detail: str = ""


@dataclass
class VerifyReport:
    """Whole-store integrity scan (``repro cache verify [--repair]``)."""

    directory: str
    entries: List[EntryReport] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)

    @property
    def corrupt(self) -> List[EntryReport]:
        return [e for e in self.entries if e.status == "corrupt"]

    @property
    def ok(self) -> bool:
        return not self.corrupt

    def render(self, verbose: bool = False) -> str:
        lines = [f"cache directory : {self.directory}"]
        counts = {}
        for entry in self.entries:
            counts[entry.status] = counts.get(entry.status, 0) + 1
        summary = ", ".join(
            f"{n} {status}" for status, n in sorted(counts.items())
        ) or "empty"
        lines.append(f"scanned         : {len(self.entries)} ({summary})")
        if verbose:
            for entry in self.entries:
                detail = f"  {entry.detail}" if entry.detail else ""
                lines.append(
                    f"  {entry.status:9s} {entry.size_bytes:>10,} B  "
                    f"{entry.spec_hash[:16]}{detail}"
                )
        else:
            for entry in self.corrupt:
                lines.append(f"  CORRUPT {entry.path}: {entry.detail}")
        for moved in self.quarantined:
            lines.append(f"  quarantined -> {moved}")
        return "\n".join(lines)


class ResultCache:
    """Content-addressed store of :class:`RunResult` records."""

    def __init__(self, directory=None,
                 fingerprint: Optional[str] = None) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        self._fingerprint = fingerprint
        #: spec hash -> (file signature, ``result`` JSON text) of entries
        #: this object has verified; see :meth:`get`.
        self._verified: Dict[str, Tuple[tuple, str]] = {}
        self._verified_lock = threading.Lock()

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = code_fingerprint()
        return self._fingerprint

    def _entry_path(self, spec_hash: str) -> Path:
        return self.directory.joinpath(self.fingerprint[:16],
                                       f"{spec_hash}.json")

    def lock(self, timeout_s: float = 30.0) -> FileLock:
        """The store-wide advisory lock guarding multi-file mutations."""
        return FileLock(self.directory / ".lock", timeout_s=timeout_s)

    # ------------------------------------------------------------------
    # Entry integrity

    @staticmethod
    def _check_entry(payload) -> Optional[str]:
        """Return None when ``payload`` is intact, else a defect string."""
        if not isinstance(payload, dict) or "result" not in payload:
            return "entry is not a result record"
        checksum = payload.get("checksum")
        if checksum is None:
            return "entry is missing its checksum"
        body = {k: v for k, v in payload.items()
                if k not in ("checksum", "version")}
        actual = hashlib.sha256(_canonical_body(body)).hexdigest()
        if actual != checksum:
            return "checksum mismatch (torn write or modified entry)"
        return None

    def _load_entry(self, path: Path, spec_hash: str):
        """The one decision "is this file an intact entry for this hash".

        Returns ``(payload, result, fstat of the file read)``.  Raises
        ``OSError`` when the file cannot be read and
        :class:`EntryDefect` when what it holds is damaged or does not
        belong at ``path`` — a checksum says a body is whole, not that
        it answers the question asked.
        """
        with open(path, "rb") as handle:
            stat = os.fstat(handle.fileno())
            raw = handle.read()
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            raise EntryDefect(f"entry is not valid JSON: {exc}") from None
        defect = self._check_entry(payload)
        if defect is not None:
            raise EntryDefect(defect)
        try:
            result = RunResult.from_dict(payload["result"])
        except (ValueError, KeyError, TypeError) as exc:
            raise EntryDefect(f"result payload malformed: {exc}") from None
        if result.spec_hash != spec_hash:
            raise EntryDefect(
                f"misfiled: holds the result of spec {result.spec_hash}")
        if payload.get("fingerprint", self.fingerprint) != self.fingerprint:
            raise EntryDefect(
                "misfiled: written under another code fingerprint")
        return payload, result, stat

    def _quarantine(self, path: Path) -> Optional[Path]:
        """Move a corrupt entry aside (atomic; races resolve silently)."""
        dest_dir = self.directory / QUARANTINE_DIR
        dest_dir.mkdir(parents=True, exist_ok=True)
        dest = dest_dir / f"{path.parent.name}__{path.name}"
        try:
            with self.lock():
                os.replace(path, dest)
        except (OSError, LockTimeout):
            return None  # another process already moved/removed it
        return dest

    # ------------------------------------------------------------------

    def get(self, spec: RunSpec) -> Optional[RunResult]:
        """Return the cached result for ``spec``, or ``None`` on a miss.

        A corrupt or unreadable entry counts as a miss — never a crash,
        never a silently wrong result.  Entries failing their content
        checksum (or unparseable, or misfiled) are quarantined so the
        defect stays diagnosable and the slot is free for the fresh
        recompute.

        An entry is verified once per file version: the ``result`` text
        of one that passed is kept with the file's signature, and while
        a ``stat`` still shows that signature a hit is parsed from the
        kept text.  A re-``put``, another process's ``os.replace``, a
        quarantine or a ``clear`` changes or removes the file and so
        falls back to the full verified read.  Every hit is a fresh
        parse: callers share nothing with the memo or with each other.
        """
        spec_hash = spec.content_hash()
        path = self._entry_path(spec_hash)
        with self._verified_lock:
            memo = self._verified.get(spec_hash)
        try:
            if memo is not None and memo[0] == _signature(os.stat(path)):
                result = RunResult.from_dict(json.loads(memo[1]))
            else:
                payload, result, stat = self._load_entry(path, spec_hash)
                if stat.st_size <= MEMO_MAX_BYTES:
                    self._remember(spec_hash, _signature(stat),
                                   json.dumps(payload["result"]))
        except OSError:
            return None  # plain miss
        except EntryDefect:
            self._quarantine(path)
            return None
        result.from_cache = True
        result.label = spec.label
        return result

    def _remember(self, spec_hash: str, signature: tuple, text: str) -> None:
        with self._verified_lock:
            self._verified.pop(spec_hash, None)  # re-inserted as newest
            while len(self._verified) >= MEMO_ENTRIES:
                del self._verified[next(iter(self._verified))]
            self._verified[spec_hash] = (signature, text)

    def put(self, spec: RunSpec, result: RunResult) -> Path:
        """Persist ``result`` under the spec's content hash (atomic,
        checksummed: readers verify the body byte-for-byte)."""
        path = self._entry_path(spec.content_hash())
        path.parent.mkdir(parents=True, exist_ok=True)
        canonical = _canonical_body({
            "fingerprint": self.fingerprint,
            "spec": spec.to_dict(),
            "result": result.to_dict(),
        })
        # The entry is the canonical body itself with the checksum and
        # version spliced in front: one serialization, one write.
        entry = b'{"checksum":"%s","version":%d,%s' % (
            hashlib.sha256(canonical).hexdigest().encode("ascii"),
            ENTRY_VERSION, canonical[1:])
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(entry)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    # ------------------------------------------------------------------

    def verify(self, repair: bool = False) -> VerifyReport:
        """Scan every entry's integrity; optionally quarantine failures.

        ``repair=True`` moves corrupt entries to the quarantine
        directory (they will be recomputed on next use); without it the
        scan is read-only.  Stale-fingerprint entries are reported but
        not checksum-verified — they can never be served anyway.
        """
        report = VerifyReport(directory=str(self.directory))
        if not self.directory.is_dir():
            return report
        current_dir = self.fingerprint[:16]
        for path in sorted(self.directory.rglob("*.json")):
            if path.parent.name == QUARANTINE_DIR:
                continue
            spec_hash = path.stem
            # An entry another process quarantined or cleared since the
            # listing is skipped: it is no longer in the cache at all.
            try:
                size = path.stat().st_size
            except FileNotFoundError:
                continue
            if path.parent.name != current_dir:
                report.entries.append(EntryReport(
                    path=str(path), spec_hash=spec_hash,
                    size_bytes=size, status="stale",
                ))
                continue
            defect = None
            try:
                self._load_entry(path, spec_hash)
            except EntryDefect as exc:
                defect = str(exc)
            except FileNotFoundError:
                continue
            except OSError as exc:
                defect = f"unreadable: {exc}"
            if defect is None:
                report.entries.append(EntryReport(
                    path=str(path), spec_hash=spec_hash,
                    size_bytes=size, status="ok",
                ))
                continue
            report.entries.append(EntryReport(
                path=str(path), spec_hash=spec_hash, size_bytes=size,
                status="corrupt", detail=defect,
            ))
            if repair:
                moved = self._quarantine(path)
                if moved is not None:
                    report.quarantined.append(str(moved))
        return report

    def stats(self) -> CacheStats:
        entries = size = current = stale = quarantined = 0
        current_dir = self.fingerprint[:16]
        if self.directory.is_dir():
            for path in self.directory.rglob("*.json"):
                if path.parent.name == QUARANTINE_DIR:
                    quarantined += 1
                    continue
                try:
                    size += path.stat().st_size
                except FileNotFoundError:
                    continue  # quarantined or cleared since the listing
                entries += 1
                if path.parent.name == current_dir:
                    current += 1
                else:
                    stale += 1
        return CacheStats(
            directory=str(self.directory),
            entries=entries,
            size_bytes=size,
            current_entries=current,
            stale_entries=stale,
            fingerprint=self.fingerprint,
            quarantined_entries=quarantined,
        )

    def clear(self, stale_only: bool = False) -> int:
        """Delete cached entries; returns how many were removed."""
        if not self.directory.is_dir():
            return 0
        removed = 0
        current_dir = self.fingerprint[:16]
        with self.lock():
            for child in list(self.directory.iterdir()):
                if not child.is_dir() or child.name == QUARANTINE_DIR:
                    continue
                if stale_only and child.name == current_dir:
                    continue
                removed += sum(1 for _ in child.glob("*.json"))
                shutil.rmtree(child, ignore_errors=True)
        return removed
