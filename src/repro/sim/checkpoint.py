"""Versioned simulator checkpoints: crash-safe save/resume of a live run.

A checkpoint captures the *complete* machine state of an in-flight
:class:`~repro.sim.gpu.Simulation` — warps (SIMT stacks, register files,
scoreboards), the memory subsystem and global-memory image, scheduler
queues and order caches, DDOS path/value history registers, BOWS
back-off queues and adaptive-delay controller state, progress-monitor
witnesses, and the observers with everything they collected (event
log and counts, sampler offsets and rows, the issue ring, sanitizer
shadow state) — so a run interrupted at an epoch boundary can resume
and produce **bitwise-identical** statistics to an uninterrupted run
(enforced by the equivalence matrix's ``resumed`` way,
``tests/test_golden_fixtures.py``).

The capture mechanism is a single :mod:`pickle` of the whole simulation
object graph: shared references (one ``SimStats`` written by every SM,
one lock table, one global memory) survive through the pickle memo, and
numpy register files, ``random.Random`` perturbation state, deques, and
heaps all round-trip exactly.  A checkpoint is that pickle and nothing
else — there is no convention an attachment has to remember, and no
machine object customises its own pickling.  One thing is left out, in
one place: *live consumers* — subscriber callables such as the serve
daemon's progress spool.  ``EventBus.__getstate__`` and
``Observability.__getstate__`` drop them, and whoever restores the run
subscribes again.

The closures the machine does hold pickle as what they stand for, the
thing they stand for being in the same graph: a pre-bound event emitter
as "the emitter of this event class on that bus", a decoded instruction
as "op *i* of the decoding of that program under this key"
(``DecodedOp.__reduce__`` / ``DecodedProgram.__reduce__`` in
:mod:`repro.sim.executor`; restoring goes through the per-program decode
cache, so the SMs share one decoding again).  ``Program.__getstate__``
drops that cache — the program is what the decoding is restored *from*.

On-disk format (``*.ckpt``)::

    8 bytes   magic  b"RPCKPT01"
    32 bytes  SHA-256 over the body
    N bytes   body: pickle of {"format": int, "meta": dict, "sim": bytes}

``meta`` records the kernel name, capture cycle, engine, and the repro
code fingerprint; loading verifies magic, checksum, format version, and
(by default) that the fingerprint matches the current source tree, so a
checkpoint can never silently resume under different simulator code.
All failures raise :class:`CheckpointError` — a corrupt checkpoint is a
diagnosable condition, never an arbitrary unpickling crash.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict

#: File magic; the trailing two digits version the *container* layout.
MAGIC = b"RPCKPT01"

#: Version of the body schema (bump on incompatible state changes).
FORMAT_VERSION = 1

_CHECKSUM_BYTES = 32


class CheckpointError(RuntimeError):
    """A checkpoint could not be captured, written, read, or restored."""


def _code_fingerprint() -> str:
    # Late import: repro.lab depends on repro.sim, not the reverse.
    from repro.lab.cache import code_fingerprint

    return code_fingerprint()


@dataclass
class SimCheckpoint:
    """One captured simulation state plus its identifying metadata.

    The simulation rides as already-pickled ``payload`` bytes, so a
    checkpoint is fully decoupled from the live simulation it was taken
    from: the run can keep advancing, and :meth:`restore` materializes
    an independent copy every time it is called.
    """

    meta: Dict[str, Any]
    payload: bytes

    # -- capture / restore ---------------------------------------------

    @classmethod
    def capture(cls, sim) -> "SimCheckpoint":
        """Snapshot ``sim`` (a :class:`~repro.sim.gpu.Simulation`)."""
        try:
            payload = pickle.dumps(sim, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # unpicklable attachment (e.g. a lambda)
            raise CheckpointError(
                f"simulation state is not checkpointable: {exc}"
            ) from exc
        meta = {
            "program": sim.launch.program.name,
            "cycle": sim.now,
            "engine": sim.engine,
            "fingerprint": _code_fingerprint(),
        }
        return cls(meta=meta, payload=payload)

    def restore(self):
        """Materialize a fresh :class:`~repro.sim.gpu.Simulation`."""
        try:
            return pickle.loads(self.payload)
        except Exception as exc:
            raise CheckpointError(
                f"checkpoint state could not be restored: {exc}"
            ) from exc

    @property
    def cycle(self) -> int:
        return int(self.meta.get("cycle", 0))

    # -- wire format ----------------------------------------------------

    def to_bytes(self) -> bytes:
        body = pickle.dumps(
            {"format": FORMAT_VERSION, "meta": self.meta, "sim": self.payload},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        return MAGIC + hashlib.sha256(body).digest() + body

    @classmethod
    def from_bytes(cls, blob: bytes,
                   check_fingerprint: bool = True) -> "SimCheckpoint":
        header = len(MAGIC) + _CHECKSUM_BYTES
        if len(blob) < header or not blob.startswith(MAGIC):
            raise CheckpointError(
                "not a repro checkpoint (bad magic); expected a file "
                "written by SimCheckpoint.save"
            )
        checksum = blob[len(MAGIC):header]
        body = blob[header:]
        if hashlib.sha256(body).digest() != checksum:
            raise CheckpointError(
                "checkpoint is corrupt (checksum mismatch) — likely a "
                "torn or truncated write"
            )
        try:
            record = pickle.loads(body)
            fmt = record["format"]
            meta = record["meta"]
            payload = record["sim"]
        except Exception as exc:
            raise CheckpointError(
                f"checkpoint body could not be decoded: {exc}"
            ) from exc
        if fmt != FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint format {fmt} "
                f"(this build reads format {FORMAT_VERSION})"
            )
        if check_fingerprint:
            current = _code_fingerprint()
            recorded = meta.get("fingerprint")
            if recorded != current:
                raise CheckpointError(
                    "checkpoint was captured under different simulator "
                    f"code (fingerprint {str(recorded)[:16]}… vs current "
                    f"{current[:16]}…); resuming would not be "
                    "bitwise-faithful.  Pass check_fingerprint=False to "
                    "override."
                )
        return cls(meta=meta, payload=payload)

    # -- file I/O --------------------------------------------------------

    def save(self, path) -> Path:
        """Atomically write the checkpoint to ``path`` (temp + rename)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = self.to_bytes()
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    @classmethod
    def load(cls, path, check_fingerprint: bool = True) -> "SimCheckpoint":
        path = Path(path)
        try:
            blob = path.read_bytes()
        except OSError as exc:
            raise CheckpointError(
                f"checkpoint {path} could not be read: {exc}"
            ) from exc
        return cls.from_bytes(blob, check_fingerprint=check_fingerprint)


__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "CheckpointError",
    "SimCheckpoint",
]
