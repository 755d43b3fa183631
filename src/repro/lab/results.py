"""Run outcomes: serializable success and failure records.

A :class:`RunResult` carries everything the experiment layer reads off a
simulation — cycle count, the full :class:`~repro.metrics.stats.SimStats`
counters, DDOS detection records when DDOS was on — but none of the
heavyweight simulation state (memory images, SM objects), so it is cheap
to ship across process boundaries and to persist in the result cache.

A :class:`RunFailure` is the structured alternative when a run could not
produce a result: it records the error, how many attempts were made, and
whether the failure was classified transient.  A sweep never raises out
of a single bad run; callers that need all results use
:meth:`~repro.lab.runner.Batch.results`, which raises a summarizing
:class:`LabError` only after the whole batch has been driven.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.memory.memsys import MemoryStats
from repro.metrics.stats import LockStats, SimStats

from repro.lab.journal import check, record
from repro.lab.spec import RunSpec, dataclass_to_dict


class LabError(RuntimeError):
    """A batch could not be completed (see the failure records)."""


def stats_to_dict(stats: SimStats) -> Dict[str, Any]:
    return dataclass_to_dict(stats)


def stats_from_dict(data: Dict[str, Any]) -> SimStats:
    data = dict(data)
    data["locks"] = LockStats(**data["locks"])
    data["memory"] = MemoryStats(**data["memory"])
    return SimStats(**data)


@dataclass
class RunResult:
    """Outcome of one successful simulation (cache- and pickle-friendly)."""

    spec_hash: str
    cycles: int
    stats: SimStats
    #: Sorted union of DDOS-predicted SIB instruction indices.
    predicted_sibs: List[int] = field(default_factory=list)
    #: ``DetectionOutcome`` fields (plain data) when DDOS was enabled.
    ddos: Optional[Dict[str, Any]] = None
    elapsed_s: float = 0.0
    #: Per-phase wall-clock breakdown of ``elapsed_s`` (``build_s``,
    #: ``simulate_s``, ``score_s``) when the run executed in-process.
    phases: Optional[Dict[str, float]] = None
    #: Observability payload (:meth:`repro.obs.Observability.to_dict`)
    #: when the spec requested collection: event counts + bounded log,
    #: sampled time series.
    obs: Optional[Dict[str, Any]] = None
    #: Sanitizer payload (:meth:`repro.analysis.Sanitizer.to_dict`) when
    #: the spec requested sanitizing: counters + diagnostics.
    sanitizer: Optional[Dict[str, Any]] = None
    attempts: int = 1
    from_cache: bool = False
    label: Optional[str] = None

    ok = True

    def to_dict(self) -> Dict[str, Any]:
        """This result as its ``result`` record (the cache entry's body
        and the serve wire's payload)."""
        return record(
            "result", hash=self.spec_hash, cycles=self.cycles,
            stats=stats_to_dict(self.stats),
            predicted_sibs=list(self.predicted_sibs), ddos=self.ddos,
            elapsed_s=self.elapsed_s, phases=self.phases, obs=self.obs,
            sanitizer=self.sanitizer)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunResult":
        """The inverse of :meth:`to_dict`; ``ValueError`` unless ``data``
        is exactly a v1 ``result`` record."""
        check(data, "result")
        return cls(
            spec_hash=data["hash"],
            cycles=data["cycles"],
            stats=stats_from_dict(data["stats"]),
            predicted_sibs=list(data["predicted_sibs"]),
            ddos=data["ddos"],
            elapsed_s=data["elapsed_s"],
            phases=data["phases"],
            obs=data["obs"],
            sanitizer=data["sanitizer"],
        )


@dataclass
class RunFailure:
    """Structured record of a run that produced no result."""

    spec: Optional[RunSpec]
    spec_hash: str
    error_type: str
    message: str
    attempts: int
    elapsed_s: float = 0.0
    transient: bool = False
    #: Inline :class:`~repro.sim.progress.HangReport` JSON when the run
    #: hung (deadlock/livelock) or timed out; journaled in the ``failed``
    #: record, so hang forensics survive the worker's process boundary.
    hang: Optional[Dict[str, Any]] = None

    ok = False

    @classmethod
    def from_record(cls, line: Dict[str, Any],
                    spec: Optional[RunSpec] = None) -> "RunFailure":
        """The inverse of :func:`~repro.lab.journal.outcome_record`:
        ``line`` must be a v1 ``failed`` record; ``spec`` reattaches the
        spec it is about (the record holds only its hash)."""
        check(line, "failed")
        return cls(spec=spec, spec_hash=line["hash"],
                   error_type=line["error_type"], message=line["message"],
                   attempts=line["attempts"], elapsed_s=line["elapsed_s"],
                   transient=line["transient"], hang=line["hang"])

    @property
    def hung(self) -> bool:
        return self.hang is not None

    def describe(self) -> str:
        what = self.spec.display if self.spec is not None else self.spec_hash
        first_line = self.message.splitlines()[0] if self.message else ""
        text = (f"{what}: {self.error_type}: {first_line} "
                f"(after {self.attempts} attempt(s))")
        if self.hang is not None:
            text += f" [hang: {self.hang.get('kind')} at cycle " \
                    f"{self.hang.get('cycle')}]"
        return text
