"""Structured diagnostics shared by the static lint and the sanitizer.

Every finding — static or runtime — is a :class:`Diagnostic`: a stable
checker id (``SIB001``, ``LOCK002``, ``SAN001`` ...), a severity, the
instruction index it anchors to, and a fix hint.  Diagnostics are plain
data (``to_dict`` round-trips through JSON) so they can ride lab
results, fuzz reports and :class:`~repro.sim.progress.HangReport`
payloads unchanged.

Known-intentional findings are *waived* at the source: annotating the
offending instruction with ``!waive_<id>`` (lower-case id, e.g.
``!waive_sib001``) moves the diagnostic from the report's ``diagnostics``
list to its ``waived`` list.  See ``docs/analysis.md`` for the checker
catalog.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = ["Diagnostic", "SEVERITIES", "waiver_role"]

#: Severity levels, most severe first.
SEVERITIES = ("error", "warning", "info")


def waiver_role(diag_id: str) -> str:
    """Role name that waives diagnostic ``diag_id`` (``!waive_sib001``)."""
    return "waive_" + diag_id.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One finding from the static lint or the runtime sanitizer."""

    #: Stable checker id, e.g. ``"SIB001"`` / ``"SAN002"``.
    id: str
    #: ``"error"`` | ``"warning"`` | ``"info"``.
    severity: str
    #: Kernel / program name the finding belongs to.
    kernel: str
    #: Instruction index the finding anchors to (-1 = whole program).
    pc: int
    #: One-line description of the problem.
    message: str
    #: Actionable fix suggestion.
    hint: str = ""
    #: Runtime context (sanitizer findings only).
    warp: Optional[int] = None
    lane: Optional[int] = None
    cycle: Optional[int] = None
    #: Free-form extra context (addresses, register names, ...).
    detail: Dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "id": self.id,
            "severity": self.severity,
            "kernel": self.kernel,
            "pc": self.pc,
            "message": self.message,
        }
        if self.hint:
            data["hint"] = self.hint
        for key in ("warp", "lane", "cycle"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        if self.detail:
            data["detail"] = dict(self.detail)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Diagnostic":
        return cls(
            id=data["id"],
            severity=data["severity"],
            kernel=data.get("kernel", ""),
            pc=data.get("pc", -1),
            message=data.get("message", ""),
            hint=data.get("hint", ""),
            warp=data.get("warp"),
            lane=data.get("lane"),
            cycle=data.get("cycle"),
            detail=dict(data.get("detail", {})),
        )

    def format(self) -> str:
        """One-line human rendering: ``kernel:pc: error SIB001: ...``."""
        where = f"{self.kernel}:{self.pc}" if self.pc >= 0 else self.kernel
        line = f"{where}: {self.severity} {self.id}: {self.message}"
        ctx = []
        if self.cycle is not None:
            ctx.append(f"cycle {self.cycle}")
        if self.warp is not None:
            ctx.append(f"warp {self.warp}")
        if self.lane is not None:
            ctx.append(f"lane {self.lane}")
        if ctx:
            line += f" ({', '.join(ctx)})"
        if self.hint:
            line += f"\n    hint: {self.hint}"
        return line
