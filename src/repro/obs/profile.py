"""Profile reports: turn one run's observability data into an answer.

:func:`build_profile` digests a :class:`~repro.sim.gpu.SimResult` (with
observability attached) into a :class:`ProfileReport`:

* **hot spots** — per-PC issue counts from the recorded issue window
  (``Observability(issue_capacity=N)``), split
  into sync overhead vs useful work via the program's ``!sync`` roles,
  with average active lanes and the backed-off share;
* **warp spin timelines** — each warp's back-off episodes
  reconstructed from ``backoff_enter``/``backoff_exit`` event pairs;
* **DDOS detection latency** — per branch, the cycle its SIB-PT
  confidence first crossed the threshold, as an absolute cycle and as
  a fraction of the run (the paper's claim is that true SIBs are
  flagged early);
* the run's stat summary, event counts, and the sampled time series.

Reports render as JSON (stable schema, ``PROFILE_SCHEMA_VERSION``) or
markdown (``repro profile``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Version of the :meth:`ProfileReport.to_dict` schema.  Bump on any
#: key add/remove/rename — CI artifacts and tests key on it.
PROFILE_SCHEMA_VERSION = 1

#: Top-level keys of :meth:`ProfileReport.to_dict`, in emission order.
PROFILE_KEYS = (
    "schema_version",
    "workload",
    "scheduler",
    "engine",
    "cycles",
    "summary",
    "hotspots",
    "warp_timelines",
    "ddos",
    "events",
    "series",
)


@dataclass
class ProfileReport:
    """Digested observability for one run; see :func:`build_profile`."""

    workload: str
    scheduler: str
    engine: str
    cycles: int
    summary: Dict[str, Any]
    hotspots: List[Dict[str, Any]] = field(default_factory=list)
    warp_timelines: List[Dict[str, Any]] = field(default_factory=list)
    ddos: List[Dict[str, Any]] = field(default_factory=list)
    events: Dict[str, Any] = field(default_factory=dict)
    series: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": PROFILE_SCHEMA_VERSION,
            "workload": self.workload,
            "scheduler": self.scheduler,
            "engine": self.engine,
            "cycles": self.cycles,
            "summary": self.summary,
            "hotspots": self.hotspots,
            "warp_timelines": self.warp_timelines,
            "ddos": self.ddos,
            "events": self.events,
            "series": self.series,
        }

    def to_json(self, path=None, indent: int = 2) -> str:
        text = json.dumps(self.to_dict(), indent=indent)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        return text

    def to_markdown(self) -> str:
        """Human-facing report (``repro profile`` default output)."""
        s = self.summary
        lines = [
            f"# Profile: {self.workload} ({self.scheduler}, {self.engine} engine)",
            "",
            f"- cycles: **{self.cycles}**  ·  IPC: **{s.get('ipc', 0)}**  ·  "
            f"SIMD efficiency: **{s.get('simd_efficiency', 0)}**",
            f"- lock acquires: {s.get('lock_success', 0)} ok / "
            f"{s.get('inter_warp_fail', 0)} inter-warp fail / "
            f"{s.get('intra_warp_fail', 0)} intra-warp fail",
            f"- backed-off fraction (cycle-weighted): "
            f"{s.get('backed_off_fraction', 0)}",
            "",
        ]
        if self.hotspots:
            lines += [
                "## Hot spots (issue window)",
                "",
                "| pc | opcode | issues | sync | backed-off | avg lanes |",
                "|---:|:-------|-------:|-----:|-----------:|----------:|",
            ]
            for h in self.hotspots:
                lines.append(
                    f"| {h['pc']} | {h['opcode']} | {h['issues']} "
                    f"| {'yes' if h['sync'] else ''} | {h['backed_off_issues']} "
                    f"| {h['avg_lanes']} |"
                )
            lines.append("")
        if self.ddos:
            lines += [
                "## DDOS detection",
                "",
                "| branch pc | first flagged (cycle) | % of run | cleared |",
                "|----------:|----------------------:|---------:|--------:|",
            ]
            for d in self.ddos:
                lines.append(
                    f"| {d['branch']} | {d['first_flagged']} "
                    f"| {100 * d['detect_fraction']:.1f}% "
                    f"| {d['cleared']} |"
                )
            lines.append("")
        if self.warp_timelines:
            lines += ["## Warp back-off timelines", ""]
            for w in self.warp_timelines:
                spans = ", ".join(
                    f"[{a}..{b}]" for a, b in w["intervals"][:8]
                )
                extra = (
                    f" (+{len(w['intervals']) - 8} more)"
                    if len(w["intervals"]) > 8 else ""
                )
                lines.append(
                    f"- SM{w['sm_id']} warp {w['warp_slot']:02d} "
                    f"(cta {w['cta_id']}): {w['episodes']} episodes, "
                    f"{w['backed_off_cycles']} cycles backed off — "
                    f"{spans}{extra}"
                )
            lines.append("")
        counts = self.events.get("counts", {})
        if counts:
            lines += ["## Event counts", ""]
            for kind in sorted(counts):
                lines.append(f"- `{kind}`: {counts[kind]}")
            dropped = self.events.get("dropped", 0)
            if dropped:
                lines.append(f"- (ring log dropped {dropped} oldest events)")
            lines.append("")
        if self.series and self.series.get("rows"):
            rows = self.series["rows"]
            lines += [
                f"## Time series ({len(rows)} intervals of "
                f"{self.series['interval']} cycles)",
                "",
                "| cycle | ipc | simd eff | backed-off | lock fail | sib rate |",
                "|------:|----:|---------:|-----------:|----------:|---------:|",
            ]
            for row in rows:
                lines.append(
                    f"| {row['cycle']} | {row['ipc']} "
                    f"| {row['simd_efficiency']} "
                    f"| {row['backed_off_fraction']} "
                    f"| {row['lock_fail_rate']} | {row['sib_issue_rate']} |"
                )
            lines.append("")
        return "\n".join(lines)


def _build_hotspots(obs, program) -> List[Dict[str, Any]]:
    if obs is None or obs.issues is None:
        return []
    per_pc: Dict[int, Dict[str, int]] = {}
    for rec in obs.issues:
        agg = per_pc.setdefault(
            rec.pc, {"issues": 0, "lanes": 0, "backed_off": 0}
        )
        agg["issues"] += 1
        agg["lanes"] += rec.active_lanes
        if rec.backed_off:
            agg["backed_off"] += 1
    instructions = program.instructions
    hotspots = []
    for pc, agg in sorted(
        per_pc.items(), key=lambda item: -item[1]["issues"]
    ):
        instr = instructions[pc] if 0 <= pc < len(instructions) else None
        hotspots.append({
            "pc": pc,
            "opcode": instr.opcode.value if instr is not None else "?",
            "sync": bool(instr is not None and instr.has_role("sync")),
            "issues": agg["issues"],
            "backed_off_issues": agg["backed_off"],
            "avg_lanes": round(agg["lanes"] / agg["issues"], 2),
        })
    return hotspots


def _build_warp_timelines(obs, end_cycle: int) -> List[Dict[str, Any]]:
    if obs is None or obs.bus is None:
        return []
    open_since: Dict[tuple, int] = {}
    timelines: Dict[tuple, Dict[str, Any]] = {}
    for event in obs.bus:
        if event.kind == "backoff_enter":
            key = (event.sm_id, event.warp_slot)
            open_since[key] = event.cycle
            timelines.setdefault(key, {
                "sm_id": event.sm_id,
                "warp_slot": event.warp_slot,
                "cta_id": event.cta_id,
                "intervals": [],
            })
        elif event.kind == "backoff_exit":
            key = (event.sm_id, event.warp_slot)
            start = open_since.pop(key, None)
            if start is None:
                continue  # enter evicted from the ring log
            timelines[key]["intervals"].append([start, event.cycle])
    for key, start in open_since.items():
        timelines[key]["intervals"].append([start, end_cycle])
    result = []
    for key in sorted(timelines):
        entry = timelines[key]
        entry["episodes"] = len(entry["intervals"])
        entry["backed_off_cycles"] = sum(
            b - a for a, b in entry["intervals"]
        )
        result.append(entry)
    return result


def _build_ddos(obs, total_cycles: int) -> List[Dict[str, Any]]:
    if obs is None or obs.bus is None:
        return []
    first_flagged: Dict[int, int] = {}
    cleared: Dict[int, int] = {}
    for event in obs.bus:
        if event.kind == "sib_detected":
            first_flagged.setdefault(event.branch, event.cycle)
        elif event.kind == "sib_cleared":
            cleared[event.branch] = cleared.get(event.branch, 0) + 1
    return [
        {
            "branch": branch,
            "first_flagged": cycle,
            "detect_fraction": round(
                cycle / total_cycles, 4
            ) if total_cycles else 0.0,
            "cleared": cleared.get(branch, 0),
        }
        for branch, cycle in sorted(first_flagged.items())
    ]


def build_profile(result, *, workload: str = "",
                  scheduler: str = "", engine: str = "",
                  max_events: Optional[int] = 1_000) -> ProfileReport:
    """Digest ``result`` (a :class:`~repro.sim.gpu.SimResult`) into a
    :class:`ProfileReport`.

    The issue ring supplies the hot-spot table; without one the table
    is empty (everything else still works).  ``max_events`` bounds the
    raw event log embedded in the JSON payload.
    """
    obs = getattr(result, "obs", None)
    events: Dict[str, Any] = {}
    series = None
    if obs is not None:
        payload = obs.to_dict(max_events=max_events)
        events = payload.get("events", {})
        series = payload.get("series")
    return ProfileReport(
        workload=workload or result.launch.program.name,
        scheduler=scheduler,
        engine=engine,
        cycles=result.cycles,
        summary=result.stats.summary(),
        hotspots=_build_hotspots(obs, result.launch.program),
        warp_timelines=_build_warp_timelines(obs, result.cycles),
        ddos=_build_ddos(obs, result.cycles),
        events=events,
        series=series,
    )
