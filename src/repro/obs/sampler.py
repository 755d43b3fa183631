"""Interval sampler: Figure-11-style time series for any run.

:class:`SimStats` only reports end-of-run aggregates; the sampler turns
the same counters into curves by snapshotting **deltas** every
``interval`` cycles.  Each row is one interval:

========================  ==================================================
column                    meaning (within the interval)
========================  ==================================================
``cycle``                 interval end cycle
``ipc``                   warp instructions issued / cycles elapsed
``simd_efficiency``       active lanes / (warp instructions * warp size)
``backed_off_fraction``   backed-off warp-cycles / resident warp-cycles
``lock_fail_rate``        failed lock acquires / acquire attempts
``sib_issue_rate``        spin-inducing-branch issues / warp instructions
``memory_transactions``   load+store+atomic transactions completed
========================  ==================================================

The sampler is polled from the GPU loop exactly like the
:class:`~repro.sim.progress.ProgressMonitor` (``now >= next_sample``),
so it is fast-forward safe: when the loop skips idle cycles the next
row simply covers a longer interval, and rates stay per-cycle.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

#: Column order of one :class:`TimeSeries` row.
SERIES_COLUMNS = (
    "cycle",
    "ipc",
    "simd_efficiency",
    "backed_off_fraction",
    "lock_fail_rate",
    "sib_issue_rate",
    "memory_transactions",
)


@dataclass
class TimeSeries:
    """Sampled interval metrics, one dict per interval."""

    interval: int
    rows: List[Dict[str, float]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> List[float]:
        """One column across all rows (plotting convenience)."""
        if name not in SERIES_COLUMNS:
            raise KeyError(f"unknown series column {name!r}")
        return [row[name] for row in self.rows]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "interval": self.interval,
            "columns": list(SERIES_COLUMNS),
            "rows": self.rows,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TimeSeries":
        return cls(interval=data["interval"], rows=list(data["rows"]))

    def to_json(self, path=None, indent: int = 2) -> str:
        """Serialize to JSON; also write to ``path`` when given."""
        text = json.dumps(self.to_dict(), indent=indent)
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        return text

    def to_csv(self, path=None) -> str:
        """Serialize to CSV (header + one line per interval)."""
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=SERIES_COLUMNS)
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row)
        text = buffer.getvalue()
        if path is not None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        return text

    def perfetto_events(self, pid: int = 0) -> List[Dict[str, Any]]:
        """Chrome ``trace_event`` counter ("C") events, one track per
        metric, merged into :meth:`Observability.export_chrome_trace`."""
        events: List[Dict[str, Any]] = []
        for row in self.rows:
            ts = row["cycle"]
            for name in SERIES_COLUMNS:
                if name == "cycle":
                    continue
                events.append({
                    "name": name,
                    "ph": "C",
                    "ts": ts,
                    "pid": pid,
                    "args": {name: row[name]},
                })
        return events


class IntervalSampler:
    """Snapshots delta counters from live stats every N cycles.

    Reads the shared :class:`~repro.metrics.stats.SimStats` that all SMs
    write into, plus the memory subsystem's live
    :class:`~repro.memory.memsys.MemoryStats` (``stats.memory`` is only
    merged at end of run).  ``next_sample`` is the poll threshold for
    the GPU loop, mirroring :class:`~repro.sim.progress.ProgressMonitor`.
    ``on_row`` is called with each row as it is appended
    (:meth:`Observability.subscribe` delivers live consumers through it).
    """

    def __init__(self, stats, memsys_stats, interval: int,
                 warp_size: int = 32,
                 on_row: Optional[Callable[[Dict[str, float]], None]] = None,
                 ) -> None:
        if interval <= 0:
            raise ValueError(f"sample interval must be positive, got {interval}")
        self.interval = interval
        self.next_sample = interval
        self.series = TimeSeries(interval=interval)
        self._stats = stats
        self._mem = memsys_stats
        self._warp_size = warp_size
        self._on_row = on_row
        self._last_cycle = 0
        self._prev = self._snapshot()

    def _snapshot(self) -> Dict[str, float]:
        stats = self._stats
        locks = stats.locks
        return {
            "warp_instructions": stats.warp_instructions,
            # ``active_lane_sum`` restates it and is derived only at
            # the end of a run.
            "thread_instructions": stats.thread_instructions,
            "sib_warp_instructions": stats.sib_warp_instructions,
            "backed_off_warp_cycles": stats.backed_off_warp_cycles,
            "resident_warp_cycles": stats.resident_warp_cycles,
            "lock_success": locks.lock_success,
            "lock_fail": locks.inter_warp_fail + locks.intra_warp_fail,
            "memory_transactions": self._mem.total_transactions,
        }

    def sample(self, now: int) -> None:
        """Close the interval ending at ``now`` and append one row."""
        cur = self._snapshot()
        prev = self._prev
        dt = now - self._last_cycle
        if dt <= 0:
            return
        d = {k: cur[k] - prev[k] for k in cur}
        attempts = d["lock_success"] + d["lock_fail"]
        issued = d["warp_instructions"]
        row = {
            "cycle": now,
            "ipc": round(issued / dt, 4),
            "simd_efficiency": round(
                d["thread_instructions"] / (issued * self._warp_size), 4
            ) if issued else 0.0,
            "backed_off_fraction": round(
                d["backed_off_warp_cycles"] / d["resident_warp_cycles"], 4
            ) if d["resident_warp_cycles"] else 0.0,
            "lock_fail_rate": round(
                d["lock_fail"] / attempts, 4
            ) if attempts else 0.0,
            "sib_issue_rate": round(
                d["sib_warp_instructions"] / issued, 4
            ) if issued else 0.0,
            "memory_transactions": int(d["memory_transactions"]),
        }
        self.series.rows.append(row)
        if self._on_row is not None:
            self._on_row(row)
        self._prev = cur
        self._last_cycle = now
        while self.next_sample <= now:
            self.next_sample += self.interval

    def finish(self, now: int) -> Optional[TimeSeries]:
        """Flush the final partial interval and return the series."""
        if now > self._last_cycle:
            self.sample(now)
        return self.series
