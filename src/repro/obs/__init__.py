"""repro.obs — observability for the warp-scheduling simulator.

The one thing the simulated machine is handed to be observed with
(the ``obs=`` argument of :func:`repro.simulate`).  Three pillars (see
``docs/observability.md``):

* **Event bus** (:mod:`repro.obs.events`, :mod:`repro.obs.bus`) —
  typed scheduler/sync decision events (DDOS confidence transitions,
  BOWS back-off episodes, lock outcomes, barrier episodes, hang
  suspicion), emitted through pre-bound sinks so a run without
  observability pays nothing.
* **Interval sampler** (:mod:`repro.obs.sampler`) — Figure-11-style
  time series of delta counters (IPC, SIMD efficiency, backed-off
  fraction, lock fail rate, SIB issue rate, memory transactions).
* **Profile reports** (:mod:`repro.obs.profile`, ``repro profile``) —
  per-PC hot spots, per-warp spin timelines, DDOS detection latency,
  rendered as markdown or JSON.

On request (``Observability(issue_capacity=N)``) every issued warp
instruction is recorded too, as :class:`Issue` events in a ring of its
own: hang reports, the hot-spot table and the Chrome/Perfetto export
read it.

Entry point::

    from repro import GPUConfig, simulate
    result = simulate("ht", config=GPUConfig.preset("fermi", bows=True),
                      obs=True)
    result.obs.series.to_csv("ht_bows.csv")
    for event in result.obs.events("sib_detected"):
        print(event)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Union

from repro.obs.bus import EventBus, emitter_for, null_emitter
from repro.obs.events import (
    EVENT_KINDS,
    EVENT_TYPES,
    AdaptiveDelayUpdate,
    BackoffEnter,
    BackoffExit,
    BarrierArrive,
    BarrierRelease,
    CheckpointSaved,
    HangSuspected,
    Issue,
    LockAcquireFail,
    LockAcquireSuccess,
    RunResumed,
    SanitizerFinding,
    SIBCleared,
    SIBDetected,
    event_from_dict,
    event_to_dict,
    format_event,
)
from repro.obs.sampler import SERIES_COLUMNS, IntervalSampler, TimeSeries

__all__ = [
    "ObsConfig",
    "Observability",
    "as_observability",
    "EventBus",
    "emitter_for",
    "null_emitter",
    "EVENT_KINDS",
    "EVENT_TYPES",
    "SIBDetected",
    "SIBCleared",
    "BackoffEnter",
    "BackoffExit",
    "AdaptiveDelayUpdate",
    "LockAcquireSuccess",
    "LockAcquireFail",
    "BarrierArrive",
    "BarrierRelease",
    "HangSuspected",
    "SanitizerFinding",
    "CheckpointSaved",
    "RunResumed",
    "Issue",
    "event_to_dict",
    "event_from_dict",
    "format_event",
    "IntervalSampler",
    "TimeSeries",
    "SERIES_COLUMNS",
]


@dataclass(frozen=True)
class ObsConfig:
    """What to collect.  Frozen so it can ride in hashed RunSpecs.

    Attributes:
        events: collect decision events on an :class:`EventBus`.
        event_capacity: bus ring-log size (evictions are counted).
        sample_interval: cycles per time-series row; 0 disables the
            sampler.
    """

    events: bool = True
    event_capacity: int = 200_000
    sample_interval: int = 1_000

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events": self.events,
            "event_capacity": self.event_capacity,
            "sample_interval": self.sample_interval,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ObsConfig":
        return cls(**data)


class Observability:
    """One run's worth of collected events + time series.

    Pass to :func:`repro.simulate` via ``obs=`` (or just
    ``obs=True``); the GPU wires the bus into every producer and polls
    the sampler from its cycle loop.  After the run, the same object
    hangs off ``SimResult.obs``.

    ``issue_capacity`` turns on issue recording: :attr:`issues` is then
    a second :class:`EventBus` holding the last N :class:`Issue` events.
    It is a constructor argument and not an :class:`ObsConfig` field
    because the ring is never serialised into a result: nothing hashed
    or cached depends on it.

    Everything held here pickles, so the object rides in a checkpoint
    with the machine it observes — except live consumers
    (:meth:`subscribe`), which a pickle drops.
    """

    def __init__(self, config: Optional[ObsConfig] = None,
                 issue_capacity: Optional[int] = None) -> None:
        self.config = config if config is not None else ObsConfig()
        self.bus: Optional[EventBus] = (
            EventBus(self.config.event_capacity) if self.config.events else None
        )
        self.issues: Optional[EventBus] = (
            EventBus(issue_capacity) if issue_capacity is not None else None
        )
        self.sampler: Optional[IntervalSampler] = None
        self._row_subscribers: List[Callable[[Dict[str, float]], None]] = []

    def subscribe(self, on_event: Optional[Callable[[Any], None]] = None,
                  on_row: Optional[Callable[[Dict[str, float]], None]] = None,
                  ) -> None:
        """Attach a live consumer: ``on_event(event)`` on every decision
        event from now on, ``on_row(row)`` on every series row as the
        sampler appends it.  A consumer is not state — a pickle drops it
        (here and in :meth:`EventBus.__getstate__`) — so whoever
        restores a checkpoint subscribes again."""
        if on_event is not None and self.bus is not None:
            self.bus.subscribe(on_event)
        if on_row is not None:
            self._row_subscribers.append(on_row)

    def _publish_row(self, row: Dict[str, float]) -> None:
        for fn in self._row_subscribers:
            fn(row)

    def __getstate__(self):
        """Checkpointing: everything pickles as-is except the live row
        consumers, which do not ride along (see :meth:`subscribe`)."""
        state = self.__dict__.copy()
        state["_row_subscribers"] = []
        return state

    # -- GPU lifecycle -------------------------------------------------

    def begin_run(self, stats, memsys_stats,
                  warp_size: int = 32) -> Optional[IntervalSampler]:
        """Bind the sampler to a run's live counters (GPU.launch)."""
        if self.config.sample_interval > 0:
            self.sampler = IntervalSampler(
                stats, memsys_stats, self.config.sample_interval,
                warp_size=warp_size, on_row=self._publish_row,
            )
        return self.sampler

    def end_run(self, now: int) -> None:
        """Flush the final partial sampling interval (GPU.launch)."""
        if self.sampler is not None:
            self.sampler.finish(now)

    # -- Access --------------------------------------------------------

    @property
    def series(self) -> Optional[TimeSeries]:
        return self.sampler.series if self.sampler is not None else None

    def events(self, kind: Optional[str] = None) -> List[Any]:
        """Retained events, optionally filtered by kind string."""
        if self.bus is None:
            return []
        return self.bus.events(kind)

    def event_counts(self) -> Dict[str, int]:
        """Per-kind event totals (survive ring-log eviction)."""
        return dict(self.bus.counts) if self.bus is not None else {}

    def to_dict(self, max_events: Optional[int] = None) -> Dict[str, Any]:
        """JSON-ready payload (lab results, reports).

        ``max_events`` truncates the embedded event log to the last N
        (counts still reflect the full run).
        """
        payload: Dict[str, Any] = {"config": self.config.to_dict()}
        if self.bus is not None:
            log = self.bus.tail(max_events) if max_events else list(self.bus)
            payload["events"] = {
                "counts": dict(self.bus.counts),
                "total": self.bus.total_events,
                "dropped": self.bus.dropped,
                "log": [event_to_dict(e) for e in log],
            }
        if self.series is not None:
            payload["series"] = self.series.to_dict()
        return payload

    def export_chrome_trace(self, path) -> int:
        """Dump the issue ring as Chrome ``trace_event`` JSON.

        Load the file in ``chrome://tracing`` or Perfetto to see the
        issue timeline — one process track per SM, one thread track per
        warp slot (named with its CTA, e.g. ``warp 03 (cta 1)``, and
        ordered numerically via ``thread_sort_index``), one cycle mapped
        to one microsecond.  Issues from a backed-off warp are named
        ``<opcode> [backed-off]`` so spin and back-off phases stand out;
        per-event args carry the PC, CTA, and active-lane count.  The
        sampled time series, when there is one, is merged in as counter
        tracks.  Returns the number of issue events written (counter
        events excluded).
        """
        if self.issues is None:
            raise ValueError(
                "no issue ring to export: construct "
                "Observability(issue_capacity=N) to record issues"
            )
        events: List[dict] = []
        tracks = {}
        for issue in self.issues:
            tracks.setdefault((issue.sm_id, issue.warp_slot), issue.cta_id)
            name = issue.opcode
            if issue.backed_off:
                name += " [backed-off]"
            events.append({
                "name": name,
                "ph": "X",
                "ts": issue.cycle,
                "dur": 1,
                "pid": issue.sm_id,
                "tid": issue.warp_slot,
                "cat": "backed-off" if issue.backed_off else "issue",
                "args": {
                    "pc": issue.pc,
                    "cta": issue.cta_id,
                    "active_lanes": issue.active_lanes,
                    "backed_off": issue.backed_off,
                },
            })
        metadata: List[dict] = []
        for sm_id in sorted({sm for sm, _ in tracks}):
            metadata.append({
                "name": "process_name", "ph": "M", "pid": sm_id,
                "args": {"name": f"SM{sm_id}"},
            })
        for (sm_id, slot), cta in sorted(tracks.items()):
            metadata.append({
                "name": "thread_name", "ph": "M", "pid": sm_id,
                "tid": slot, "args": {"name": f"warp {slot:02d} (cta {cta})"},
            })
            metadata.append({
                "name": "thread_sort_index", "ph": "M", "pid": sm_id,
                "tid": slot, "args": {"sort_index": slot},
            })
        series = self.series
        counters = series.perfetto_events() if series is not None else []
        payload = {
            "traceEvents": metadata + events + counters,
            "displayTimeUnit": "ms",
            "otherData": {
                "source": "repro.obs.Observability.issues",
                "time_unit": "1 ts = 1 GPU cycle",
                "dropped_records": self.issues.dropped,
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        return len(events)


def as_observability(
    obs: Union[None, bool, ObsConfig, "Observability"],
) -> Optional["Observability"]:
    """Coerce the ``obs=`` argument accepted by the public API."""
    if obs is None or obs is False:
        return None
    if obs is True:
        return Observability()
    if isinstance(obs, ObsConfig):
        return Observability(obs)
    if isinstance(obs, Observability):
        return obs
    raise TypeError(
        "obs must be None, bool, ObsConfig, or Observability; "
        f"got {type(obs).__name__}"
    )
