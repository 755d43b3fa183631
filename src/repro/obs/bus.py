"""Event bus with pre-bound emitters and a zero-cost disabled path.

Producers never test "is observability on?" per decision.  Instead
they bind an emitter **once at construction time** —
:func:`emitter_for`, which answers :meth:`EventBus.emitter` when a bus
is attached and :func:`null_emitter`, a shared module-level no-op,
when none is — so the hot path costs one attribute-free call either
way, and nothing at all on the branches that never fire.

An emitter is bound to one event class::

    emit_enter = bus.emitter(BackoffEnter)      # construction time
    ...
    emit_enter(cycle=now, sm_id=0, warp_slot=3, cta_id=1)   # hot path

The bus keeps a bounded ring log (oldest events evicted, counted in
:attr:`EventBus.dropped`), per-kind counts that survive eviction, and
optional subscribers for tests/live tooling.

Everything a producer holds pickles: an emitter reduces to "the emitter
of this class on *that* bus" and the bus rides in the same graph, so a
checkpoint needs no help from the producers.  Live consumers are the
one thing that does not survive: :meth:`EventBus.__getstate__` drops
the subscriber list, and whoever restores the run subscribes again.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, Iterator, List, Optional


def null_emitter(**_fields: Any) -> None:
    """Shared no-op emitter used whenever no bus is attached."""


class _Emitter:
    """What :meth:`EventBus.emitter` returns.

    A class rather than a closure because closures cannot pickle and
    producers hold emitters across checkpoints: this one reduces to
    ``(bus, event_cls)``, so the restored emitter publishes on the
    *restored* bus — its log, counts and (fresh, empty) subscriber list.
    """

    __slots__ = ("bus", "event_cls")

    def __init__(self, bus: "EventBus", event_cls: type) -> None:
        self.bus = bus
        self.event_cls = event_cls

    def __call__(self, **fields: Any) -> None:
        self.bus.publish(self.event_cls(**fields))

    def __reduce__(self):
        return (_Emitter, (self.bus, self.event_cls))


def emitter_for(bus: Optional["EventBus"],
                event_cls: type) -> Callable[..., None]:
    """``bus.emitter(event_cls)``, or :func:`null_emitter` with no bus."""
    return bus.emitter(event_cls) if bus is not None else null_emitter


class EventBus:
    """Bounded, typed event log.

    Parameters
    ----------
    capacity:
        Ring-log size.  Oldest events are evicted once full (evictions
        are counted in :attr:`dropped`); per-kind counts in
        :attr:`counts` are never lost.  Must be positive.
    """

    def __init__(self, capacity: int = 200_000) -> None:
        if capacity <= 0:
            raise ValueError(f"EventBus capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._log: deque = deque(maxlen=capacity)
        self.counts: Dict[str, int] = {}
        self.dropped = 0
        self._subscribers: List[Callable[[Any], None]] = []

    def emitter(self, event_cls: type) -> "_Emitter":
        """Return a callable that constructs + publishes ``event_cls``.

        Bind the result once at construction time: the per-event cost
        is one dataclass construction and one :meth:`publish`.
        """
        return _Emitter(self, event_cls)

    def __getstate__(self):
        """Checkpointing: the ring log, counts, and drop counter pickle
        as-is; live subscriber callables (tests/tools) do not ride along
        and must re-subscribe after a restore."""
        state = self.__dict__.copy()
        state["_subscribers"] = []
        return state

    def publish(self, event: Any) -> None:
        """Log, count and deliver one constructed event."""
        self.counts[event.kind] = self.counts.get(event.kind, 0) + 1
        if len(self._log) == self._log.maxlen:
            self.dropped += 1
        self._log.append(event)
        for fn in self._subscribers:
            fn(event)

    def subscribe(self, fn: Callable[[Any], None]) -> None:
        """Call ``fn(event)`` on every future publish (tests/live tools)."""
        self._subscribers.append(fn)

    def __len__(self) -> int:
        return len(self._log)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._log)

    @property
    def total_events(self) -> int:
        """Events ever published (including evicted ones)."""
        return sum(self.counts.values())

    def events(self, kind: Optional[str] = None) -> List[Any]:
        """Retained events in publish order, optionally one kind only."""
        if kind is None:
            return list(self._log)
        return [e for e in self._log if e.kind == kind]

    def tail(self, n: int) -> List[Any]:
        """The last ``n`` retained events."""
        if n <= 0:
            return []
        return list(self._log)[-n:]

    def clear(self) -> None:
        """Drop retained events and reset counts/drop statistics."""
        self._log.clear()
        self.counts.clear()
        self.dropped = 0
