"""Event taxonomy and EventBus: typing, ring-log semantics, emitters."""

from __future__ import annotations

import dataclasses

import pytest

from repro.obs import (
    EVENT_KINDS,
    EVENT_TYPES,
    BackoffEnter,
    EventBus,
    LockAcquireFail,
    SIBDetected,
    event_from_dict,
    event_to_dict,
    format_event,
    null_emitter,
)

#: One constructible example of every event type (field name -> value).
EXAMPLES = {
    "sib_detected": dict(cycle=10, sm_id=0, branch=33, confidence=8),
    "sib_cleared": dict(cycle=11, sm_id=0, branch=33),
    "backoff_enter": dict(cycle=12, sm_id=0, warp_slot=3, cta_id=1),
    "backoff_exit": dict(cycle=13, sm_id=0, warp_slot=3, cta_id=1,
                         delay_until=900),
    "adaptive_delay_update": dict(cycle=14, sm_id=0, delay_limit=1600,
                                  window_total=100, window_sib=40,
                                  direction=1),
    "lock_acquire_success": dict(cycle=15, sm_id=0, warp_slot=2,
                                 addr=4096, lane=7),
    "lock_acquire_fail": dict(cycle=16, sm_id=0, warp_slot=2, addr=4096,
                              lane=7, conflict="inter"),
    "barrier_arrive": dict(cycle=17, sm_id=0, cta_id=1, warp_slot=4),
    "barrier_release": dict(cycle=18, sm_id=0, cta_id=1, released=4),
    "hang_suspected": dict(cycle=19, hang_kind="livelock",
                           reason="no progress"),
    "sanitizer": dict(cycle=20, diag_id="SAN001", severity="error",
                      pc=24, warp_slot=2),
    "checkpoint_saved": dict(cycle=25_000, path="/tmp/run.ckpt",
                             size_bytes=123_456),
    "run_resumed": dict(cycle=25_000, path="/tmp/run.ckpt",
                        spec_hash="a" * 64),
    "issue": dict(cycle=26, sm_id=0, warp_slot=3, cta_id=1, pc=7,
                  opcode="add", active_lanes=32, backed_off=True),
}


def example(cls):
    return cls(**EXAMPLES[cls.kind])


def test_taxonomy_is_complete_and_consistent():
    assert len(EVENT_TYPES) == 14
    assert set(EVENT_KINDS) == set(EXAMPLES)
    for cls in EVENT_TYPES:
        assert EVENT_KINDS[cls.kind] is cls
        fields = [f.name for f in dataclasses.fields(cls)]
        assert fields[0] == "cycle", cls


def test_events_are_frozen():
    event = example(SIBDetected)
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.cycle = 99


@pytest.mark.parametrize("cls", EVENT_TYPES, ids=lambda c: c.kind)
def test_event_dict_round_trip(cls):
    event = example(cls)
    data = event_to_dict(event)
    assert data["event"] == cls.kind
    assert event_from_dict(data) == event


@pytest.mark.parametrize("cls", EVENT_TYPES, ids=lambda c: c.kind)
def test_format_event_is_one_line_with_kind_and_fields(cls):
    event = example(cls)
    text = format_event(event)
    assert "\n" not in text
    assert event.kind in text
    assert f"[{event.cycle:>8}]" in text


def test_null_emitter_accepts_anything_and_returns_none():
    assert null_emitter() is None
    assert null_emitter(cycle=1, sm_id=2, anything="goes") is None


def test_bus_rejects_non_positive_capacity():
    with pytest.raises(ValueError):
        EventBus(capacity=0)
    with pytest.raises(ValueError):
        EventBus(capacity=-5)


def test_emitter_constructs_and_counts_events():
    bus = EventBus()
    emit = bus.emitter(SIBDetected)
    emit(**EXAMPLES["sib_detected"])
    assert len(bus) == 1
    assert bus.counts == {"sib_detected": 1}
    assert bus.total_events == 1
    (event,) = list(bus)
    assert event == example(SIBDetected)


def test_ring_log_evicts_oldest_and_counts_drops():
    bus = EventBus(capacity=3)
    emit = bus.emitter(BackoffEnter)
    for cycle in range(5):
        emit(cycle=cycle, sm_id=0, warp_slot=0, cta_id=0)
    assert len(bus) == 3
    assert bus.dropped == 2
    # Newest three survive; per-kind counts reflect the full run.
    assert [e.cycle for e in bus] == [2, 3, 4]
    assert bus.counts["backoff_enter"] == 5
    assert bus.total_events == 5


def test_events_filter_and_tail():
    bus = EventBus()
    bus.emitter(SIBDetected)(**EXAMPLES["sib_detected"])
    bus.emitter(LockAcquireFail)(**EXAMPLES["lock_acquire_fail"])
    assert [e.kind for e in bus.events()] == ["sib_detected",
                                             "lock_acquire_fail"]
    assert [e.kind for e in bus.events("sib_detected")] == ["sib_detected"]
    assert [e.kind for e in bus.tail(1)] == ["lock_acquire_fail"]
    assert bus.tail(0) == []


def test_subscribers_see_every_event():
    bus = EventBus()
    seen = []
    bus.subscribe(seen.append)
    emit = bus.emitter(BackoffEnter)
    emit(cycle=1, sm_id=0, warp_slot=0, cta_id=0)
    emit(cycle=2, sm_id=0, warp_slot=1, cta_id=0)
    assert [e.cycle for e in seen] == [1, 2]


def test_clear_resets_log_and_counters():
    bus = EventBus(capacity=1)
    emit = bus.emitter(BackoffEnter)
    emit(cycle=1, sm_id=0, warp_slot=0, cta_id=0)
    emit(cycle=2, sm_id=0, warp_slot=0, cta_id=0)
    assert bus.dropped == 1
    bus.clear()
    assert len(bus) == 0 and bus.dropped == 0 and bus.counts == {}
