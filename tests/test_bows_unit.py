"""BOWS unit behaviour: backed-off queue, pending delays, arbitration."""

import pytest

from repro.core.bows import BOWSUnit
from repro.isa import assemble
from repro.sim.config import BOWSConfig
from repro.sim.warp import Warp

PROGRAM = assemble("mov %r1, 0\nexit")


def make_warp(slot: int) -> Warp:
    return Warp(PROGRAM, slot, 0, 0, slot, 128, 1, 32, age=slot)


def make_unit(**overrides) -> BOWSUnit:
    return BOWSUnit(BOWSConfig(**overrides))


def test_sib_execution_backs_off():
    unit = make_unit()
    warp = make_warp(0)
    unit.on_sib_executed(warp, now=10)
    assert warp.backed_off
    assert 0 in unit.backed_off_slots


def test_fifo_queue_order():
    unit = make_unit()
    warps = {slot: make_warp(slot) for slot in range(3)}
    for slot in (2, 0, 1):
        unit.on_sib_executed(warps[slot], now=slot)
    assert list(unit.queue_order()) == [2, 0, 1]


def test_double_back_off_not_requeued():
    unit = make_unit()
    warp = make_warp(0)
    unit.on_sib_executed(warp, now=1)
    unit.on_sib_executed(warp, now=2)
    assert list(unit.queue_order()) == [0]


def test_issue_exits_backed_off_and_starts_delay():
    unit = make_unit(delay_limit=500)
    warp = make_warp(0)
    unit.on_sib_executed(warp, now=10)
    unit.on_issue(warp, now=20, is_sib=False)
    assert not warp.backed_off
    assert warp.pending_delay_until == 520
    assert 0 not in unit.backed_off_slots


def test_eligibility_gated_by_pending_delay():
    unit = make_unit(delay_limit=1000)
    warp = make_warp(0)
    # First iteration: exit backed-off at t=0, delay runs to t=1000.
    unit.on_sib_executed(warp, now=0)
    unit.on_issue(warp, now=0, is_sib=False)
    # Warp hits the SIB again quickly.
    unit.on_sib_executed(warp, now=50)
    warps = {0: warp}
    assert unit.select_backed_off({0}, now=500, warps_by_slot=warps) is None
    assert unit.select_backed_off({0}, now=1000, warps_by_slot=warps) == 0


def test_select_backed_off_respects_fifo_and_delay():
    unit = make_unit(delay_limit=100)
    warps = {slot: make_warp(slot) for slot in range(2)}
    # Warp 0 backed off with an unexpired delay; warp 1 free to go.
    unit.on_sib_executed(warps[0], now=0)
    unit.on_issue(warps[0], now=0, is_sib=False)
    unit.on_sib_executed(warps[0], now=10)
    unit.on_sib_executed(warps[1], now=20)
    picked = unit.select_backed_off({0, 1}, now=50, warps_by_slot=warps)
    assert picked == 1  # warp 0's delay (until 100) still pending
    picked = unit.select_backed_off({0, 1}, now=100, warps_by_slot=warps)
    assert picked == 0  # delay expired; FIFO order favours warp 0


def test_select_backed_off_ignores_unready():
    unit = make_unit()
    warps = {0: make_warp(0)}
    unit.on_sib_executed(warps[0], now=0)
    assert unit.select_backed_off(set(), now=10, warps_by_slot=warps) is None


def test_warp_reset_clears_queue():
    unit = make_unit()
    warp = make_warp(0)
    unit.on_sib_executed(warp, now=0)
    unit.on_warp_reset(0)
    assert 0 not in unit.backed_off_slots


def test_fixed_delay_limit_property():
    unit = make_unit(delay_limit=777, adaptive=False)
    assert unit.delay_limit == 777


def test_adaptive_paper_mode_uses_controller():
    unit = make_unit(adaptive=True, controller="paper", delay_limit=1000,
                     window=100, delay_step=250, frac1=0.1,
                     max_limit=5000)
    warp = make_warp(0)
    # Saturate a window with SIB issues: the controller must raise the
    # limit once the window closes.
    for now in range(0, 120):
        unit.on_issue(warp, now=now, is_sib=(now % 2 == 0))
    assert unit.delay_limit > 1000


def test_adaptive_hillclimb_mode_tracks_store_rate():
    unit = make_unit(adaptive=True, controller="hillclimb",
                     window=100, delay_step=250)
    warp = make_warp(0)
    assert unit.delay_limit == 0
    # Two windows of improving store rate: the limit climbs.
    for now in range(0, 110):
        unit.on_issue(warp, now=now, is_sib=False, is_store=(now % 4 == 0))
    for now in range(110, 220):
        unit.on_issue(warp, now=now, is_sib=False, is_store=(now % 2 == 0))
    assert unit.delay_limit > 0
