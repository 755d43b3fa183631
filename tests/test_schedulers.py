"""Warp-scheduler policies: LRR, GTO (+rotation), CAWA."""

import pytest

from repro.isa import assemble
from repro.sim.config import fermi_config
from repro.sim.schedulers import (
    CAWAScheduler,
    GTOScheduler,
    LRRScheduler,
    make_scheduler,
)
from repro.sim.warp import Warp

PROGRAM = assemble("mov %r1, 0\nexit")


def make_warps(slots, ages=None):
    warps = {}
    for i, slot in enumerate(slots):
        age = ages[i] if ages else i
        warps[slot] = Warp(
            program=PROGRAM, warp_slot=slot, sm_id=0, cta_id=0,
            warp_in_cta=i, cta_dim=128, grid_dim=1, warp_size=32, age=age,
        )
    return warps


def test_factory():
    config = fermi_config()
    for name in ("cawa", "gto", "lrr"):
        scheduler = make_scheduler(name, config, [0, 1])
        assert scheduler.name == name
    with pytest.raises(ValueError, match="unknown scheduler"):
        make_scheduler("fifo", config, [0])


def test_lrr_rotates():
    config = fermi_config()
    sched = LRRScheduler(config, [0, 1, 2, 3])
    warps = make_warps([0, 1, 2, 3])
    ready = {0, 1, 2, 3}
    order = []
    for _ in range(8):
        slot = sched.select(ready, warps, now=0)
        order.append(slot)
        sched.notify_issue(slot, 0)
    assert order == [0, 1, 2, 3, 0, 1, 2, 3]


def test_lrr_skips_unready():
    config = fermi_config()
    sched = LRRScheduler(config, [0, 1, 2, 3])
    warps = make_warps([0, 1, 2, 3])
    slot = sched.select({2, 3}, warps, now=0)
    assert slot == 2
    sched.notify_issue(slot, 0)
    assert sched.select({2, 3}, warps, now=0) == 3


def test_lrr_empty_ready():
    config = fermi_config()
    sched = LRRScheduler(config, [0, 1])
    assert sched.select(set(), make_warps([0, 1]), now=0) is None


def test_gto_greedy_sticks_to_last_issued():
    config = fermi_config()
    sched = GTOScheduler(config, [0, 1, 2])
    warps = make_warps([0, 1, 2])
    first = sched.select({0, 1, 2}, warps, now=0)
    sched.notify_issue(first, 0)
    # Greedy: keeps issuing the same warp while it stays ready.
    assert sched.select({0, 1, 2}, warps, now=1) == first


def test_gto_falls_back_to_oldest():
    config = fermi_config()
    sched = GTOScheduler(config, [0, 1, 2])
    warps = make_warps([0, 1, 2], ages=[5, 1, 9])
    sched.notify_issue(2, 0)
    # Warp 2 (last issued) not ready: pick the oldest ready = slot 1.
    assert sched.select({0, 1}, warps, now=1) == 1


def test_gto_age_rotation():
    config = fermi_config(gto_rotation_period=1000)
    sched = GTOScheduler(config, [0, 1, 2])
    warps = make_warps([0, 1, 2], ages=[0, 1, 2])
    assert sched.select({0, 1, 2}, warps, now=0) == 0
    # After one rotation period the age priority rotates by one.
    assert sched.select({0, 1, 2}, warps, now=1000) == 1
    assert sched.select({0, 1, 2}, warps, now=2000) == 2
    assert sched.select({0, 1, 2}, warps, now=3000) == 0


def test_gto_rotation_avoids_monopoly():
    """Rotation periodically changes which ready warp wins (the paper's
    livelock guard for strict GTO)."""
    config = fermi_config(gto_rotation_period=100)
    sched = GTOScheduler(config, [0, 1])
    warps = make_warps([0, 1], ages=[0, 1])
    winners = set()
    for now in (0, 100):
        winners.add(sched.select({0, 1}, warps, now))
    assert winners == {0, 1}


def test_cawa_selects_most_critical():
    config = fermi_config()
    sched = CAWAScheduler(config, [0, 1, 2])
    warps = make_warps([0, 1, 2])
    warps[1].cawa_nstall = 1000.0  # most critical
    assert sched.select({0, 1, 2}, warps, now=0) == 1


def test_cawa_criticality_formula():
    warps = make_warps([0])
    warp = warps[0]
    warp.cawa_ninst = 10.0
    warp.cawa_cycles = 200.0
    warp.cawa_issued = 50      # CPI = 4
    warp.cawa_nstall = 7.0
    assert warp.criticality == pytest.approx(10.0 * 4.0 + 7.0)


def test_cawa_cpi_floor():
    warps = make_warps([0])
    warp = warps[0]
    warp.cawa_issued = 100
    warp.cawa_cycles = 10.0   # impossible CPI < 1 clamps to 1
    assert warp.cawa_cpi == 1.0


def test_cawa_prioritizes_spinning_warp():
    """The paper's observation: spin loops inflate the remaining-
    instruction estimate, so CAWA ranks spinners as critical."""
    from repro.core.cawa import CAWAPredictor

    program = assemble(
        """
        mov %r1, 0
    LOOP:
        add %r1, %r1, 1
        setp.lt %p1, %r1, 10
        @%p1 bra LOOP
        exit
        """
    )
    warps = {
        0: Warp(program, 0, 0, 0, 0, 64, 1, 32, age=0),
        1: Warp(program, 1, 0, 0, 1, 64, 1, 32, age=1),
    }
    predictor = CAWAPredictor()
    branch = program[3]
    # Warp 0 "spins": repeatedly takes the backward branch.
    for _ in range(20):
        predictor.on_issue(warps[0], branch, 0)
        predictor.on_branch(warps[0], branch, taken_any=True)
    # Warp 1 makes straight-line progress.
    for _ in range(20):
        predictor.on_issue(warps[1], program[0], 0)
    assert warps[0].criticality > warps[1].criticality
