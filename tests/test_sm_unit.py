"""SM internals: readiness, barriers, CTA retirement, occupancy, CAWA."""

import pytest

from repro.isa import assemble
from repro.memory.memsys import GlobalMemory, MemorySubsystem
from repro.metrics.stats import SimStats
from repro.sim.config import GPUConfig, fermi_config
from repro.sim.sm import SM


def make_sm(source="mov %r1, 0\nexit", config=None, params=None,
            **config_overrides):
    if config is None:
        config = fermi_config(num_sms=1, max_warps_per_sm=4,
                              **config_overrides)
    program = assemble(source)
    memory = GlobalMemory(1 << 14)
    # Parameters go in at construction: ``ld.param`` is resolved when
    # the SM decodes the program.
    return SM(0, config, program, dict(params or {}), memory,
              MemorySubsystem(config), {}, SimStats())


def test_launch_cta_fills_slots():
    sm = make_sm()
    sm.launch_cta(0, warps_per_cta=2, cta_dim=64, grid_dim=1, age_base=0)
    assert len(sm.warps) == 2
    assert sm.resident_ctas == 1
    assert not sm.idle


def test_capacity_checks():
    sm = make_sm()
    assert sm.can_accept_cta(4)
    assert not sm.can_accept_cta(5)
    sm.launch_cta(0, 4, 128, 1, 0)
    assert not sm.can_accept_cta(1)
    with pytest.raises(RuntimeError):
        sm.launch_cta(1, 1, 32, 1, 4)


def test_cta_limit():
    sm = make_sm(config=fermi_config(
        num_sms=1, max_warps_per_sm=8, max_ctas_per_sm=2))
    sm.launch_cta(0, 1, 32, 4, 0)
    sm.launch_cta(1, 1, 32, 4, 1)
    assert not sm.can_accept_cta(1)  # CTA limit, not warp limit


def test_warps_retire_and_slots_recycle():
    sm = make_sm()
    sm.launch_cta(0, 2, 64, 1, 0)
    now = 0
    while sm.warps:
        issued = sm.step(now)
        now += 1 if issued else 5
        assert now < 10_000
    assert sm.idle
    assert sm.can_accept_cta(4)


def test_ready_blocks_on_scoreboard():
    sm = make_sm("""
        ld.param %r_a, [x]
        add %r_b, %r_a, 1
        exit
    """, params={"x": 0})
    sm.launch_cta(0, 1, 32, 1, 0)
    (warp,) = sm.warps.values()
    assert sm.step(0) == 1  # ld.param reserves %r_a until +alu_latency
    # The ``add`` reads %r_a: its warp is not ready before the release.
    assert warp._ready_from == sm.config.alu_latency
    assert not warp.at_barrier
    assert sm.step(1) == 0
    assert sm.step(sm.config.alu_latency) == 1


def test_next_event_reflects_scoreboard():
    sm = make_sm("""
        ld.param %r_a, [x]
        add %r_b, %r_a, 1
        exit
    """, params={"x": 0})
    sm.launch_cta(0, 1, 32, 1, 0)
    sm.step(0)
    # The one waiting warp wakes when the scoreboard releases %r_a.
    assert sm.wake == sm.config.alu_latency


def test_barrier_blocks_until_all_arrive():
    # One scheduler: one warp arrives per step.
    sm = make_sm("bar.sync\nexit", num_schedulers_per_sm=1)
    sm.launch_cta(0, 2, 64, 1, 0)
    warps = list(sm.warps.values())
    assert sm.step(0) == 1
    assert [w.at_barrier for w in warps] == [True, False]
    # The waiting warp is not ready, so the step goes to its warp-mate;
    # the last arrival releases everyone.
    assert sm.step(1) == 1
    assert not warps[0].at_barrier
    assert not warps[1].at_barrier


def test_barriers_are_per_cta():
    sm = make_sm("bar.sync\nexit", num_schedulers_per_sm=1)
    sm.launch_cta(0, 1, 32, 2, 0)
    sm.launch_cta(1, 1, 32, 2, 1)
    warps = {w.cta_id: w for w in sm.warps.values()}
    assert sm.step(0) == 1  # the older warp, CTA 0's
    # CTA 0's single warp releases itself immediately; CTA 1 untouched.
    assert warps[0].stack.pc == 1 and not warps[0].at_barrier
    assert warps[1].stack.pc == 0  # has not even reached the barrier


def test_occupancy_accumulation():
    """``_n_live`` / ``_n_backed`` — the counts the cycle loop
    (``Simulation._advance``) weights by each visited interval — track
    the live and backed-off warps after every step."""
    config = GPUConfig.preset("fermi", num_sms=1, max_warps_per_sm=4,
                              bows=1000, ddos=False)
    sm = make_sm("""
        mov %r1, 0
    LOOP:
        add %r1, %r1, 1
        setp.lt %p1, %r1, 3
        @%p1 bra LOOP !sib
        exit
    """, config=config)
    sm.launch_cta(0, 2, 64, 1, 0)
    assert (sm._n_live, sm._n_backed) == (2, 0)
    now = peak_backed = 0
    while sm.warps:
        sm.step(now)
        live = [w for w in sm.warps.values() if not w.finished]
        assert sm._n_live == len(live)
        assert sm._n_backed == sum(w.backed_off for w in live)
        peak_backed = max(peak_backed, sm._n_backed)
        now += 1
        assert now < 100_000
    assert sm._n_live == 0 and peak_backed == 2


def test_issue_counts_stats():
    sm = make_sm()
    sm.launch_cta(0, 1, 32, 1, 0)
    sm.step(0)
    assert sm.stats.warp_instructions == 1
    assert sm.stats.thread_instructions == 32
    # active_lane_sum / issued_slots restate these two; they are
    # derived at the end of a run (Simulation._finish), not per issue.
    assert sm.stats.active_lane_sum == sm.stats.issued_slots == 0


def test_sync_role_classification():
    sm = make_sm("""
        mov %r1, 0 !sync
        mov %r2, 0
        exit
    """)
    sm.launch_cta(0, 1, 32, 1, 0)
    sm.step(0)
    sm.step(10)
    assert sm.stats.sync_thread_instructions == 32
    assert sm.stats.thread_instructions == 64  # useful = thread - sync


def test_cawa_stall_charging():
    config = fermi_config(num_sms=1, max_warps_per_sm=4,
                          scheduler="cawa")
    sm = make_sm(config=config, source="""
        ld.param %r_a, [x]
        add %r_b, %r_a, 1
        exit
    """, params={"x": 0})
    sm.launch_cta(0, 2, 64, 1, 0)
    warps = list(sm.warps.values())
    sm.step(0)
    # Warp that issued is not stalled; advance time and recharge.
    sm.step(3)
    stalls = [w.cawa_nstall for w in warps]
    assert any(s > 0 for s in stalls) or all(
        not w.at_barrier and w._ready_from <= 3 for w in warps
    )
    assert all(w.cawa_cycles >= 0 for w in warps)


def test_partial_cta_masks_invalid_lanes():
    sm = make_sm()
    sm.launch_cta(0, 2, cta_dim=40, grid_dim=1, age_base=0)
    warps = sorted(sm.warps.values(), key=lambda w: w.warp_in_cta)
    assert warps[0].stack.frames[-1].n == 32
    assert warps[1].stack.frames[-1].n == 8
    assert warps[1].profiled_lane == 0
