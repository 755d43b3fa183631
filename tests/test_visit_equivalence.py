"""Fast vs reference, directed at the cycles the fast loop does not visit.

The reference loop steps every SM on every visited cycle and always
visits the cycle after an issue.  The fast loop steps an SM only once its
``wake`` has come and, when no SM wakes on the cycle after an issue,
keeps that cycle *as its issue-slot charge only* — unless a sample
boundary (``watch``), a ``run_until`` / checkpoint stop (``stop``), the
deadlock report (no wake left) or CAWA's per-visit stall charge (``every``)
falls on it.  Each test here names the condition of
``Simulation._advance`` it fails without.
"""

from __future__ import annotations

import pytest

from repro.harness.params import QUICK_PARAMS
from repro.isa import assemble
from repro.kernels import build
from repro.memory.memsys import GlobalMemory
from repro.obs import ObsConfig
from repro.sim.checkpoint import checkpoint_bytes_roundtrip
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPU, KernelLaunch
from repro.sim.progress import SimulationDeadlock, SimulationLivelock
from test_golden_equivalence import _begin
from test_simt_deadlock import NAIVE_SPIN

ENGINES = ("reference", "fast")


@pytest.mark.parametrize("bows", [None, "adaptive"])
@pytest.mark.parametrize("scheduler", ["lrr", "gto", "cawa"])
@pytest.mark.parametrize("kernel", ["ht", "reduction"])  # spin, barrier
def test_issue_slots_are_charged_for_unvisited_cycles(kernel, scheduler,
                                                      bows):
    """``issue_slots`` counts every cycle the reference visits, the ones
    the fast loop only charges included.  Under CAWA no cycle may be
    skipped and no SM left unstepped (``every``): its stall charge reads
    readiness on each visit, and criticality steers the schedule."""
    config = GPUConfig.preset("fermi", scheduler=scheduler, bows=bows)
    reference, fast = (
        _begin(kernel, config, engine)[1].run() for engine in ENGINES)
    assert fast.stats.issue_slots == reference.stats.issue_slots
    assert fast.cycles == reference.cycles
    assert fast.stats.summary() == reference.stats.summary()


def test_cawa_stall_charges_match_on_every_visit():
    """The CAWA counters themselves, read off the live warps at a few
    stops: a merged charge interval (an SM not stepped on a visited
    cycle, or a cycle not visited) moves ``cawa_nstall`` before it
    moves the schedule."""
    config = GPUConfig.preset("fermi", scheduler="cawa")
    sims = [_begin("ht", config, engine)[1] for engine in ENGINES]
    total = _begin("ht", config, "fast")[1].run().cycles
    for stop in range(total // 8, total, total // 8):
        charges = []
        for sim in sims:
            sim.run_until(stop)
            # A run_until stop is about to execute ``now``: charge up
            # to it the way the step at ``now`` will.
            for sm in sim.sms:
                sm._charge_cawa(sim.now)
            charges.append((sim.now, sorted(
                (sm.sm_id, slot, warp.cawa_cycles, warp.cawa_nstall)
                for sm in sim.sms for slot, warp in sm.warps.items())))
        assert charges[0] == charges[1], stop


@pytest.mark.parametrize("interval", [1, 7])
def test_time_series_rows_carry_the_same_cycle_stamps(interval):
    """A sample boundary that lands on the empty cycle after an issue is
    sampled *on* it (``watch``), not on the next wake: every row — its
    ``cycle`` stamp and the deltas closed at it — matches."""
    config = GPUConfig.preset("fermi", scheduler="gto", bows="adaptive")
    reference, fast = (
        _begin("ht", config, engine,
               obs=ObsConfig(sample_interval=interval))[1].run()
        for engine in ENGINES)
    stamps = [row["cycle"] for row in fast.obs.series.rows]
    assert stamps == [row["cycle"] for row in reference.obs.series.rows]
    assert fast.obs.series.rows == reference.obs.series.rows
    assert len(stamps) > 50


def _spin_lock_hang(engine, epoch):
    """The naive spin lock of ``test_simt_deadlock`` under the progress
    guard: (cycles the monitor sampled at, the hang it raised)."""
    memory = GlobalMemory(1 << 12)
    params = {"mutex": memory.alloc(1), "counter": memory.alloc(1)}
    config = GPUConfig.preset(
        "fermi", scheduler="gto", num_sms=1, max_warps_per_sm=4,
        no_progress_window=600, progress_epoch=epoch)
    sim = GPU(config, memory=memory, engine=engine).begin(
        KernelLaunch(assemble(NAIVE_SPIN), 1, 64, params))
    sampled = []
    sample = sim.monitor.sample
    sim.monitor.sample = lambda now: (sampled.append(now), sample(now))
    with pytest.raises(SimulationLivelock) as excinfo:
        sim.run()
    return sampled, excinfo.value.report


@pytest.mark.parametrize("epoch", [1, 5])
def test_progress_monitor_samples_at_the_same_cycles(epoch):
    """The monitor's next threshold is ``now + epoch`` from the cycle it
    was sampled at, so one sample taken late (``watch`` dropped) shifts
    every later one and the cycle the hang is reported at."""
    (ref_sampled, ref_report), (fast_sampled, fast_report) = (
        _spin_lock_hang(engine, epoch) for engine in ENGINES)
    assert fast_sampled == ref_sampled and len(ref_sampled) > 10
    assert fast_report.cycle == ref_report.cycle
    assert fast_report.to_dict() == ref_report.to_dict()


def test_deadlock_report_names_the_same_cycle():
    """A barrier unit that never releases: the last arrival issues at
    ``t`` and nothing can ever wake again, which the reference finds —
    and reports — on the cycle after.  The fast loop must visit that
    cycle for real rather than jump to a wake that does not exist."""
    reports = []
    for engine in ENGINES:
        config = GPUConfig.preset("fermi", scheduler="gto", num_sms=1,
                                  no_progress_window=0)
        sim = GPU(config, engine=engine).begin(
            KernelLaunch(assemble("mov %r1, 0\nbar.sync\nexit"), 1, 64, {}))
        for sm in sim.sms:
            sm._barrier_arrive = lambda *args, **kwargs: None
        with pytest.raises(SimulationDeadlock) as excinfo:
            sim.run()
        assert sim.now == excinfo.value.report.cycle
        reports.append(excinfo.value.report)
    assert reports[1].cycle == reports[0].cycle < 100
    assert reports[1].to_dict() == reports[0].to_dict()


def test_run_until_stops_on_a_cycle_the_loop_would_skip():
    """``run_until(c)`` returns at the same ``now`` when ``c`` is the
    empty cycle after an issue (``stop``), and a checkpoint taken there
    resumes bit-identically."""
    config = GPUConfig.preset("fermi", scheduler="gto", bows="adaptive")
    baseline = _begin("ht", config, "fast")[1].run()

    # Walk the reference one visited cycle at a time: an empty cycle
    # right after an issuing one is what the fast loop only charges.
    sim = _begin("ht", config, "reference")[1]
    visited = []
    while not sim.run_until(sim.now + 1):
        visited.append((sim.now, sim.stats.warp_instructions))
    empties = [
        now for (before, n0), (now, n1), (_, n2)
        in zip(visited, visited[1:], visited[2:])
        if now == before + 1 and n1 > n0 and n2 == n1
    ]
    assert len(empties) > 20

    workload, sim = _begin("ht", config, "fast")
    restored = None
    for cycle in empties:
        assert not sim.run_until(cycle)
        assert sim.now == cycle
        if restored is None and cycle >= baseline.cycles // 2:
            restored = checkpoint_bytes_roundtrip(sim)
    for result in (sim.run(), restored.run()):
        assert result.cycles == baseline.cycles
        assert result.stats.issue_slots == baseline.stats.issue_slots
        assert result.stats.summary() == baseline.stats.summary()
    workload.validate(sim.result.memory)


def test_the_loop_steps_only_where_a_warp_can_act():
    """The count guard.  ``sm.step`` / ``sm.next_event`` are wrapped on
    the instances after ``GPU.begin`` hands them back, as the ledger's
    tracer does: the loop steps an SM about once per instruction it
    issues, not once per visited cycle, and never polls ``next_event``."""
    config = GPUConfig.preset("fermi", scheduler="gto")
    workload = build("ht", **QUICK_PARAMS["ht"])
    sim = GPU(config, memory=workload.memory).begin(workload.launch)
    calls = {"step": 0, "next_event": 0}

    def counted(name, method):
        def call(now):
            calls[name] += 1
            return method(now)
        return call

    for sm in sim.sms:
        sm.step = counted("step", sm.step)
        sm.next_event = counted("next_event", sm.next_event)
    result = sim.run()
    workload.validate(result.memory)
    assert calls["next_event"] == 0
    assert 0 < calls["step"] <= 1.05 * result.stats.warp_instructions
