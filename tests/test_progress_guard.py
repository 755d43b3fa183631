"""Forward-progress guard: hang classification, forensics, invariants.

Each deliberately-broken kernel here is a known SIMT failure mode from
the paper's Section IV territory: a leaked lock (acquired, never
released), a barrier reached by only part of the CTA, and a CAS loop on
a flag nobody ever writes.  The guard must classify each hang correctly
(deadlock vs livelock vs slow-but-progressing), within a bounded number
of cycles, and the attached :class:`HangReport` must name the spinning
warps and the contended lock so the report is actionable without rerun.
"""

import json
import pickle

import pytest

from conftest import bare_sm, run_program
from repro.memory.memsys import GlobalMemory
from repro.sim.progress import (
    HangReport,
    InvariantViolation,
    SimulationDeadlock,
    SimulationHang,
    SimulationLivelock,
    SimulationTimeout,
    build_hang_report,
)

# A lock that is acquired and never released.  Run as single-thread CTAs
# so SIMT reconvergence plays no part: the winner simply exits holding
# the lock and every other CTA spins on CAS forever.
LEAKED_LOCK = """
    ld.param %r_m, [mutex]
SPIN:
    atom.cas %r_old, [%r_m], 0, 1 !lock_try !sync
    setp.ne %p1, %r_old, 0
    @%p1 bra SPIN
    exit
"""

# Warp 0 (tids 0..31) waits at a CTA barrier; warp 1 spins on a flag
# that is never written, so the barrier can never be satisfied.
DIVERGED_BARRIER = """
    ld.param %r_f, [flag]
    setp.lt %p0, %tid, 32
    @%p0 bra WAITBAR
SPIN:
    atom.cas %r_old, [%r_f], 1, 2
    setp.ne %p1, %r_old, 1
    @%p1 bra SPIN
WAITBAR:
    bar.sync
    exit
"""

# Every thread CAS-polls a flag that no thread ever sets.
STUCK_FLAG = """
    ld.param %r_f, [flag]
WAIT:
    atom.cas %r_old, [%r_f], 1, 2
    setp.ne %p1, %r_old, 1
    @%p1 bra WAIT
    exit
"""

WINDOW = 4_000
EPOCH = 1_000


def _guard_config(tiny_config, **overrides):
    base = dict(
        max_cycles=300_000,
        no_progress_window=WINDOW,
        progress_epoch=EPOCH,
    )
    base.update(overrides)
    return tiny_config.replace(**base)


def _mem_with(*names):
    memory = GlobalMemory(1 << 12)
    return memory, {name: memory.alloc(1) for name in names}


# ----------------------------------------------------------------------
# Classification


def test_leaked_lock_classified_livelock(tiny_config):
    memory, params = _mem_with("mutex")
    with pytest.raises(SimulationLivelock) as excinfo:
        run_program(LEAKED_LOCK, _guard_config(tiny_config),
                    grid_dim=4, block_dim=1,
                    params=params, memory=memory)
    report = excinfo.value.report
    assert report is not None
    assert report.kind == "livelock"
    # The winner still holds the lock; the spinners name its address.
    assert memory.read_word(params["mutex"]) == 1
    spinners = report.spinning_warps()
    assert spinners, "report must name the spinning warps"
    assert any(w["lock_fail_addr"] == params["mutex"] for w in spinners)
    assert any(lock["addr"] == params["mutex"] for lock in report.locks)


def test_detection_latency_bounded(tiny_config):
    """A livelock must be classified within 2x the no-progress window
    of its onset (window elapses + at most one epoch of sampling lag)."""
    memory, params = _mem_with("mutex")
    with pytest.raises(SimulationLivelock) as excinfo:
        run_program(LEAKED_LOCK, _guard_config(tiny_config),
                    grid_dim=4, block_dim=1,
                    params=params, memory=memory)
    report = excinfo.value.report
    # Onset is within the first epoch (the winner exits in well under
    # 1000 cycles), so 2x the window bounds the classification cycle.
    assert report.cycle <= 2 * WINDOW
    assert report.window >= WINDOW


def test_diverged_barrier_reported(tiny_config):
    """A barrier half the CTA never reaches hangs; the report shows the
    waiting warp at the barrier and the spinner that never arrives."""
    memory, params = _mem_with("flag")
    with pytest.raises(SimulationHang) as excinfo:
        run_program(DIVERGED_BARRIER, _guard_config(tiny_config),
                    block_dim=64, params=params, memory=memory)
    report = excinfo.value.report
    assert report is not None
    waiting = [w for w in report.warps if w["at_barrier"]]
    assert waiting, "the barrier-parked warp must appear in the report"
    assert report.barriers and report.barriers[0]["waiting_slots"]
    # The other warp is the livelock suspect.
    assert report.spinning_warps()


def test_naive_spin_classified_not_timeout(tiny_config):
    """The paper's SIMT-induced deadlock (test_simt_deadlock) is caught
    by classification long before the cycle cap once the watchdog is
    tightened."""
    memory, params = _mem_with("mutex", "counter")
    source = """
        ld.param %r_m, [mutex]
        ld.param %r_c, [counter]
    SPIN:
        atom.cas %r_old, [%r_m], 0, 1 !lock_try !sync
        setp.ne %p1, %r_old, 0
        @%p1 bra SPIN
        ld.global.cg %r_v, [%r_c]
        add %r_v, %r_v, 1
        st.global [%r_c], %r_v
        atom.exch %r_ig, [%r_m], 0 !lock_release !sync
        exit
    """
    with pytest.raises(SimulationLivelock):
        run_program(source, _guard_config(tiny_config),
                    block_dim=32, params=params, memory=memory)


def test_stuck_flag_livelock_all_warps_spin(tiny_config):
    memory, params = _mem_with("flag")
    with pytest.raises(SimulationLivelock) as excinfo:
        run_program(STUCK_FLAG, _guard_config(tiny_config),
                    block_dim=32, params=params, memory=memory)
    report = excinfo.value.report
    live = [w for w in report.warps if not w["finished"]]
    assert live and all(w["issued_in_window"] > 0 for w in live)
    # Spin loop footprint stays tiny (the whole point of the witness).
    assert all(len(w["pc_footprint"]) <= 16 for w in live)


def test_progressing_kernel_not_killed(tiny_config):
    """A long-running but progressing kernel must never be classified
    as hung, even with an aggressive watchdog."""
    source = """
        mov %r_i, 0
        ld.param %r_out, [out]
    LOOP:
        st.global [%r_out], %r_i
        add %r_i, %r_i, 1
        setp.lt %p1, %r_i, 2000
        @%p1 bra LOOP
        exit
    """
    memory, params = _mem_with("out")
    result, memory = run_program(
        source, _guard_config(tiny_config, no_progress_window=600,
                              progress_epoch=150),
        block_dim=1, params=params, memory=memory)
    assert memory.read_word(params["out"]) == 1999


def test_watchdog_disabled_falls_back_to_timeout(tiny_config):
    memory, params = _mem_with("mutex")
    config = _guard_config(tiny_config, no_progress_window=0,
                           max_cycles=30_000)
    with pytest.raises(SimulationTimeout) as excinfo:
        run_program(LEAKED_LOCK, config, grid_dim=4, block_dim=1,
                    params=params, memory=memory)
    report = excinfo.value.report
    assert report is not None and report.kind == "timeout"


def test_timeout_carries_assessment(tiny_config):
    """When the budget expires before a window elapses, the timeout
    report still carries the monitor's live diagnostics."""
    memory, params = _mem_with("mutex")
    config = _guard_config(tiny_config, no_progress_window=500_000,
                           progress_epoch=1_000, max_cycles=20_000)
    with pytest.raises(SimulationTimeout) as excinfo:
        run_program(LEAKED_LOCK, config, grid_dim=4, block_dim=1,
                    params=params, memory=memory)
    report = excinfo.value.report
    assert report.kind == "timeout"
    assert "exceeded max_cycles" in report.reason
    assert report.spinning_warps()


# ----------------------------------------------------------------------
# HangReport plumbing


def test_hang_report_json_round_trip(tiny_config):
    memory, params = _mem_with("mutex")
    with pytest.raises(SimulationLivelock) as excinfo:
        run_program(LEAKED_LOCK, _guard_config(tiny_config),
                    grid_dim=4, block_dim=1,
                    params=params, memory=memory)
    report = excinfo.value.report
    payload = json.dumps(report.to_dict())
    restored = HangReport.from_dict(json.loads(payload))
    assert restored.kind == report.kind
    assert restored.cycle == report.cycle
    assert len(restored.warps) == len(report.warps)
    assert restored.locks == report.locks
    assert "livelock" in restored.describe()


def test_hang_exception_pickles_with_report(tiny_config):
    """Hang exceptions cross process-pool boundaries with forensics
    intact (the lab runner depends on this)."""
    memory, params = _mem_with("mutex")
    with pytest.raises(SimulationLivelock) as excinfo:
        run_program(LEAKED_LOCK, _guard_config(tiny_config),
                    grid_dim=4, block_dim=1,
                    params=params, memory=memory)
    clone = pickle.loads(pickle.dumps(excinfo.value))
    assert isinstance(clone, SimulationLivelock)
    assert clone.report is not None
    assert clone.report.kind == "livelock"
    assert clone.report.cycle == excinfo.value.report.cycle


def test_build_hang_report_without_context():
    """The no-event deadlock path reports with no monitor attached."""
    from repro.sim.config import fermi_config

    config = fermi_config(num_sms=1, max_warps_per_sm=4)
    sm = bare_sm("bar.sync\nexit", config)
    sm.launch_cta(cta_id=0, warps_per_cta=1, cta_dim=32, grid_dim=1,
                  age_base=0)
    report = build_hang_report("deadlock", 42, [sm], reason="test")
    assert report.kind == "deadlock"
    assert report.warps and report.warps[0]["sm"] == 0
    assert "SIMT-induced deadlock" in report.describe()
    json.dumps(report.to_dict())  # must be JSON-clean with no context


def test_deadlock_classification_when_nothing_issues(tiny_config):
    """Synthetic check of the monitor's deadlock branch: warps present,
    nothing issued for a whole window."""
    from repro.sim.config import fermi_config
    from repro.sim.progress import ProgressMonitor

    config = fermi_config(num_sms=1, max_warps_per_sm=4,
                          no_progress_window=100, progress_epoch=50)
    sm = bare_sm("bar.sync\nexit", config)
    sm.launch_cta(cta_id=0, warps_per_cta=1, cta_dim=32, grid_dim=1,
                  age_base=0)
    monitor = ProgressMonitor(config, [sm], sm.memory, sm.stats)
    monitor.sample(50)
    with pytest.raises(SimulationDeadlock) as excinfo:
        monitor.sample(200)
    assert excinfo.value.report.kind == "deadlock"


# ----------------------------------------------------------------------
# Invariant checker


def test_invariants_clean_on_healthy_kernel(tiny_config):
    source = """
        ld.param %r_out, [out]
        setp.lt %p0, %tid, 7
        @%p0 st.global [%r_out], %tid
        bar.sync
        exit
    """
    memory, params = _mem_with("out")
    config = _guard_config(tiny_config, invariant_checks=True,
                           progress_epoch=10, no_progress_window=1000)
    run_program(source, config, block_dim=32, params=params, memory=memory)


def test_invariant_catches_bogus_scoreboard_entry(tiny_config):
    from repro.sim.config import fermi_config
    from repro.sim.progress import InvariantChecker

    config = fermi_config(num_sms=1, max_warps_per_sm=4,
                          invariant_checks=True)
    sm = bare_sm("mov %r_a, 1\nexit", config)
    sm.launch_cta(cta_id=0, warps_per_cta=1, cta_dim=32, grid_dim=1,
                  age_base=0)
    checker = InvariantChecker(config)
    checker.check(0, [sm])  # healthy

    warp = next(iter(sm.warps.values()))
    warp.scoreboard.pending["%r_never_declared"] = 10
    with pytest.raises(InvariantViolation):
        checker.check(1, [sm])


def test_invariant_catches_corrupt_stack_pc(tiny_config):
    from repro.sim.config import fermi_config
    from repro.sim.progress import InvariantChecker

    config = fermi_config(num_sms=1, max_warps_per_sm=4,
                          invariant_checks=True)
    sm = bare_sm("mov %r_a, 1\nexit", config)
    sm.launch_cta(cta_id=0, warps_per_cta=1, cta_dim=32, grid_dim=1,
                  age_base=0)
    checker = InvariantChecker(config)
    warp = next(iter(sm.warps.values()))
    warp.stack.frames[0].pc = 10_000  # way outside the program
    with pytest.raises(InvariantViolation):
        checker.check(0, [sm])
