"""SIMT-induced deadlock (paper Section IV) surfaced by the simulator.

The classic broken pattern::

    while (atomicCAS(mutex, 0, 1) != 0);
    ...critical section...
    atomicExch(mutex, 0);

deadlocks on stack-based SIMT hardware: the lane that wins the lock
parks at the loop's reconvergence point waiting for its spinning
warp-mates, who spin waiting for the winner to release — a cycle.  The
spinners keep issuing instructions, so the hang manifests as a
*livelock*: the simulation makes no forward progress and hits the cycle
cap (:class:`SimulationTimeout`).  The paper's "done flag" rewrite
(Figure 1a) must complete with the same inputs.
"""

import pytest

from conftest import bare_sm, run_program
from repro.memory.memsys import GlobalMemory
from repro.sim.progress import SimulationTimeout

NAIVE_SPIN = """
    ld.param %r_m, [mutex]
    ld.param %r_c, [counter]
SPIN:
    atom.cas %r_old, [%r_m], 0, 1
    setp.ne %p1, %r_old, 0
    @%p1 bra SPIN
    // critical section
    ld.global.cg %r_v, [%r_c]
    add %r_v, %r_v, 1
    st.global [%r_c], %r_v
    atom.exch %r_ig, [%r_m], 0
    exit
"""

DONE_FLAG = """
    ld.param %r_m, [mutex]
    ld.param %r_c, [counter]
    mov %r_done, 0
SPIN:
    atom.cas %r_old, [%r_m], 0, 1
    setp.eq %p1, %r_old, 0
    @%p1 bra CRIT
    bra JOIN
CRIT:
    ld.global.cg %r_v, [%r_c]
    add %r_v, %r_v, 1
    st.global [%r_c], %r_v
    mov %r_done, 1
    membar
    atom.exch %r_ig, [%r_m], 0
JOIN:
    setp.eq %p2, %r_done, 0
    @%p2 bra SPIN
    exit
"""


def _memory_with_lock():
    memory = GlobalMemory(1 << 12)
    mutex = memory.alloc(1)
    counter = memory.alloc(1)
    return memory, {"mutex": mutex, "counter": counter}


def test_naive_spin_lock_hangs(tiny_config):
    memory, params = _memory_with_lock()
    config = tiny_config.replace(max_cycles=60_000)
    with pytest.raises(SimulationTimeout):
        run_program(NAIVE_SPIN, config, block_dim=32,
                    params=params, memory=memory)
    # The winner was parked at reconvergence: the critical section never
    # executed even once, and the lock is still held.
    assert memory.read_word(params["counter"]) == 0
    assert memory.read_word(params["mutex"]) == 1


def test_naive_spin_single_thread_is_fine(tiny_config):
    """With one live lane there is nobody to reconverge with."""
    memory, params = _memory_with_lock()
    result, memory = run_program(NAIVE_SPIN, tiny_config, block_dim=1,
                                 params=params, memory=memory)
    assert memory.read_word(params["counter"]) == 1
    assert memory.read_word(params["mutex"]) == 0


def test_naive_spin_lane_serialized_is_fine(tiny_config):
    """The TSP idiom: serialize lanes so the spinner never shares a warp
    with the lock holder (Figure 6b)."""
    memory, params = _memory_with_lock()
    source = """
        ld.param %r_m, [mutex]
        ld.param %r_c, [counter]
        mov %r_i, 0
    SERIAL:
        setp.eq %p0, %laneid, %r_i
        @!%p0 bra SKIP
    SPIN:
        atom.cas %r_old, [%r_m], 0, 1
        setp.ne %p1, %r_old, 0
        @%p1 bra SPIN
        ld.global.cg %r_v, [%r_c]
        add %r_v, %r_v, 1
        st.global [%r_c], %r_v
        membar
        atom.exch %r_ig, [%r_m], 0
    SKIP:
        add %r_i, %r_i, 1
        setp.lt %p2, %r_i, 32
        @%p2 bra SERIAL
        exit
    """
    result, memory = run_program(source, tiny_config, block_dim=64,
                                 params=params, memory=memory)
    assert memory.read_word(params["counter"]) == 64


def test_done_flag_pattern_completes(tiny_config):
    memory, params = _memory_with_lock()
    result, memory = run_program(DONE_FLAG, tiny_config, block_dim=32,
                                 params=params, memory=memory)
    assert memory.read_word(params["counter"]) == 32
    assert memory.read_word(params["mutex"]) == 0


def test_done_flag_across_warps(small_config):
    memory, params = _memory_with_lock()
    result, memory = run_program(DONE_FLAG, small_config, block_dim=128,
                                 params=params, memory=memory)
    assert memory.read_word(params["counter"]) == 128


def test_deadlock_report_format():
    """The no-event deadlock reporter names stuck warps and the cause."""
    from repro.sim.config import fermi_config
    from repro.sim.progress import build_hang_report

    config = fermi_config(num_sms=1, max_warps_per_sm=4)
    sm = bare_sm("bar.sync\nexit", config)
    sm.launch_cta(cta_id=0, warps_per_cta=1, cta_dim=32, grid_dim=1,
                  age_base=0)
    report = build_hang_report(
        "deadlock", 123, [sm],
        reason="no warp can ever become ready again",
    ).describe()
    assert "cycle 123" in report
    assert "SM0" in report
    assert "SIMT-induced deadlock" in report
