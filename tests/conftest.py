"""Shared fixtures for the unit/integration test suite.

Tests run the simulator at deliberately tiny scale (one or two SMs, a
handful of warps) — behaviour, not magnitude, is under test here; the
paper-scale numbers live in ``benchmarks/``.
"""

from __future__ import annotations

import pytest
from hypothesis import Phase, settings

from repro.sim.config import GPUConfig, fermi_config

#: For a property whose example is a warp's worth of operands, 32 rows
#: run as one kernel: five examples check 160 rows.  A failure is shrunk
#: but not explained (that phase reruns the kernel per row).
LANE_EXAMPLES = settings(max_examples=5, deadline=None,
                         phases=[Phase.explicit, Phase.reuse, Phase.generate,
                                 Phase.shrink])


@pytest.fixture
def tiny_config() -> GPUConfig:
    """One SM, 4 warps, short rotation — fast and deterministic."""
    return fermi_config(
        num_sms=1,
        max_warps_per_sm=4,
        max_ctas_per_sm=4,
        num_schedulers_per_sm=2,
        max_cycles=2_000_000,
    )


@pytest.fixture
def small_config() -> GPUConfig:
    """One SM, 8 warps — enough for contention without slow runs."""
    return fermi_config(
        num_sms=1,
        max_warps_per_sm=8,
        max_ctas_per_sm=8,
        max_cycles=5_000_000,
    )


@pytest.fixture
def dual_sm_config() -> GPUConfig:
    return fermi_config(
        num_sms=2,
        max_warps_per_sm=8,
        max_ctas_per_sm=8,
        max_cycles=5_000_000,
    )


@pytest.fixture
def daemon():
    """A started thread-mode ``ServeDaemon`` with its own cache and
    journal, on a socket path short enough for ``sun_path`` (pytest's
    tmp_path is not)."""
    import os
    import shutil
    import tempfile

    from repro.serve import ServeDaemon

    home = tempfile.mkdtemp(prefix="repro-serve-")
    d = ServeDaemon(os.path.join(home, "serve.sock"), workers=1,
                    mode="thread", cache=os.path.join(home, "cache"),
                    journal=os.path.join(home, "journal.jsonl"))
    d.start()
    yield d
    d.close()
    shutil.rmtree(home, ignore_errors=True)


def run_program(source: str, config: GPUConfig, *, grid_dim: int = 1,
                block_dim: int = 32, params=None, memory=None,
                name: str = "test_kernel"):
    """Assemble and run a snippet; returns (result, memory)."""
    from repro.isa import assemble
    from repro.memory.memsys import GlobalMemory
    from repro.sim.gpu import GPU, KernelLaunch

    program = assemble(source, name=name)
    if memory is None:
        memory = GlobalMemory(1 << 16)
    gpu = GPU(config, memory=memory)
    result = gpu.launch(
        KernelLaunch(program, grid_dim, block_dim, params or {})
    )
    return result, memory


def bare_sm(source: str, config: GPUConfig, *, params=None, memory=None):
    """A freshly built SM with no GPU around it, for tests that poke one."""
    from repro.isa import assemble
    from repro.memory.memsys import GlobalMemory, MemorySubsystem
    from repro.metrics.stats import SimStats
    from repro.sim.sm import SM

    return SM(0, config, assemble(source), dict(params or {}),
              memory if memory is not None else GlobalMemory(256),
              MemorySubsystem(config), {}, SimStats())


def one_warp(source: str, *, block_dim: int = 32, params=None, memory=None):
    """A bare SM holding ``source`` as one CTA of ``block_dim`` threads,
    and its one warp, for tests that step ``sm.step(now)`` themselves."""
    sm = bare_sm(source, fermi_config(num_sms=1), params=params,
                 memory=memory)
    sm.launch_cta(0, 1, block_dim, 1, 0)
    (warp,) = sm.warps.values()
    return sm, warp


def run_warp(source: str, **kwargs):
    """Run ``source`` as one warp (:func:`one_warp`) to its exit and
    return the warp: its registers hold what the handlers wrote."""
    sm, warp = one_warp(source, **kwargs)
    while not warp.finished:
        assert sm.wake < sm.config.max_cycles, "the warp never finished"
        sm.step(sm.wake)
    return warp


def issue(sm, now: int) -> int:
    """Step ``sm`` from cycle ``now`` until it issues; the next cycle."""
    while not sm.step(now):
        now += 1
    return now + 1


def fence_first_workload():
    """A directed kernel that parks warps with ``now < membar_until <``
    their scoreboard release: a long-miss ``ld`` into ``%r_v``, then a
    store that hits in L2, a ``membar`` behind it, and an ``add`` that
    needs ``%r_v``.  Such a warp's next event is its fence although
    nothing can issue when it expires."""
    import numpy as np

    from repro.isa import assemble
    from repro.kernels.base import Workload, require
    from repro.memory.memsys import GlobalMemory
    from repro.sim.gpu import KernelLaunch

    n_threads = 64  # two warps, one CTA
    memory = GlobalMemory(1 << 12)
    src = memory.alloc(n_threads)
    flags = memory.alloc(n_threads)
    out = memory.alloc(n_threads)
    memory.store_array(src, range(100, 100 + n_threads))
    memory.store_array(flags, range(n_threads))
    program = assemble("""
        ld.param %r_src, [src]
        ld.param %r_flags, [flags]
        ld.param %r_out, [out]
        shl %r_off, %gtid, 2
        add %r_src, %r_src, %r_off
        add %r_flags, %r_flags, %r_off
        add %r_out, %r_out, %r_off
        ld.global.cg %r_f, [%r_flags]   // brings the flags line into L2
        add %r_f, %r_f, 1               // ... and waits for it
        ld.global %r_v, [%r_src]        // long miss: L1, L2, DRAM
        st.global [%r_flags], %r_f      // short: hits in L2
        membar                          // fenced until that store lands
        add %r_w, %r_v, 1               // blocked on the ld well past it
        st.global [%r_out], %r_w
        exit
        """, name="fence_first")

    def validate(mem):
        lanes = np.arange(n_threads)
        require((mem.load_array(out, n_threads) == lanes + 101).all(),
                "fence_first: out[i] != src[i] + 1")
        require((mem.load_array(flags, n_threads) == lanes + 1).all(),
                "fence_first: flags[i] != i + 1")

    launch = KernelLaunch(program, 1, n_threads,
                          {"src": src, "flags": flags, "out": out})
    return Workload("fence_first", launch, memory, validate)
