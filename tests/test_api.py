"""``simulate`` (:mod:`repro.sim.run`): one entry point, four targets.

Covers target dispatch (name / Workload / KernelLaunch / Program),
config resolution (presets by name), argument validation, the
single-use workload guard, and the removal of the old harness entry
points from the package root.
"""

from __future__ import annotations


import pytest

from repro.isa import assemble
from repro.kernels import build as build_workload
from repro.kernels.base import WorkloadReuseError
from repro.memory.memsys import GlobalMemory
from repro.sim.config import GPUConfig
from repro.sim.gpu import KernelLaunch, SimResult
from repro.sim.run import _resolve_config, simulate

VECADD = dict(n_threads=64, per_thread=2, block_dim=64)


def test_simulate_by_name():
    result = simulate("vecadd", params=VECADD)
    assert isinstance(result, SimResult)
    assert result.cycles > 0


def test_simulate_workload_target():
    workload = build_workload("vecadd", **VECADD)
    result = simulate(workload, config=GPUConfig.preset("fermi"))
    assert result.cycles > 0


def test_workload_is_single_use():
    workload = build_workload("vecadd", **VECADD)
    simulate(workload)
    with pytest.raises(WorkloadReuseError):
        simulate(workload)


def test_workload_rejects_memory_and_params():
    workload = build_workload("vecadd", **VECADD)
    with pytest.raises(ValueError, match="memory"):
        simulate(workload, memory=GlobalMemory(256))
    with pytest.raises(ValueError, match="already built"):
        simulate(workload, params={"n_threads": 32})


def test_simulate_program_target():
    """A bare Program runs as one warp; params become ld.param values."""
    program = assemble(
        """
        ld.param %r_d, [dst]
        st.global [%r_d], %tid
        exit
        """
    )
    memory = GlobalMemory(1 << 12)
    dst = memory.alloc(32)
    result = simulate(program, memory=memory, params={"dst": dst})
    assert result.stats.warp_instructions == 3
    # All 32 lanes of the single warp store to the same word: the
    # highest lane lands last.
    assert memory.read_word(dst) == 31


def test_simulate_launch_target_rejects_params():
    program = assemble("exit")
    launch = KernelLaunch(program, grid_dim=1, block_dim=32, params={})
    assert simulate(launch).stats.warp_instructions == 1
    with pytest.raises(ValueError, match="launch.params"):
        simulate(launch, params={"x": 1})


def test_simulate_rejects_unknown_targets_and_configs():
    with pytest.raises(TypeError):
        simulate(42)
    with pytest.raises(TypeError):
        simulate("vecadd", config=3.14)


def test_config_resolution_vocabulary():
    assert _resolve_config(None) == GPUConfig.preset("fermi")
    assert _resolve_config("pascal") == GPUConfig.preset("pascal")
    base = GPUConfig.preset("fermi", scheduler="lrr")
    assert _resolve_config(base) is base
    with pytest.raises(TypeError):
        _resolve_config(1.5)


def test_config_is_the_one_way_to_choose_scheduler_and_watchdog():
    """A scheduler or a watchdog window is a config field, set through
    ``GPUConfig.preset(...)``; ``simulate`` takes no shortcut for them."""
    for shortcut in ({"scheduler": "lrr"}, {"watchdog": False}):
        with pytest.raises(TypeError):
            simulate("vecadd", params=VECADD, **shortcut)
    config = GPUConfig.preset("fermi", scheduler="lrr", no_progress_window=0)
    assert simulate("vecadd", params=VECADD, config=config).cycles > 0


def test_engine_selection():
    """``engine=`` has one legal value; anything else — the retired
    ``reference`` engine included — is refused, naming the one engine."""
    assert simulate("vecadd", params=VECADD, engine="fast").cycles > 0
    for engine in ("turbo", "reference"):
        with pytest.raises(ValueError, match="the one engine is 'fast'"):
            simulate("vecadd", params=VECADD, engine=engine)


def test_legacy_harness_entry_points_removed():
    """The deprecated run_workload/run_kernel shims are gone for good,
    and the package root no longer exports the make_config shorthand:
    a configuration is ``GPUConfig.preset(...)``."""
    import repro
    import repro.harness
    import repro.harness.runner as runner

    for name in ("run_workload", "run_kernel", "make_config"):
        assert not hasattr(repro, name)
        assert name not in repro.__all__
        assert not hasattr(repro.harness, name)
    for name in ("run_workload", "run_kernel"):
        assert not hasattr(runner, name)
