"""The :func:`repro.api.simulate` facade: one entry point, four targets.

Covers target dispatch (name / Workload / KernelLaunch / Program),
config resolution (presets by name, scheduler override, watchdog
vocabulary), argument validation, the single-use workload guard, and
the deprecation path of the old harness entry points.
"""

from __future__ import annotations


import pytest

from repro.api import _resolve_config, simulate
from repro.isa import assemble
from repro.kernels import build as build_workload
from repro.kernels.base import WorkloadReuseError
from repro.memory.memsys import GlobalMemory
from repro.sim.config import GPUConfig
from repro.sim.gpu import KernelLaunch, SimResult

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
    assert _resolve_config(None, None, None) == GPUConfig.preset("fermi")
    assert _resolve_config("pascal", None, None) == \
        GPUConfig.preset("pascal")
    assert _resolve_config(None, "lrr", None).scheduler == "lrr"
    assert _resolve_config(None, None, False).no_progress_window == 0
    assert _resolve_config(None, None, 12345).no_progress_window == 12345
    base = GPUConfig.preset("fermi")
    assert _resolve_config(base, None, True) == base
    overridden = _resolve_config(
        None, None, {"no_progress_window": 99, "progress_epoch": 7})
    assert overridden.no_progress_window == 99
    assert overridden.progress_epoch == 7
    with pytest.raises(TypeError):
        _resolve_config(None, None, 1.5)


def test_engine_selection():
    """``engine=`` names one of ``ENGINES`` (the equivalence matrix holds
    each to the frozen oracle); anything else is refused."""
    with pytest.raises(ValueError, match="engine"):
        simulate("vecadd", params=VECADD, engine="turbo")


def test_legacy_harness_entry_points_removed():
    """The deprecated run_workload/run_kernel shims are gone for good;
    make_config survives (pure configuration, no wiring to drift)."""
    import repro
    import repro.harness
    import repro.harness.runner as runner

    config = runner.make_config("gto")
    assert config == GPUConfig.preset("fermi", scheduler="gto")
    for name in ("run_workload", "run_kernel"):
        assert not hasattr(runner, name)
        assert not hasattr(repro, name)
        assert name not in repro.harness.__all__
    assert "run_workload" not in repro.__all__
