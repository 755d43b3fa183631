"""Workload kernels: build, execute, validate — plus validator strength."""

import numpy as np
import pytest

from repro.kernels import (
    SYNC_FREE_KERNELS,
    SYNC_KERNELS,
    WorkloadError,
    build,
    kernel_names,
)
from repro.sim.config import GPUConfig
from repro.sim.run import simulate

TINY = {
    "ht": dict(n_threads=128, n_buckets=8, items_per_thread=1,
               block_dim=64),
    "atm": dict(n_threads=128, n_accounts=32, rounds=1, block_dim=64),
    "tsp": dict(n_threads=64, eval_iters=8, block_dim=32),
    "ds": dict(n_threads=128, n_particles=32, constraints_per_thread=1,
               block_dim=64),
    "nw1": dict(n_threads=128, n_cols=32, cell_work=4, block_dim=64),
    "nw2": dict(n_threads=128, n_cols=32, cell_work=4, block_dim=64),
    "tb": dict(n_threads=128, n_cells=8, items_per_thread=1,
               block_dim=64),
    "st": dict(n_threads=64, n_cells=128, cell_work=4, block_dim=32),
    "kmeans": dict(n_threads=64, per_thread=4, block_dim=32),
    "ms": dict(n_threads=64, iterations=8, stride=256, block_dim=32),
    "hl": dict(n_threads=64, iterations=8, stride=512, block_dim=32),
    "vecadd": dict(n_threads=64, per_thread=4, block_dim=32),
    "reduction": dict(n_threads=64, block_dim=32),
    "stencil": dict(n_threads=64, per_thread=4, block_dim=32),
    "histogram": dict(n_threads=64, per_thread=4, block_dim=32),
}


def config():
    return GPUConfig.preset("fermi", num_sms=1, max_warps_per_sm=8,
                       max_cycles=5_000_000)


@pytest.mark.parametrize("name", sorted(TINY))
def test_kernel_runs_and_validates(name):
    workload = build(name, **TINY[name])
    result = simulate(workload, config=config())
    assert result.cycles > 0
    assert result.stats.warp_instructions > 0


def test_registry_contents():
    names = kernel_names()
    for name in SYNC_KERNELS + SYNC_FREE_KERNELS:
        assert name in names
    assert "ht_backoff" in names


def test_unknown_kernel_rejected():
    with pytest.raises(KeyError, match="unknown kernel"):
        build("nope")


@pytest.mark.parametrize("name", sorted(SYNC_KERNELS))
def test_sync_kernels_have_true_sibs(name):
    workload = build(name, **TINY[name])
    assert workload.launch.program.true_sibs()


@pytest.mark.parametrize("name", sorted(SYNC_FREE_KERNELS))
def test_sync_free_kernels_have_no_sibs(name):
    workload = build(name, **TINY[name])
    assert not workload.launch.program.true_sibs()


@pytest.mark.parametrize("name", sorted(SYNC_KERNELS))
def test_sync_kernels_record_lock_or_wait_activity(name):
    workload = build(name, **TINY[name])
    result = simulate(workload, config=config())
    assert result.stats.locks.total > 0, name


def test_ht_meta():
    workload = build("ht", **TINY["ht"])
    assert workload.meta["n_items"] == 128
    assert workload.n_threads == 128


def test_ht_backoff_variant_runs():
    workload = build("ht_backoff", delay_factor=50, **TINY["ht"])
    result = simulate(workload, config=config())
    assert result.cycles > 0


def test_ht_validator_catches_lost_insertion():
    workload = build("ht", **TINY["ht"])
    result = simulate(workload, config=config(), validate=False)
    heads = workload.launch.params["heads"]
    # Sever one bucket chain: the validator must notice lost nodes.
    head_words = workload.memory.load_array(heads, TINY["ht"]["n_buckets"])
    victim = int(np.argmax(head_words != 0))
    workload.memory.write_word(heads + 4 * victim, 0)
    with pytest.raises(WorkloadError, match="lost insertions"):
        workload.validate(workload.memory)


def test_atm_validator_catches_lost_update():
    workload = build("atm", **TINY["atm"])
    simulate(workload, config=config(), validate=False)
    accounts = workload.launch.params["accounts"]
    value = workload.memory.read_word(accounts)
    workload.memory.write_word(accounts, value + 1)
    with pytest.raises(WorkloadError, match="not conserved"):
        workload.validate(workload.memory)


def test_tsp_validator_catches_wrong_best():
    workload = build("tsp", **TINY["tsp"])
    simulate(workload, config=config(), validate=False)
    best = workload.launch.params["best_addr"]
    workload.memory.write_word(best, -123)
    with pytest.raises(WorkloadError, match="not the minimum"):
        workload.validate(workload.memory)


def test_nw_validator_catches_dependency_violation():
    workload = build("nw1", **TINY["nw1"])
    simulate(workload, config=config(), validate=False)
    grid = workload.launch.params["grid"]
    width = TINY["nw1"]["n_cols"] + 2
    # Corrupt a computed cell: storage row 1 (first real row), col 5.
    workload.memory.write_word(grid + 4 * (width + 6), 999999)
    with pytest.raises(WorkloadError, match="wavefront cells wrong"):
        workload.validate(workload.memory)


def test_st_validator_catches_premature_run():
    workload = build("st", **TINY["st"])
    simulate(workload, config=config(), validate=False)
    sortd = workload.launch.params["sortd"]
    workload.memory.write_word(sortd + 4, -5)
    with pytest.raises(WorkloadError, match="ran before its parent"):
        workload.validate(workload.memory)


def test_tb_validator_catches_duplicate_ticket():
    workload = build("tb", **TINY["tb"])
    simulate(workload, config=config(), validate=False)
    slots = workload.launch.params["slots"]
    first = workload.memory.read_word(slots)
    workload.memory.write_word(slots + 4, first)  # duplicate an entry
    with pytest.raises(WorkloadError):
        workload.validate(workload.memory)


def test_ds_validator_catches_double_apply():
    workload = build("ds", **TINY["ds"])
    simulate(workload, config=config(), validate=False)
    positions = workload.launch.params["positions"]
    value = workload.memory.read_word(positions)
    workload.memory.write_word(positions, value - 7)
    with pytest.raises(WorkloadError):
        workload.validate(workload.memory)


def test_nw_rejects_bad_geometry():
    from repro.kernels.nw import build_nw

    with pytest.raises(ValueError):
        build("nw1", n_threads=100, n_cols=32)
    with pytest.raises(ValueError):
        build("nw1", n_threads=128, n_cols=33)
    with pytest.raises(ValueError):
        build_nw(direction=3)


def test_grid_geometry_validation():
    with pytest.raises(ValueError, match="multiple of block_dim"):
        build("ht", n_threads=100, block_dim=64)


def test_workloads_are_single_use():
    """Running mutates memory; a fresh build starts clean."""
    first = build("ht", **TINY["ht"])
    simulate(first, config=config())
    second = build("ht", **TINY["ht"])
    heads = second.launch.params["heads"]
    assert (second.memory.load_array(
        heads, TINY["ht"]["n_buckets"]) == 0).all()
