"""Property-based tests: kernel invariants hold across random workloads.

These are the mutual-exclusion witnesses: whatever the seed, contention
level, or scheduler, every lock-protected update must survive, sums must
be conserved, and no lock may be left held.  Hypothesis drives the
workload parameters; each case fully simulates the kernel.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.kernels import build
from repro.sim.config import GPUConfig
from repro.sim.run import simulate

SLOW = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def config(scheduler="gto", bows=None):
    return GPUConfig.preset("fermi", scheduler=scheduler, bows=bows, num_sms=1,
                       max_warps_per_sm=4, max_cycles=8_000_000)


@SLOW
@given(
    seed=st.integers(0, 1000),
    n_buckets=st.sampled_from([4, 8, 16]),
    scheduler=st.sampled_from(["lrr", "gto", "cawa"]),
)
def test_hashtable_mutual_exclusion(seed, n_buckets, scheduler):
    workload = build("ht", n_threads=64, n_buckets=n_buckets,
                     items_per_thread=1, block_dim=64, seed=seed)
    simulate(workload, config=config(scheduler))  # validate() runs inside


@SLOW
@given(
    seed=st.integers(0, 1000),
    n_accounts=st.sampled_from([8, 16, 32]),
    bows=st.sampled_from([None, 500, True]),
)
def test_atm_balance_conservation(seed, n_accounts, bows):
    workload = build("atm", n_threads=64, n_accounts=n_accounts,
                     rounds=1, block_dim=64, seed=seed)
    simulate(workload, config=config(bows=bows))


@SLOW
@given(seed=st.integers(0, 1000))
def test_tsp_global_minimum(seed):
    workload = build("tsp", n_threads=64, eval_iters=8, block_dim=64,
                     seed=seed)
    simulate(workload, config=config())


@SLOW
@given(
    seed=st.integers(0, 1000),
    n_particles=st.sampled_from([16, 24, 40]),
)
def test_cloth_ledger_replay(seed, n_particles):
    workload = build("ds", n_threads=64, n_particles=n_particles,
                     constraints_per_thread=1, block_dim=64, seed=seed)
    simulate(workload, config=config())


@SLOW
@given(
    n_cols=st.sampled_from([32, 64]),
    direction=st.sampled_from([1, 2]),
    bows=st.sampled_from([None, True]),
)
def test_nw_dataflow_order(n_cols, direction, bows):
    workload = build(f"nw{direction}", n_threads=64, n_cols=n_cols,
                     cell_work=2, block_dim=64)
    simulate(workload, config=config(bows=bows))


@SLOW
@given(seed=st.integers(0, 1000), bows=st.sampled_from([None, 1000]))
def test_tb_no_lost_bodies(seed, bows):
    workload = build("tb", n_threads=64, n_cells=8, items_per_thread=1,
                     block_dim=64, seed=seed)
    simulate(workload, config=config(bows=bows))


@SLOW
@given(n_cells=st.sampled_from([64, 128, 256]))
def test_st_signal_order(n_cells):
    workload = build("st", n_threads=64, n_cells=n_cells, cell_work=2,
                     block_dim=64)
    simulate(workload, config=config())


@SLOW
@given(
    seed=st.integers(0, 1000),
    kernel=st.sampled_from(["kmeans", "vecadd", "stencil", "histogram"]),
)
def test_sync_free_kernels_compute_correctly(seed, kernel):
    params = {"n_threads": 64, "block_dim": 32, "seed": seed}
    if kernel != "reduction":
        params["per_thread"] = 4
    workload = build(kernel, **params)
    simulate(workload, config=config())


def test_lock_table_is_empty_after_every_sync_kernel():
    """No kernel may finish with a lock recorded as held."""
    from repro.memory.memsys import GlobalMemory
    from repro.sim.gpu import GPU

    cases = {
        "ht": dict(n_threads=64, n_buckets=8, items_per_thread=1,
                   block_dim=64),
        "atm": dict(n_threads=64, n_accounts=16, rounds=1, block_dim=64),
        "ds": dict(n_threads=64, n_particles=16,
                   constraints_per_thread=1, block_dim=64),
    }
    for name, params in cases.items():
        workload = build(name, **params)
        gpu = GPU(config(), memory=workload.memory)
        gpu.launch(workload.launch)
        workload.validate(workload.memory)
