"""Cross-cutting integration: Pascal preset, determinism, misc paths."""

import pytest

from repro.kernels import build
from repro.sim.config import DDOSConfig, GPUConfig
from repro.sim.run import simulate


def test_pascal_preset_runs_sync_kernel():
    config = GPUConfig.preset("pascal", num_sms=2,
                         max_warps_per_sm=8)
    result = simulate(
        build("ht", n_threads=256, n_buckets=8, items_per_thread=1,
              block_dim=128),
        config=config)
    assert result.cycles > 0


def test_pascal_has_more_schedulers_fewer_warps_each():
    fermi = GPUConfig.preset("fermi")
    pascal = GPUConfig.preset("pascal")
    fermi_per_sched = fermi.max_warps_per_sm / fermi.num_schedulers_per_sm
    pascal_per_sched = (
        pascal.max_warps_per_sm / pascal.num_schedulers_per_sm
    )
    assert pascal_per_sched < fermi_per_sched


def test_simulation_is_deterministic():
    results = []
    for _ in range(2):
        workload = build("ht", n_threads=128, n_buckets=8,
                         items_per_thread=1, block_dim=64, seed=3)
        config = GPUConfig.preset("fermi", bows=True, num_sms=1,
                             max_warps_per_sm=8)
        results.append(simulate(workload, config=config))
    assert results[0].cycles == results[1].cycles
    assert (results[0].stats.warp_instructions
            == results[1].stats.warp_instructions)
    assert (results[0].stats.locks.as_dict()
            == results[1].stats.locks.as_dict())


def test_software_backoff_delay_loop_not_flagged_by_ddos():
    """The Figure 3a clock()-polling loop is a *normal* loop to DDOS:
    its setp sources change every iteration (the clock ticks).  Right
    after a failed acquire the warp is still classified spinning, so
    the delay branch can pick up transient confidence — but it must not
    be a *sustained* prediction once the clock values flow."""
    workload = build("ht_backoff", n_threads=128, n_buckets=8,
                     items_per_thread=1, block_dim=64, delay_factor=50)
    config = GPUConfig.preset("fermi", ddos=DDOSConfig(), num_sms=1,
                         max_warps_per_sm=8)
    result = simulate(workload, config=config)
    truth = workload.launch.program.true_sibs()
    assert truth <= result.predicted_sibs()
    for extra in result.predicted_sibs() - truth:
        assert not any(
            engine.is_sib(extra) for engine in result.ddos_engines
        ), extra


def test_lrr_and_cawa_complete_every_sync_kernel():
    cases = {
        "st": dict(n_threads=64, n_cells=128, cell_work=2, block_dim=32),
        "nw1": dict(n_threads=64, n_cols=32, cell_work=2, block_dim=32),
        "tb": dict(n_threads=64, n_cells=8, items_per_thread=1,
                   block_dim=32),
    }
    for scheduler in ("lrr", "cawa"):
        for kernel, params in cases.items():
            config = GPUConfig.preset("fermi", scheduler=scheduler,
                                      num_sms=1, max_warps_per_sm=4)
            simulate(build(kernel, **params), config=config)


def test_multi_sm_lock_contention_is_tracked_globally():
    """Inter-warp failure classification works across SM boundaries."""
    workload = build("tsp", n_threads=128, eval_iters=4, block_dim=64)
    config = GPUConfig.preset("fermi", num_sms=2, max_warps_per_sm=2)
    result = simulate(workload, config=config)
    # The single global lock is contended across SMs.
    assert result.stats.locks.inter_warp_fail > 0
    assert result.stats.locks.intra_warp_fail == 0  # lane-serialized


def test_energy_populated_on_results():
    workload = build("vecadd", n_threads=64, per_thread=2, block_dim=32)
    result = simulate(workload, config=GPUConfig.preset("fermi", num_sms=1,
                                                max_warps_per_sm=4))
    assert result.stats.dynamic_energy_pj > 0


def test_issue_slot_accounting():
    workload = build("vecadd", n_threads=64, per_thread=2, block_dim=32)
    result = simulate(workload, config=GPUConfig.preset("fermi", num_sms=1,
                                                max_warps_per_sm=4))
    stats = result.stats
    assert stats.issued_slots <= stats.issue_slots
    assert stats.issued_slots == stats.warp_instructions


# The one engine, as a parameter: these cases keep their ``fast`` ids.
@pytest.mark.parametrize("engine", ["fast"])
def test_restated_counters_are_derived_at_the_end_of_a_run(engine):
    """``active_lane_sum``, ``useful_thread_instructions`` and
    ``issued_slots`` restate other counters: nothing counts them per
    issue, ``Simulation._finish`` derives them."""
    workload = build("ht", n_threads=64, n_buckets=8, items_per_thread=1,
                     block_dim=64)
    stats = simulate(workload, config=GPUConfig.preset("fermi", num_sms=1),
                     engine=engine).stats
    assert 0 < stats.sync_thread_instructions < stats.thread_instructions
    assert stats.active_lane_sum == stats.thread_instructions
    assert stats.useful_thread_instructions == (
        stats.thread_instructions - stats.sync_thread_instructions)
    assert stats.issued_slots == stats.warp_instructions
