"""Acceptance tests: the experiment harness on top of repro.lab.

The headline guarantees of the lab migration, asserted end-to-end on
the Figures 10-13 delay sweep (quick scale):

* parallel (process-pool) execution produces row-for-row identical
  ``ExperimentResult`` values to the serial path;
* an immediate re-run against a warm cache completes with *zero* new
  simulations — enforced with a run-count probe that makes any attempt
  to simulate blow up the test.
"""

from __future__ import annotations

import pytest

from repro.harness import experiments as E
from repro.lab import ResultCache, Runner, RunSpec, use_runner

KERNELS = ["ht", "tsp"]
DELAYS = (None, 0, "adaptive")


def _fig_rows(sweep):
    """Project the four figure tables sharing the delay sweep."""
    return {
        "fig10": E.fig10(sweep=sweep).rows,
        "fig11": E.fig11(sweep=sweep).rows,
        "fig12": E.fig12(sweep=sweep).rows,
        "fig13": E.fig13(sweep=sweep).rows,
    }


def _forbid_execution(spec: RunSpec):
    raise AssertionError(
        f"cache miss: {spec.display} was re-simulated on a warm cache"
    )


#: Module-level (picklable) counting wrapper for process workers is not
#: possible across processes; the run-count probe instead uses a serial
#: runner whose run_fn *raises* on any execution attempt.


def test_parallel_sweep_matches_serial_and_reruns_from_cache(tmp_path):
    # 1. Serial reference: default-style runner, no cache.
    with use_runner(Runner(workers=1, mode="serial")):
        serial_sweep = E.run_delay_sweep("quick", KERNELS, DELAYS)
        serial_figs = _fig_rows(serial_sweep)

    # 2. Parallel run through a process pool with a cold disk cache.
    cache = ResultCache(tmp_path / "lab_cache")
    parallel_runner = Runner(workers=2, mode="process", cache=cache)
    with use_runner(parallel_runner):
        parallel_sweep = E.run_delay_sweep("quick", KERNELS, DELAYS)
        parallel_figs = _fig_rows(parallel_sweep)

    report = parallel_runner.last_report
    assert report.total == len(KERNELS) * len(DELAYS)
    assert report.executed == report.total and report.cache_hits == 0

    # Row-for-row identical figure values, serial vs parallel.
    assert parallel_figs == serial_figs

    # 3. Immediate re-run: every result must come from the cache —
    #    the probe run_fn turns any simulation attempt into a failure.
    probe_runner = Runner(workers=1, cache=cache, run_fn=_forbid_execution)
    with use_runner(probe_runner):
        cached_sweep = E.run_delay_sweep("quick", KERNELS, DELAYS)
        cached_figs = _fig_rows(cached_sweep)

    report = probe_runner.last_report
    assert report.executed == 0
    assert report.cache_hits == report.total == len(KERNELS) * len(DELAYS)
    assert all(result.from_cache for result in cached_sweep.values())
    assert cached_figs == serial_figs


def test_process_pool_experiment_matches_serial():
    """A whole figure function, parallel vs serial, identical output."""
    kwargs = dict(scale="quick", kernels=["ht"])
    with use_runner(Runner(workers=1, mode="serial")):
        serial = E.fig2(**kwargs)
    with use_runner(Runner(workers=2, mode="process")):
        parallel = E.fig2(**kwargs)
    assert parallel.rows == serial.rows


def test_evaluate_ddos_through_cache_is_stable(tmp_path):
    """tab1's scoring path survives the result-cache round trip."""
    from repro.harness.ddos_eval import evaluate_ddos
    from repro.harness.params import sync_free_params

    free = sync_free_params("quick")
    kernels = ["vecadd", "ms"]
    cache = ResultCache(tmp_path / "cache")
    from repro.sim.config import DDOSConfig

    with use_runner(Runner(workers=1, cache=cache)):
        fresh = evaluate_ddos(DDOSConfig(), kernels, free)
        cached = evaluate_ddos(DDOSConfig(), kernels, free)
    assert cached.as_row() == fresh.as_row()
    assert [o.kernel for o in cached.outcomes] == kernels


def test_lab_failure_surfaces_as_lab_error():
    """A spec the simulator rejects becomes a structured LabError."""
    from repro.lab import LabError
    from repro.harness.runner import make_config

    bad = RunSpec("ht", make_config("gto"),
                  {"n_threads": 100, "block_dim": 64})  # not a multiple
    runner = Runner(workers=1)
    with pytest.raises(LabError, match="ValueError"):
        runner.run_map([bad])
    # run_many keeps the structured record instead of raising.
    (failure,) = runner.run_many([bad]).results
    assert not failure.ok and failure.attempts == 1
