"""repro.lab unit tests: specs, cache, runner policies, sweeps.

Real-simulation coverage is kept to a handful of tiny kernels; the
failure-policy paths (timeouts, retries, permanent errors) run against
injected ``run_fn`` stubs so they are fast and deterministic.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.harness.runner import make_config
from repro.kernels import WorkloadReuseError, build
from repro.lab import (
    LabError,
    ResultCache,
    Runner,
    RunSpec,
    Sweep,
    TransientRunError,
    config_from_dict,
    config_to_dict,
    current_runner,
    use_runner,
)
from repro.lab.journal import SweepJournal, load_journal, read_records
from repro.lab.results import RunResult
from repro.lab.spec import _canonical_json
from repro.metrics.stats import SimStats
from repro.sim.config import DDOSConfig
from test_golden_fixtures import LAB_ROWS, check

VECADD = dict(n_threads=64, per_thread=2, block_dim=32)


def vecadd_spec(**config_kwargs) -> RunSpec:
    return RunSpec("vecadd", make_config("gto", **config_kwargs),
                   dict(VECADD))


# ----------------------------------------------------------------------
# RunSpec hashing and config serialization


def test_content_hash_is_stable_and_order_independent():
    a = RunSpec("ht", make_config("gto"), {"n_threads": 64, "n_buckets": 8})
    b = RunSpec("ht", make_config("gto"), {"n_buckets": 8, "n_threads": 64})
    assert a.content_hash() == b.content_hash()
    assert len(a.content_hash()) == 64


def test_content_hash_covers_simulation_inputs():
    base = vecadd_spec()
    assert base.content_hash() != vecadd_spec(bows=1000).content_hash()
    assert base.content_hash() != RunSpec(
        "vecadd", make_config("gto"), dict(VECADD, per_thread=3)
    ).content_hash()
    assert base.content_hash() != RunSpec(
        "vecadd", make_config("gto"), dict(VECADD), seed=7
    ).content_hash()
    assert base.content_hash() != RunSpec(
        "vecadd", make_config("gto"), dict(VECADD), validate=False
    ).content_hash()
    # Labels are presentation-only.
    labelled = RunSpec("vecadd", make_config("gto"), dict(VECADD),
                       label="pretty")
    assert base.content_hash() == labelled.content_hash()


def test_config_round_trip():
    config = make_config("cawa", bows=1500,
                         ddos=DDOSConfig(hashing="modulo"),
                         preset="pascal", num_sms=3)
    rebuilt = config_from_dict(config_to_dict(config))
    assert rebuilt == config
    assert (_canonical_json(config_to_dict(rebuilt))
            == _canonical_json(config_to_dict(config)))


def test_spec_round_trip():
    spec = RunSpec("ht", make_config("gto", bows=True),
                   {"n_threads": 128}, seed=3, validate=False)
    rebuilt = RunSpec.from_dict(spec.to_dict())
    assert rebuilt.content_hash() == spec.content_hash()
    assert rebuilt.build_params() == {"n_threads": 128, "seed": 3}


# ----------------------------------------------------------------------
# Cache


def test_cache_miss_hit_and_code_invalidation(tmp_path):
    cache = ResultCache(tmp_path / "cache", fingerprint="f" * 64)
    spec = vecadd_spec()
    assert cache.get(spec) is None
    result = RunResult(spec_hash=spec.content_hash(), cycles=123,
                       stats=SimStats(cycles=123, warp_instructions=7))
    cache.put(spec, result)

    hit = cache.get(spec)
    assert hit is not None and hit.from_cache
    assert hit.cycles == 123
    assert hit.stats.warp_instructions == 7

    # A different config is a different address -> miss.
    assert cache.get(vecadd_spec(bows=1000)) is None
    # A different code fingerprint invalidates everything.
    stale = ResultCache(tmp_path / "cache", fingerprint="0" * 64)
    assert stale.get(spec) is None


def test_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path / "cache", fingerprint="f" * 64)
    spec = vecadd_spec()
    path = cache.put(spec, RunResult(spec_hash=spec.content_hash(),
                                     cycles=1, stats=SimStats()))
    path.write_text("{not json", encoding="utf-8")
    assert cache.get(spec) is None


def test_cache_stats_and_clear(tmp_path):
    cache = ResultCache(tmp_path / "cache", fingerprint="f" * 64)
    stale = ResultCache(tmp_path / "cache", fingerprint="0" * 64)
    for c, spec in ((cache, vecadd_spec()), (stale, vecadd_spec(bows=500))):
        c.put(spec, RunResult(spec_hash=spec.content_hash(), cycles=1,
                              stats=SimStats()))
    stats = cache.stats()
    assert stats.entries == 2
    assert stats.current_entries == 1 and stats.stale_entries == 1
    assert cache.clear(stale_only=True) == 1
    assert cache.stats().entries == 1
    assert cache.clear() == 1
    assert cache.stats().entries == 0


# ----------------------------------------------------------------------
# Runner: real simulations (serial + thread parity, ddos payload)


def test_runner_serial_real_run_populates_result(tmp_path):
    runner = Runner(workers=1, cache=ResultCache(tmp_path / "c"))
    result = runner.run_one(vecadd_spec())
    assert result.ok and not result.from_cache
    assert result.cycles > 0
    assert result.stats.thread_instructions > 0
    again = runner.run_one(vecadd_spec())
    assert again.from_cache
    assert again.cycles == result.cycles
    assert again.stats.summary() == result.stats.summary()
    report = runner.last_report
    assert report.cache_hits == 1 and report.executed == 0


def test_runner_thread_mode_matches_serial():
    """The ``runner-thread`` way of the equivalence matrix; its serial
    and process siblings run in ``test_golden_fixtures.py``."""
    for row in LAB_ROWS:
        check("runner-thread", row)


def test_runner_attaches_ddos_outcome():
    spec = RunSpec("vecadd", make_config("gto", ddos=True), dict(VECADD))
    result = Runner().run_one(spec)
    assert result.ddos is not None
    assert result.ddos["kernel"] == "vecadd"
    assert "detected_false" in result.ddos


# ----------------------------------------------------------------------
# Runner: failure policy (stubbed run_fn)


def _fake_result(spec: RunSpec) -> RunResult:
    return RunResult(spec_hash=spec.content_hash(), cycles=42,
                     stats=SimStats(cycles=42))


@pytest.mark.parametrize("timeout_s", [0, -1])
def test_non_positive_timeout_is_refused(timeout_s):
    """``setitimer(..., 0)`` disarms the alarm and a negative one raises
    in every run: neither is a time limit, so the execution core both
    front ends build refuses them."""
    from repro.serve import ServeDaemon

    with pytest.raises(ValueError, match="timeout_s"):
        Runner(timeout_s=timeout_s, run_fn=_fake_result).run_one(
            vecadd_spec())
    with pytest.raises(ValueError, match="timeout_s"):
        ServeDaemon("unused.sock", mode="thread", cache=False,
                    timeout_s=timeout_s)


def test_timeout_produces_structured_failure_and_retries():
    def sleepy(spec):
        time.sleep(0.5)
        return _fake_result(spec)

    runner = Runner(workers=1, timeout_s=0.05, retries=1, run_fn=sleepy)
    report = runner.run_many([vecadd_spec()])
    (failure,) = report.results
    assert not failure.ok
    assert failure.error_type == "RunTimeout"
    assert failure.transient
    assert failure.attempts == 2  # original + one retry
    assert report.retried == 1


def test_transient_failure_is_retried_to_success():
    calls = {"n": 0}

    def flaky(spec):
        calls["n"] += 1
        if calls["n"] < 3:
            raise TransientRunError("blip")
        return _fake_result(spec)

    runner = Runner(workers=1, retries=2, run_fn=flaky)
    report = runner.run_many([vecadd_spec()])
    (result,) = report.results
    assert result.ok
    assert result.attempts == 3
    assert report.retried == 2 and report.executed == 1


def test_permanent_failure_fails_fast_without_retry():
    calls = {"n": 0}

    def broken(spec):
        calls["n"] += 1
        raise ValueError("bad parameters")

    runner = Runner(workers=1, retries=3, run_fn=broken)
    report = runner.run_many([vecadd_spec()])
    (failure,) = report.results
    assert not failure.ok and failure.attempts == 1
    assert calls["n"] == 1
    assert failure.error_type == "ValueError"
    assert not failure.transient


def test_one_bad_run_does_not_sink_the_batch():
    def selective(spec):
        if spec.kernel == "ht":
            raise ValueError("boom")
        return _fake_result(spec)

    specs = [vecadd_spec(),
             RunSpec("ht", make_config("gto"), {"n_threads": 64}),
             vecadd_spec(bows=1000)]
    report = Runner(workers=1, run_fn=selective).run_many(specs)
    assert [r.ok for r in report.results] == [True, False, True]
    with pytest.raises(LabError, match="1/3 runs failed"):
        report.raise_on_failure()


def test_run_map_raises_on_failure():
    def broken(spec):
        raise ValueError("nope")

    with pytest.raises(LabError):
        Runner(workers=1, run_fn=broken).run_map([vecadd_spec()])


def test_batch_journal_contents(tmp_path):
    """The journal is the batch's record: one spec, one outcome per run
    and a closing note with the batch's counters."""
    def selective(spec):
        if spec.kernel == "ht":
            raise ValueError("boom")
        return _fake_result(spec)

    runner = Runner(workers=1, run_fn=selective,
                    cache=None)
    specs = [vecadd_spec(), RunSpec("ht", make_config("gto"), {},
                                    label="doomed")]
    with SweepJournal(tmp_path / "batch.jsonl") as journal:
        runner.run_many(specs, journal=journal)
    state = load_journal(tmp_path / "batch.jsonl")
    ok, doomed = (spec.content_hash() for spec in specs)
    assert list(state.specs) == [ok, doomed]
    assert state.executed == 1 and list(state.failed) == [doomed]
    assert state.done[ok]["attempts"] == 1
    assert state.specs[doomed].label == "doomed"
    failed = state.failed[doomed]
    assert (failed["error_type"], failed["message"]) == ("ValueError", "boom")
    (closing,) = state.notes
    assert closing["note"] == "batch_end"
    assert closing["detail"] == {"retried": 0, "worker_losses": 0,
                                 "stragglers": 0, "interrupted": False}


@pytest.mark.parametrize("mode, workers", [("thread", 2), ("serial", 1)])
def test_identical_specs_in_one_batch_simulate_once(tmp_path, mode, workers):
    """A batch is one client of the serve engine: a spec already in
    flight gains a subscriber instead of a second run, with no cache to
    catch it; each slot keeps its own label, in spec order."""
    runs = []

    def counting(spec):
        runs.append(spec.content_hash())
        return _fake_result(spec)

    a, b = vecadd_spec(), vecadd_spec(bows=1000)
    specs = [dataclasses.replace(a, label="a1"),
             dataclasses.replace(a, label="a2"), b]
    runner = Runner(workers=workers, mode=mode, run_fn=counting, cache=None)
    with SweepJournal(tmp_path / "batch.jsonl") as journal:
        report = runner.run_many(specs, journal=journal)
    hashes = [spec.content_hash() for spec in specs]
    assert sorted(runs) == sorted({*hashes})
    assert [r.ok for r in report.results] == [True] * 3
    assert [r.spec_hash for r in report.results] == hashes
    assert [r.label for r in report.results] == ["a1", "a2", None]
    assert [h.status for h in report.handles] == [
        "queued", "attached", "queued"]
    records, _, _ = read_records(tmp_path / "batch.jsonl")
    outcomes = [r["hash"] for r in records if r["kind"] in ("done", "failed")]
    assert sorted(outcomes) == sorted({*hashes})


def test_failed_runs_are_not_cached(tmp_path):
    cache = ResultCache(tmp_path / "c", fingerprint="f" * 64)

    def broken(spec):
        raise ValueError("nope")

    Runner(workers=1, run_fn=broken, cache=cache).run_many([vecadd_spec()])
    assert cache.stats().entries == 0


# ----------------------------------------------------------------------
# Runner: hang policy (satellite of the forward-progress guard)


@pytest.mark.parametrize("hang_type", [
    "SimulationDeadlock", "SimulationLivelock", "SimulationTimeout",
])
def test_hangs_are_never_retried(hang_type):
    """A hang is a deterministic function of the spec: retrying burns a
    worker on the exact same hang, so the retry policy must treat every
    SimulationHang subclass as permanent even with retries configured."""
    import repro.sim.progress as progress

    exc_type = getattr(progress, hang_type)
    calls = {"n": 0}

    def hangs(spec):
        calls["n"] += 1
        raise exc_type("wedged")

    runner = Runner(workers=1, retries=3, run_fn=hangs)
    report = runner.run_many([vecadd_spec()])
    (failure,) = report.results
    assert not failure.ok
    assert calls["n"] == 1 and failure.attempts == 1
    assert not failure.transient
    assert failure.error_type == hang_type
    assert report.retried == 0


def test_hang_report_lands_in_failure_and_journal(tmp_path):
    from repro.sim.progress import HangReport, SimulationLivelock

    def livelocked(spec):
        raise SimulationLivelock("spin forever", HangReport(
            kind="livelock", cycle=9_000, window=4_000, reason="stub"))

    with SweepJournal(tmp_path / "hang.jsonl") as journal:
        report = Runner(workers=1, run_fn=livelocked).run_many(
            [vecadd_spec()], journal=journal)
    (failure,) = report.results
    assert failure.hung
    assert failure.hang["kind"] == "livelock"
    assert "[hang: livelock at cycle 9000]" in failure.describe()

    # The forensics survive the worker as JSON in the failed record.
    (record,) = load_journal(tmp_path / "hang.jsonl").failed.values()
    assert record["error_type"] == "SimulationLivelock"
    assert record["hang"]["cycle"] == 9_000


# ----------------------------------------------------------------------
# Sweep


def test_sweep_cartesian_product_order():
    sweep = Sweep("s", kernel=["ht", "atm"], bows=[None, 1000])
    assert len(sweep) == 4
    assert sweep.combos() == [
        {"kernel": "ht", "bows": None},
        {"kernel": "ht", "bows": 1000},
        {"kernel": "atm", "bows": None},
        {"kernel": "atm", "bows": 1000},
    ]
    with pytest.raises(ValueError, match="no values"):
        sweep.axis("empty", [])


def test_sweep_run_and_journal(tmp_path):
    sweep = Sweep("tiny", kernel=["vecadd"], bows=[None, 500],
                  scale=["quick"])
    journal_path = tmp_path / "sweep.jsonl"
    result = sweep.run(runner=Runner(workers=1, run_fn=_fake_result),
                       journal=journal_path)
    rows = result.rows()
    assert len(rows) == 2
    assert all(row["status"] == "ok" for row in rows)
    assert {row["bows"] for row in rows} == {None, 500}

    state = load_journal(journal_path)
    opening = state.notes[0]
    assert opening["note"] == "sweep"
    assert opening["detail"]["name"] == "tiny"
    assert opening["detail"]["axes"]["bows"] == ["None", "500"]
    assert [n["note"] for n in state.notes] == ["sweep", "batch_end"]
    assert set(state.done) == {r.spec_hash for r in result.report.results}
    assert len(state.specs) == 2 and not state.pending


def test_sweep_specs_get_combo_labels():
    sweep = Sweep("s", kernel=["vecadd"], bows=[500], scale=["quick"])
    (spec,) = sweep.specs()
    assert spec.label == "kernel=vecadd bows=500 scale=quick"
    assert spec.config.bows is not None
    assert spec.params["n_threads"] > 0  # quick registry params applied


def test_sweep_extra_axis_becomes_workload_param():
    sweep = Sweep("s", kernel=["vecadd"], scale=["quick"],
                  per_thread=[4])
    (spec,) = sweep.specs()
    assert spec.params["per_thread"] == 4


# ----------------------------------------------------------------------
# current_runner context


def test_use_runner_scopes_the_current_runner():
    default = current_runner()
    custom = Runner(workers=1, run_fn=_fake_result)
    with use_runner(custom):
        assert current_runner() is custom
    assert current_runner() is default


# ----------------------------------------------------------------------
# Workload single-use guard (satellite)


def test_workload_reuse_raises():
    from repro.api import simulate

    workload = build("vecadd", **VECADD)
    simulate(workload, config=make_config("gto"))
    with pytest.raises(WorkloadReuseError, match="fresh"):
        simulate(workload, config=make_config("gto"))
