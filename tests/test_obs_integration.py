"""Observability end to end: zero-interference, engine parity, lab, hangs.

The contract the whole subsystem stands on: collection **observes**
the simulation and never participates in it.  Statistics must be
bitwise-identical with obs off and on, and the reference and fast
engines must emit the *same event stream* — the emission sites sit on
shared decision code, so any divergence is an engine bug, not noise.
Both hold against the frozen oracle rather than a second live run.
"""

from __future__ import annotations

import json

import pytest

from conftest import ENGINES
from repro.api import simulate
from repro.isa import assemble
from repro.lab import ResultCache, Runner, RunSpec
from repro.memory.memsys import GlobalMemory
from repro.obs import EVENT_KINDS, ObsConfig, Observability, as_observability
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPU, KernelLaunch
from repro.sim.progress import HangReport, SimulationLivelock
from test_golden_fixtures import check, oracle
from test_golden_fixtures import spec as golden_spec

HT = dict(n_threads=128, n_buckets=8, items_per_thread=1, block_dim=64)


def run_ht(obs=True, bows="adaptive"):
    config = GPUConfig.preset("fermi", scheduler="gto", bows=bows)
    return simulate("ht", config=config, params=dict(HT), obs=obs)


# ----------------------------------------------------------------------
# Zero interference + engine parity: the ``obs`` way of the equivalence
# matrix (``test_golden_fixtures.py``), held to the oracle's rows


@pytest.mark.parametrize("engine", ENGINES)
def test_collection_never_changes_the_simulation(engine):
    check("obs", "ht-small-bows", engine)


def test_engines_emit_identical_event_streams():
    assert oracle()["atm-small-bows"]["event_counts"], \
        "a BOWS+DDOS atm run must emit events"
    for engine in ENGINES:
        check("obs", "atm-small-bows", engine)


def test_engines_emit_identical_barrier_events():
    assert oracle()["reduction-gto"]["event_counts"]["barrier_release"] > 0
    for engine in ENGINES:
        check("obs", "reduction-gto", engine)


def test_a_contended_run_exercises_the_lock_and_bows_taxonomy():
    result = run_ht()
    counts = result.obs.event_counts()
    for kind in ("sib_detected", "backoff_enter", "backoff_exit",
                 "adaptive_delay_update", "lock_acquire_success",
                 "lock_acquire_fail"):
        assert counts.get(kind, 0) > 0, kind
    assert set(counts) <= set(EVENT_KINDS)
    # backoff episodes are balanced: every exit had an enter.
    assert counts["backoff_exit"] <= counts["backoff_enter"]


def test_a_barrier_kernel_emits_barrier_episodes():
    result = simulate("reduction", params=dict(n_threads=128, block_dim=64),
                      obs=True)
    counts = result.obs.event_counts()
    assert counts.get("barrier_arrive", 0) > 0
    assert counts.get("barrier_release", 0) > 0
    # Every release frees at least one warp; arrivals cover releases.
    releases = result.obs.events("barrier_release")
    assert all(e.released >= 1 for e in releases)
    assert counts["barrier_arrive"] >= counts["barrier_release"]


def test_obs_coercion_contract():
    assert as_observability(None) is None
    assert as_observability(False) is None
    obs = as_observability(True)
    assert isinstance(obs, Observability)
    assert as_observability(obs) is obs
    tuned = as_observability(ObsConfig(sample_interval=0))
    assert tuned.config.sample_interval == 0
    with pytest.raises(TypeError):
        as_observability("yes")


def test_events_only_config_skips_the_sampler():
    result = run_ht(obs=ObsConfig(sample_interval=0))
    assert result.obs.series is None
    assert result.obs.events()
    payload = result.obs.to_dict()
    assert "series" not in payload and "events" in payload


# ----------------------------------------------------------------------
# Hang forensics: decision events land in the report tail

LEAKED_LOCK = """
    ld.param %r_m, [mutex]
SPIN:
    atom.cas %r_old, [%r_m], 0, 1 !lock_try !sync
    setp.ne %p1, %r_old, 0
    @%p1 bra SPIN
    exit
"""


def test_hang_report_embeds_last_decision_events(tiny_config):
    config = tiny_config.replace(max_cycles=300_000,
                                 no_progress_window=4_000,
                                 progress_epoch=1_000)
    memory = GlobalMemory(1 << 12)
    mutex = memory.alloc(1)
    program = assemble(LEAKED_LOCK, name="leaked_lock")
    gpu = GPU(config, memory=memory, obs=True)
    with pytest.raises(SimulationLivelock) as excinfo:
        gpu.launch(KernelLaunch(program, 4, 1, {"mutex": mutex}))
    report = excinfo.value.report
    assert report.events_tail, "hang report must carry the event tail"
    assert any("lock_acquire_fail" in line for line in report.events_tail)
    assert "last scheduler/sync decisions:" in report.describe()
    # The guard's own suspicion is on the bus too.
    assert any(e.hang_kind == "livelock"
               for e in gpu.obs.events("hang_suspected"))
    # The tail survives the report's JSON round trip.
    rebuilt = HangReport.from_dict(json.loads(json.dumps(report.to_dict())))
    assert rebuilt.events_tail == report.events_tail


def test_hang_report_without_bus_has_empty_tail(tiny_config):
    config = tiny_config.replace(max_cycles=300_000,
                                 no_progress_window=4_000,
                                 progress_epoch=1_000)
    memory = GlobalMemory(1 << 12)
    mutex = memory.alloc(1)
    program = assemble(LEAKED_LOCK, name="leaked_lock")
    gpu = GPU(config, memory=memory)
    with pytest.raises(SimulationLivelock) as excinfo:
        gpu.launch(KernelLaunch(program, 4, 1, {"mutex": mutex}))
    report = excinfo.value.report
    assert report.events_tail == []
    assert "last scheduler/sync decisions:" not in report.describe()


def test_hang_report_embeds_the_last_issues(tiny_config):
    """With issue recording on, the report's ``trace_tail`` is the last
    32 issues, oldest first, rendered as ``Issue.__str__`` renders them,
    and ``describe()`` prints the last 8; with recording off (a bus, but
    no issue ring) it is empty and ``describe()`` has no such section."""
    import re

    config = tiny_config.replace(max_cycles=300_000,
                                 no_progress_window=4_000,
                                 progress_epoch=1_000)
    program = assemble(LEAKED_LOCK, name="leaked_lock")
    for obs in (Observability(issue_capacity=100), Observability()):
        memory = GlobalMemory(1 << 12)
        mutex = memory.alloc(1)
        gpu = GPU(config, memory=memory, obs=obs)
        with pytest.raises(SimulationLivelock) as excinfo:
            gpu.launch(KernelLaunch(program, 4, 1, {"mutex": mutex}))
        report = excinfo.value.report
        text = report.describe()
        if obs.issues is None:
            assert report.trace_tail == []
            assert "last issued instructions:" not in text
            continue
        heading = text.index("last issued instructions:\n")
        assert text[heading:].splitlines()[1:9] == [
            f"  {line}" for line in report.trace_tail[-8:]]
        assert obs.issues.dropped > 0, "the ring must have wrapped"
        assert report.trace_tail == [
            str(issue) for issue in obs.issues.events()[-32:]]
        assert len(report.trace_tail) == 32
        form = re.compile(
            r"\[ *(\d+)\] SM0 w\d\d cta\d pc=\d+ +[a-z.]+ +lanes=1( B)?")
        cycles = [int(form.fullmatch(line).group(1))
                  for line in report.trace_tail]
        assert cycles == sorted(cycles) and cycles[-1] <= report.cycle
        rebuilt = HangReport.from_dict(
            json.loads(json.dumps(report.to_dict())))
        assert rebuilt.trace_tail == report.trace_tail


# ----------------------------------------------------------------------
# Lab integration: hashing, cache round trip



def make_spec(obs=None):
    return golden_spec("vecadd-gto", obs=obs)


def test_spec_hash_unchanged_when_obs_is_none():
    plain = make_spec()
    assert "obs" not in plain.to_dict()
    assert plain.content_hash() == make_spec().content_hash()
    collected = make_spec(obs=ObsConfig())
    assert collected.content_hash() != plain.content_hash()
    # Different collection settings are different cache entries.
    assert collected.content_hash() != make_spec(
        obs=ObsConfig(sample_interval=500)).content_hash()


def test_spec_obs_survives_dict_round_trip():
    spec = make_spec(obs=ObsConfig(sample_interval=250))
    rebuilt = RunSpec.from_dict(spec.to_dict())
    assert rebuilt.obs == spec.obs
    assert rebuilt.content_hash() == spec.content_hash()
    assert RunSpec.from_dict(make_spec().to_dict()).obs is None


def test_runner_collects_obs_payload_and_caches_it(tmp_path):
    spec = make_spec(obs=ObsConfig(sample_interval=200))
    runner = Runner(workers=1, cache=ResultCache(tmp_path / "c"))
    result = runner.run_one(spec)
    assert result.obs is not None
    assert result.obs["config"]["sample_interval"] == 200
    assert result.obs["series"]["rows"]
    log = result.obs["events"]["log"]
    assert len(log) <= 2_000
    assert result.obs["events"]["total"] >= len(log)
    cached = runner.run_one(spec)
    assert cached.from_cache
    assert cached.obs == result.obs

    plain = runner.run_one(make_spec())
    assert plain.obs is None
    assert result.stats.summary() == oracle()["vecadd-gto"]["summary"]
