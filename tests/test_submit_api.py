"""The unified submission API: one call shape over both roads.

``submit``/``submit_many`` are the indifference point every tool (CLI,
sweep, fuzz) goes through; these tests pin the handle contract —
``done`` / ``status`` / ``stream()`` / ``outcome()`` / ``result()`` —
in-process and its equivalence with the served road
(server internals get their own workout in ``test_serve.py``).
"""

import threading
import time

import pytest

import repro.lab.core as core_mod
from repro.submit import (Batch, RunFailedError, RunHandle, submit,
                          submit_many)
from repro.lab._testing import fabricate_result
from repro.lab.cache import ResultCache
from repro.lab.journal import RECORD_VERSION, record
from repro.lab.results import RunFailure, RunResult
from repro.lab.runner import Runner
from repro.lab.spec import RunSpec
from repro.obs import ObsConfig
from repro.sim.config import GPUConfig

VECADD = dict(n_threads=64, per_thread=2, block_dim=32)


def _spec(obs=None, label=None, kernel="vecadd", params=VECADD):
    return RunSpec(kernel=kernel, config=GPUConfig.preset("fermi"),
                   params=params, obs=obs, label=label)


def _runner():
    return Runner(workers=1, mode="serial", cache=None, retries=0)


# ----------------------------------------------------------- in-process


def test_local_submit_is_done_immediately():
    handle = submit(_spec(label="eager"), runner=_runner())
    assert isinstance(handle, RunHandle)
    assert handle.done
    assert handle.status == "queued"  # the engine's verdict, as served
    assert handle.wait(0)
    result = handle.result()
    assert isinstance(result, RunResult)
    assert result.cycles > 0
    assert result.label == "eager"


def _phases(handle):
    """A stream as ``(kind, phase)`` pairs (``phase`` of lifecycle marks)."""
    return [(r["kind"], r.get("phase")) for r in handle.stream()]


def test_local_stream_replays_lifecycle_only_without_obs():
    """The stream is what the run spooled: the engine's dispatch mark,
    then the worker's lifecycle marks, and no samples without obs."""
    handle = submit(_spec(), runner=_runner())
    assert _phases(handle) == [("lifecycle", "dispatched"),
                               ("lifecycle", "started"),
                               ("lifecycle", "finished")]
    records = list(handle.stream())
    assert records[-1]["detail"]["cycles"] == handle.result().cycles


def test_local_stream_replays_obs_samples():
    handle = submit(_spec(obs=ObsConfig(sample_interval=100)),
                    runner=_runner())
    kinds = [r["kind"] for r in handle.stream()]
    assert kinds[0] == "lifecycle" and kinds[-1] == "lifecycle"
    assert "sample" in kinds
    rows = handle.result().obs["series"]["rows"]
    assert kinds.count("sample") == len(rows)


@pytest.mark.parametrize("obs", [None, ObsConfig(sample_interval=100)],
                         ids=["no-obs", "obs"])
def test_local_and_served_streams_carry_the_same_marks(daemon, obs):
    """Both roads spool through the one worker entry and fan out through
    the one engine: the same spec streams the same ``(kind, phase)``."""
    spec = _spec(obs=obs, params=dict(VECADD, per_thread=3))
    local = submit(spec, runner=_runner())
    served = submit(spec, server=daemon.address)
    assert served.status == local.status == "queued"
    assert _phases(served) == _phases(local)
    assert served.result(timeout=120).cycles == local.result().cycles


def test_local_failure_surfaces_as_runfailederror():
    bad = _spec(params=dict(VECADD, per_thread=-1))
    handle = submit(bad, runner=_runner())
    assert handle.done
    outcome = handle.outcome()
    assert isinstance(outcome, RunFailure)
    with pytest.raises(RunFailedError) as excinfo:
        handle.result()
    assert excinfo.value.failure is outcome
    # The worker spooled the failure before the engine settled it.
    assert list(handle.stream())[-1]["phase"] == "failed"


def test_retired_engine_settles_once_as_a_run_failure(tmp_path):
    """``RunSpec.engine`` is plain hashed data; only when the spec runs
    does the lab worker's ``GPU`` refuse an engine other than the one.
    The refusal is deterministic, so it settles once: a ``RunFailure``
    on the first attempt, not retried within the budget, not cached."""
    cache = ResultCache(tmp_path / "cache")
    runner = Runner(workers=1, mode="serial", cache=cache, retries=2)
    spec = RunSpec(kernel="vecadd", config=GPUConfig.preset("fermi"),
                   params=VECADD, engine="reference")
    batch = submit_many([spec], runner=runner)
    (outcome,) = batch.outcomes()
    assert isinstance(outcome, RunFailure)
    assert outcome.error_type == "ValueError"
    assert "the one engine is 'fast'" in outcome.message
    assert (outcome.attempts, outcome.transient) == (1, False)
    assert batch.retried == 0
    assert cache.get(spec) is None and cache.stats().entries == 0


def test_submit_many_local_preserves_order_and_report():
    specs = [_spec(label=f"s{i}",
                   params=dict(VECADD, per_thread=2 + i))
             for i in range(3)]
    batch = submit_many(specs, runner=_runner())
    assert isinstance(batch, Batch)
    assert batch.total == 3
    assert batch.report is batch
    results = batch.results()
    assert [r.label for r in results] == ["s0", "s1", "s2"]
    hashes = [h.spec.content_hash() for h in batch.handles]
    assert [r.spec_hash for r in results] == hashes


@pytest.mark.parametrize("road", ["local", "served"])
def test_a_run_nobody_streams_is_not_spooled(daemon, monkeypatch, road):
    """``stream=False`` reaches the engine on both roads: no subscriber
    wants the stream at dispatch, so the worker entry gets no spool path,
    the core makes no spool directory and the handle streams nothing."""
    paths = []
    real = core_mod.serve_entry

    def entry(spec, progress_path, *args):
        paths.append(progress_path)
        return real(spec, progress_path, *args)

    monkeypatch.setattr(core_mod, "serve_entry", entry)
    specs = [_spec(label=f"q{i}", params=dict(VECADD, per_thread=4 + i))
             for i in range(2)]
    if road == "local":
        runner = Runner(workers=2, mode="thread")
        handles = submit_many(specs, runner=runner).handles
        core = runner._core
    else:
        handles = [submit(specs[0], server=daemon.address, stream=False)]
        core = daemon.core
    for handle in handles:
        assert handle.result(timeout=120).cycles > 0
        assert list(handle.stream()) == []
    assert paths == [None] * len(handles)
    assert core.spool_dir is None


# ------------------------------------------------------ server parity


def test_server_backend_matches_local(daemon):
    spec = _spec(obs=ObsConfig(sample_interval=100), label="parity")
    local = submit(spec, runner=_runner()).result()
    handle = submit(spec, server=daemon.address)
    kinds = [r["kind"] for r in handle.stream()]
    served = handle.result(timeout=120)
    assert "sample" in kinds
    a, b = served.to_dict(), local.to_dict()
    for volatile in ("elapsed_s", "phases"):
        a.pop(volatile), b.pop(volatile)
    assert a == b


@pytest.mark.parametrize("road", ["local", "served"])
def test_stream_yields_v1_host_records(daemon, road):
    """Both roads stream records the host record constructor accepts:
    the worker's spool, fanned out by the one engine."""
    spec = _spec(obs=ObsConfig(sample_interval=100), label="records")
    handle = (submit(spec, runner=_runner()) if road == "local"
              else submit(spec, server=daemon.address))
    records = list(handle.stream())
    assert handle.result(timeout=120).cycles > 0
    assert {"lifecycle", "sample"} <= {r["kind"] for r in records}
    for line in records:
        fields = dict(line)
        assert fields.pop("v") == RECORD_VERSION
        assert record(fields.pop("kind"), **fields) == line


def test_submit_many_server_reports_like_local(daemon):
    specs = [_spec(label=f"b{i}", params=dict(VECADD, per_thread=2 + i))
             for i in range(2)]
    batch = submit_many(specs, server=daemon.address)
    assert isinstance(batch, Batch)
    assert batch.failures == []
    assert [r.label for r in batch.outcomes()] == ["b0", "b1"]


def test_both_roads_return_the_same_batch(daemon, tmp_path, monkeypatch):
    """One batch — a spec already cached, a novel one, and its duplicate
    within the batch — tallies and resolves alike on both roads."""
    cached = _spec(label="cached", params=dict(VECADD, per_thread=5))
    novel = _spec(label="novel", params=dict(VECADD, per_thread=6))
    specs = [cached, novel, _spec(label="dup", params=novel.params)]
    runner = Runner(workers=1, mode="thread",
                    cache=ResultCache(tmp_path / "cache"))
    submit_many([cached], runner=runner).results()
    local = submit_many(specs, runner=runner)

    submit(cached, server=daemon.address).result(timeout=120)
    # Hold the daemon's worker until the whole batch is in, so the
    # duplicate attaches to the novel run as it does locally.
    gate, real = threading.Event(), core_mod.serve_entry

    def entry(*args):
        assert gate.wait(30), "the test never released the worker"
        return real(*args)

    monkeypatch.setattr(core_mod, "serve_entry", entry)
    served = submit_many(specs, server=daemon.address)
    gate.set()

    def tally(batch):
        return (batch.total, batch.cache_hits, batch.executed,
                batch.failures)

    assert isinstance(local, Batch) and isinstance(served, Batch)
    assert tally(served) == tally(local) == (3, 1, 2, [])
    assert [h.status for h in served.handles] == [
        h.status for h in local.handles] == [
        "cached", "queued", "attached"]
    assert [(o.label, o.from_cache, o.cycles)
            for o in served.outcomes(timeout=120)] == [
        (o.label, o.from_cache, o.cycles) for o in local.outcomes()]


def test_a_batch_timeout_bounds_the_whole_call():
    """Three runs that never settle: ``timeout`` is one deadline for
    the call, not one per handle."""
    batch = Batch([_spec(label=f"never{i}") for i in range(3)])
    start = time.monotonic()
    with pytest.raises(TimeoutError):
        batch.outcomes(timeout=0.2)
    assert time.monotonic() - start < 0.4


def test_a_batch_timeout_is_not_renewed_per_handle():
    """Runs settling 0.15 s apart each beat a per-handle 0.2 s wait,
    but not one 0.2 s deadline."""
    batch = Batch([_spec(label=f"late{i}") for i in range(3)])
    timers = [threading.Timer(0.15 * (i + 1), handle.send,
                              (None, fabricate_result(handle.spec)))
              for i, handle in enumerate(batch.handles)]
    for timer in timers:
        timer.start()
    start = time.monotonic()
    with pytest.raises(TimeoutError):
        batch.results(timeout=0.2)
    assert time.monotonic() - start < 0.4
    assert len(batch.results(timeout=5)) == 3


def test_batch_results_waits_for_every_run_then_lists_the_failures():
    """All-or-error: ``results()`` raises one :class:`RunFailedError`
    carrying the first failure and naming every one."""
    specs = [_spec(label="bad0", params=dict(VECADD, per_thread=-1)),
             _spec(label="good"),
             _spec(label="bad1", params=dict(VECADD, per_thread=-2))]
    batch = submit_many(specs, runner=_runner())
    with pytest.raises(RunFailedError, match=r"2/3 runs failed") as excinfo:
        batch.results()
    first, good, second = batch.outcomes()
    assert excinfo.value.failure is first and good.ok
    assert "bad0" in str(excinfo.value) and "bad1" in str(excinfo.value)


def test_server_takes_precedence_over_runner(daemon):
    """A tool may pass both: given ``server=``, the daemon runs the spec
    and ``runner=`` is never asked."""
    class Untouchable(Runner):
        def run_many(self, specs, journal=None):
            raise AssertionError("runner used although server= was given")

    before = daemon.status()["counters"]["submitted"]
    handle = submit(_spec(label="both"), server=daemon.address,
                    runner=Untouchable())
    assert handle.status in ("queued", "attached", "cached")
    assert handle.result(timeout=120).cycles > 0
    assert daemon.status()["counters"]["submitted"] == before + 1


@pytest.mark.parametrize("accessor", ["results", "outcomes", "report"])
def test_batch_closes_the_client_it_opened(daemon, accessor):
    """Whichever accessor resolves the last handle releases the
    connection ``submit_many`` opened from an address."""
    specs = [_spec(label=f"c{i}", params=dict(VECADD, per_thread=2 + i))
             for i in range(2)]
    batch = submit_many(specs, server=daemon.address)
    client = batch._client
    assert client is not None and not client._closed
    resolved = getattr(batch, accessor)
    assert len(resolved() if callable(resolved)
               else resolved.outcomes()) == 2
    assert client._closed and batch._client is None
    deadline = time.monotonic() + 10
    while daemon._conns and time.monotonic() < deadline:
        time.sleep(0.01)  # the daemon sees the EOF on its own thread
    assert not daemon._conns


def test_batch_closes_its_client_when_waiting_raises(daemon):
    batch = submit_many([_spec(label="slow", kernel="ht", params={})],
                        server=daemon.address)
    client = batch._client
    with pytest.raises(TimeoutError):
        batch.outcomes(timeout=0)
    assert client._closed


def test_batch_leaves_a_callers_client_open(daemon):
    from repro.serve import ServeClient

    with ServeClient(daemon.address, name="mine") as client:
        submit_many([_spec(label="kept")], server=client).results()
        assert not client._closed and client.ping()
