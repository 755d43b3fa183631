"""End-to-end tests for the ``repro serve`` daemon and its client.

Every test runs a real daemon (thread-mode workers: deterministic and
cheap — the dispatch/dedup/streaming machinery is identical to process
mode) against real simulations over a real Unix socket.  Socket paths
live under ``tempfile.mkdtemp`` because ``sun_path`` is capped at ~108
bytes and pytest tmp_path can exceed it.

Covered guarantees (see ``docs/serve.md``):

* results through the daemon, fresh or cached, land **bitwise** on the
  frozen oracle (``tests/fixtures/golden_summaries.json``);
* concurrent duplicate submissions trigger **exactly one** simulation;
* a cached spec is answered with **no dispatch**;
* a client disconnecting **mid-stream** never disturbs the job or its
  other subscribers, and a subscriber attaching **mid-broadcast** (or a
  second handle registering after the result overtook its ``accepted``
  reply) still gets the result;
* the **queue decides**: a client arriving behind another's backlog is
  served within one turn, the per-client inflight budget holds, and a
  drain interrupts the whole backlog at once;
* SIGTERM **drains to the journal** (subprocess test).
"""

import dataclasses
import os
import queue
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

import pytest

import repro.lab.core as core_mod
import repro.serve.daemon as daemon_mod
from repro.lab._testing import fabricate_result
from repro.lab.cache import ResultCache
from repro.lab.journal import load_journal, read_records
from repro.lab.results import RunFailure, RunResult
from repro.lab.spec import RunSpec
from repro.lab.worker import execute_run
from repro.obs import ObsConfig
from repro.serve import ServeClient, ServeDaemon, ServeError, protocol
from repro.serve.jobstore import Job, JobStore
from repro.sim.config import GPUConfig
from repro.submit import submit_many
from test_golden_fixtures import expect, observe
from test_golden_fixtures import spec as golden_spec

VECADD = dict(n_threads=64, per_thread=2, block_dim=32)
HT = dict(n_threads=64, n_buckets=8, items_per_thread=1, block_dim=64)


def _spec(kernel="vecadd", params=VECADD, obs=None, label=None, **kw):
    return RunSpec(kernel=kernel, config=GPUConfig.preset("fermi"),
                   params=params, obs=obs, label=label, **kw)


@pytest.fixture()
def serve_dir():
    # Short-lived private dir: unix socket + cache + journal + spool.
    path = tempfile.mkdtemp(prefix="repro-serve-test-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture()
def daemon(serve_dir):
    d = ServeDaemon(
        os.path.join(serve_dir, "serve.sock"),
        workers=1, mode="thread",
        cache=ResultCache(os.path.join(serve_dir, "cache")),
        journal=os.path.join(serve_dir, "journal.jsonl"),
        spool_dir=os.path.join(serve_dir, "spool"),
        poll_interval_s=0.01,
        grace_s=10.0,
    )
    d.start()
    yield d
    d.close()


def _client(daemon, name="test"):
    return ServeClient(daemon.address, name=name)


# --------------------------------------------------------- happy path


def test_submit_streams_and_matches_direct_run(daemon):
    """A served run streams samples and lands on the frozen oracle's row,
    fresh and again from the daemon's cache: the served ways of the
    equivalence matrix (``test_golden_fixtures.py``)."""
    spec = golden_spec("ht-small-bows", obs=ObsConfig(), label="obs-run")

    with _client(daemon) as client:
        handle = client.submit(spec)
        assert handle.status == "queued"
        kinds = [m["kind"] for m in handle.stream()]
        served = handle.outcome()
        cached = client.submit(spec).outcome(timeout=60)

    assert isinstance(served, RunResult)
    assert served.from_cache is False and cached.from_cache is True
    assert served.label == "obs-run"
    # The stream carried lifecycle marks and live obs samples.
    assert "lifecycle" in kinds
    assert "sample" in kinds
    for result in (served, cached):
        assert result.spec_hash == spec.content_hash()
        expect("ht-small-bows", observe(result))


def _without(payload, *kinds):
    """An obs payload minus the events only some roads publish
    (``checkpoint_saved`` carries the checkpoint's path, ``run_resumed``
    exists only after a resume)."""
    events = dict(payload["events"])
    events["log"] = [e for e in events["log"] if e["event"] not in kinds]
    events["counts"] = {k: n for k, n in events["counts"].items()
                        if k not in kinds}
    events["total"] = sum(events["counts"].values())
    return {**payload, "events": events}


#: ~4 400 cycles: its epoch of 400 autocheckpoints it ten times.
CHECKPOINTING_ROW = "nw1-small-bows-epoch400"


def _checkpointing_spec():
    return golden_spec(CHECKPOINTING_ROW, obs=ObsConfig(), label="ckpt-obs")


def _expect_uninterrupted(result, *kinds):
    """``result`` is the oracle's uninterrupted run once the events only
    a checkpointing road publishes (``kinds``) are taken out."""
    assert result.spec_hash == _checkpointing_spec().content_hash()
    result.obs = _without(result.obs, *kinds)
    expect(CHECKPOINTING_ROW, observe(result))


def test_obs_run_completes_under_checkpoint_dir(serve_dir):
    """An obs-carrying served run autocheckpoints (the spool feed is a
    subscriber, so no open file rides in the pickle), streams, and
    answers what the uninterrupted run answers."""
    spec = _checkpointing_spec()
    d = ServeDaemon(os.path.join(serve_dir, "ckpt.sock"),
                    workers=1, mode="thread", cache=False,
                    spool_dir=os.path.join(serve_dir, "spool"),
                    checkpoint_dir=os.path.join(serve_dir, "ckpt"),
                    poll_interval_s=0.01)
    d.start()
    try:
        with _client(d) as client:
            handle = client.submit(spec)
            kinds = [m["kind"] for m in handle.stream()]
            served = handle.outcome(timeout=120)
    finally:
        d.close()
    assert isinstance(served, RunResult), served
    assert served.attempts == 1
    assert served.obs["events"]["counts"]["checkpoint_saved"] >= 2
    assert "sample" in kinds and "event" in kinds
    assert os.listdir(os.path.join(serve_dir, "ckpt")) == []

    _expect_uninterrupted(served, "checkpoint_saved")


def test_resumed_run_streams_from_the_resume_cycle(serve_dir, monkeypatch):
    """A first attempt cut short leaves its last autocheckpoint behind;
    the second ``serve_entry`` resumes from it and its spool carries the
    rows and events *after* that point — the restored Observability gets
    the new spool as a subscriber — never a re-send from cycle 0."""
    from repro.lab.worker import ProgressWriter, serve_entry

    spec = _checkpointing_spec()
    ckpt_dir = os.path.join(serve_dir, "ckpt")
    spools = [os.path.join(serve_dir, f"attempt{i}.jsonl") for i in (1, 2)]

    class Cut(Exception):
        pass

    def cut_after_cycle_2000(self, row):
        if row["cycle"] >= 2_000:
            raise Cut
    with monkeypatch.context() as patch:
        patch.setattr(ProgressWriter, "on_row", cut_after_cycle_2000)
        with pytest.raises(Cut):
            serve_entry(spec, spools[0], checkpoint_dir=ckpt_dir)
    assert os.listdir(ckpt_dir) == [f"{spec.content_hash()}.ckpt"]

    result = serve_entry(spec, spools[1], checkpoint_dir=ckpt_dir)
    assert os.listdir(ckpt_dir) == []
    records, _, skipped = read_records(spools[1])
    assert not skipped
    events = [r["event"] for r in records if r["kind"] == "event"]
    rows = [r["row"] for r in records if r["kind"] == "sample"]
    (resumed,) = [e for e in events if e["event"] == "run_resumed"]
    assert 0 < resumed["cycle"] <= 2_000
    assert rows and events[0] == resumed
    assert all(row["cycle"] > resumed["cycle"] for row in rows)
    assert all(event["cycle"] >= resumed["cycle"] for event in events)
    # The stream is the tail of what the result holds in full, and the
    # result is the uninterrupted run's.
    series = result.obs["series"]["rows"]
    assert rows == series[-len(rows):] and len(rows) < len(series)
    _expect_uninterrupted(result, "checkpoint_saved", "run_resumed")


def test_refused_handshake_is_a_serve_error_and_closes_the_socket(
        daemon, monkeypatch):
    opened = []
    real_connect = protocol.connect

    def recording_connect(address, timeout_s=None):
        opened.append(real_connect(address, timeout_s=timeout_s))
        return opened[-1]
    monkeypatch.setattr(protocol, "connect", recording_connect)
    monkeypatch.setattr(
        protocol, "hello_message",
        lambda client=None: {"type": "hello", "protocol": 999,
                             "client": client})
    with pytest.raises(ServeError, match="version"):
        ServeClient(daemon.address, name="old")
    (sock,) = opened
    assert sock.fileno() == -1, "the refused connection must be closed"


def test_cache_hit_answers_without_dispatch(daemon):
    spec = _spec()
    with _client(daemon) as client:
        first = client.submit(spec)
        assert isinstance(first.outcome(timeout=60), RunResult)
        second = client.submit(spec)
        assert second.status == "cached"
        cached = second.outcome(timeout=60)
    assert cached.from_cache is True
    assert cached.cycles == first.outcome().cycles
    status = daemon.status()
    assert status["counters"]["dispatched"] == 1
    assert status["counters"]["cache_hits"] == 1


def test_settled_jobs_are_forgotten_by_client_and_store(daemon):
    """A resident client and daemon hold state only for outstanding
    work: once N cached + M novel submissions have settled on one
    connection neither keeps a handle, a job row or a result, and
    ``status`` still tallies every one of them."""
    novel = [_spec(params=dict(VECADD, per_thread=n)) for n in (2, 3, 4)]
    with _client(daemon) as client:
        handles = submit_many(novel, server=client).handles
        for handle in handles:
            assert isinstance(handle.outcome(timeout=60), RunResult)
        handles += submit_many(novel + novel[:2], server=client).handles
        assert [h.status for h in handles[3:]] == ["cached"] * 5
        for handle in handles:
            assert isinstance(handle.outcome(timeout=60), RunResult)
        assert client._jobs == {}
        assert client._orphans == {}
        status = client.status()
    assert daemon.store._active_by_hash == {}
    assert status["jobs"] == {"done": 3 + 5}


def test_prewarmed_cache_never_dispatches(serve_dir):
    """A spec simulated by a *direct* Runner lands in the shared cache;
    the daemon answers it instantly with zero dispatches."""
    spec = _spec()
    cache = ResultCache(os.path.join(serve_dir, "cache"))
    cache.put(spec, execute_run(spec))
    d = ServeDaemon(os.path.join(serve_dir, "warm.sock"),
                    workers=1, mode="thread", cache=cache)
    d.start()
    try:
        with _client(d) as client:
            handle = client.submit(spec)
            assert handle.status == "cached"
            assert handle.outcome(timeout=60).from_cache is True
        assert d.status()["counters"]["dispatched"] == 0
        assert d.status()["counters"]["cache_hits"] == 1
    finally:
        d.close()


# ------------------------------------------------------------- dedup


@pytest.fixture()
def gated_worker(monkeypatch):
    """Block the worker entry until released — makes in-flight windows
    deterministic instead of racing real simulations."""
    gate = threading.Event()
    real = core_mod.serve_entry

    def gated(spec, *args, **kwargs):
        assert gate.wait(30), "test forgot to release the worker gate"
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(core_mod, "serve_entry", gated)
    return gate


def test_concurrent_duplicates_simulate_exactly_once(daemon, gated_worker):
    """Two clients racing the same spec: one simulation, two results."""
    spec = _spec(label="dup")
    with _client(daemon, "racer-a") as a, _client(daemon, "racer-b") as b:
        ha = a.submit(spec)
        # Wait until the job is dispatched (parked at the gate), the
        # widest possible in-flight window.
        deadline = time.monotonic() + 10
        while daemon.status()["counters"]["dispatched"] < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        hb = b.submit(dataclasses.replace(spec, label="dup-b"))
        assert hb.status == "attached"
        gated_worker.set()
        ra, rb = ha.outcome(timeout=60), hb.outcome(timeout=60)

    assert isinstance(ra, RunResult) and isinstance(rb, RunResult)
    assert ra.cycles == rb.cycles
    assert (ra.label, rb.label) == ("dup", "dup-b")  # each keeps its own
    counters = daemon.status()["counters"]
    assert counters["dispatched"] == 1      # exactly one simulation
    assert counters["attached"] == 1
    assert counters["completed"] == 1


def test_duplicates_on_one_connection_get_each_record_once(
        daemon, gated_worker):
    """Three submissions of one spec on one connection share a job: the
    daemon sends its progress once on that connection and the client
    hands each record to every handle that streams it, once, and to no
    other."""
    spec = _spec(obs=ObsConfig(sample_interval=100), label="thrice")
    with _client(daemon) as client:
        first = client.submit(spec)
        next(first.stream())  # the dispatch mark: the job is in flight
        second, quiet = client.submit(spec), client.submit(spec,
                                                           stream=False)
        assert (second.status, quiet.status) == ("attached", "attached")
        gated_worker.set()
        rows = first.outcome(timeout=60).obs["series"]["rows"]
        got = {name: [m["data"] for m in handle.stream()] for name, handle
               in (("first", first), ("second", second), ("quiet", quiet))}
    marks = {name: [r["phase"] for r in records if r["kind"] == "lifecycle"]
             for name, records in got.items()}
    assert marks == {"first": ["dispatched", "started", "finished"],
                     "second": ["started", "finished"], "quiet": []}
    # The second attached before its worker started: it missed only the
    # dispatch mark.
    assert got["second"] == got["first"][1:]
    assert [r["row"] for r in got["first"] if r["kind"] == "sample"] == rows


def test_duplicate_while_queued_attaches(daemon, gated_worker):
    """The dedup window also covers the queue, not just running jobs:
    with one gated worker, a second distinct spec sits queued and its
    duplicate attaches to it."""
    occupier, queued = _spec(label="occupier"), _spec(params=HT, kernel="ht")
    with _client(daemon) as client:
        h0 = client.submit(occupier)     # occupies the only worker
        h1 = client.submit(queued)       # waits in the scheduler
        h2 = client.submit(queued)       # duplicate of the queued job
        assert h1.status == "queued"
        assert h2.status == "attached"
        gated_worker.set()
        assert isinstance(h0.outcome(timeout=60), RunResult)
        r1, r2 = h1.outcome(timeout=60), h2.outcome(timeout=60)
    assert r1.cycles == r2.cycles
    assert daemon.status()["counters"]["dispatched"] == 2


# -------------------------------------------------------- disconnects


def test_client_disconnect_mid_stream_keeps_job_alive(daemon, gated_worker):
    """A subscriber vanishing mid-run never cancels the shared work:
    the surviving subscriber still gets the result, and the result
    still lands in the cache for the next asker."""
    spec = _spec(obs=ObsConfig(sample_interval=100), label="survivor")
    doomed = _client(daemon, "doomed")
    keeper = _client(daemon, "keeper")
    try:
        hd = doomed.submit(spec)
        deadline = time.monotonic() + 10
        while daemon.status()["counters"]["dispatched"] < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        hk = keeper.submit(spec)
        assert hk.status == "attached"
        # The doomed client hangs up while its job is mid-flight.
        doomed.close()
        gated_worker.set()
        result = hk.outcome(timeout=60)
        assert isinstance(result, RunResult)
        assert result.label == "survivor"
        # The daemon shrugged off the dead socket: still answering.
        assert keeper.ping()
        rerun = keeper.submit(spec)
        assert rerun.status == "cached"
        assert rerun.outcome(timeout=60).from_cache is True
    finally:
        doomed.close()
        keeper.close()
    assert hd.done  # aborted client-side when the connection dropped


def test_connection_loss_fails_outstanding_handles(daemon, gated_worker):
    spec = _spec(label="orphaned")
    client = _client(daemon)
    handle = client.submit(spec)
    client.close()
    gated_worker.set()
    assert handle.wait(10)
    with pytest.raises(ServeError, match="connection lost"):
        handle.outcome()


def test_subscriber_attached_during_a_broadcast_is_kept():
    """``Job.broadcast`` must not drop a subscriber that
    ``JobStore.submit`` attaches while one of its sends is blocked."""
    entered, release = threading.Event(), threading.Event()

    class Subscriber:
        wants_stream = True

        def __init__(self, blocks=False):
            self.blocks, self.got = blocks, []

        def send(self, job, item):
            kind = "progress" if isinstance(item, dict) else "result"
            if self.blocks and kind == "progress":
                entered.set()
                assert release.wait(10)
            self.got.append(kind)
            return True

    store = JobStore(cache=None)
    slow, late = Subscriber(blocks=True), Subscriber()
    job, _ = store.submit(_spec(), client="a", subscriber=slow)
    sender = threading.Thread(target=job.broadcast,
                              args=({"kind": "lifecycle"},), daemon=True)
    sender.start()
    assert entered.wait(10)
    _, status = store.submit(_spec(), client="b", subscriber=late)
    assert status == "attached"
    release.set()
    sender.join(10)
    assert not sender.is_alive()
    job.broadcast(fabricate_result(job.spec))
    assert slow.got == ["progress", "result"]
    assert late.got == ["result"]


def _scripted_client(monkeypatch, replies):
    """A :class:`ServeClient` whose daemon is a script: each message the
    client sends after ``hello`` puts the next list of ``replies`` on
    its inbox."""
    replies = iter(replies)

    class ScriptedStream:
        def __init__(self, _sock):
            self.inbox = queue.Queue()

        def send(self, message):
            # A submit goes out as an encoded line, the hello as a dict.
            hello = isinstance(message, dict) and message["type"] == "hello"
            for reply in ([{"type": "hello_ack",
                            "protocol": protocol.PROTOCOL_VERSION}]
                          if hello else next(replies)):
                self.inbox.put(reply)

        def recv(self):
            return self.inbox.get()

        def close(self):
            self.inbox.put(None)

        def close_reader(self):
            pass

    monkeypatch.setattr(protocol, "connect", lambda *a, **kw: None)
    monkeypatch.setattr(protocol, "MessageStream", ScriptedStream)
    return ServeClient("scripted")


def _result_message(job_id, result):
    return {"type": "result", "job_id": job_id, "label": result.label,
            "attempts": 1, "from_cache": False, "result": result.to_dict()}


def test_result_overtaking_accepted_reaches_the_second_handle(monkeypatch):
    """The daemon's result broadcast and a resubmission's ``accepted``
    reply race on the socket; scripted here in the losing order: the
    second handle registers after the reader already routed the result
    to the first, and must still resolve."""
    spec = _spec(label="twice")
    accepted = {"type": "accepted", "job_id": "j1",
                "spec_hash": spec.content_hash()}
    with _scripted_client(monkeypatch, [
        [{**accepted, "status": "queued"}],
        [_result_message("j1", execute_run(spec)),
         {**accepted, "status": "attached"}],
    ]) as client:
        first = client.submit(spec)
        second = client.submit(spec)
        assert second.status == "attached"
        assert first.wait(10) and second.wait(10)
        assert second.outcome().cycles == first.outcome().cycles
        # The late handle was settled from the seen-terminal record and
        # must not stay registered for a message that will never come.
        assert client._jobs == {}


def test_a_drifted_result_aborts_only_its_handle(monkeypatch):
    """A ``result`` record that is not exactly v1 fails the handle it
    was for with a ServeError naming the drift; the connection and the
    other jobs on it carry on."""
    bad, good = _spec(seed=1), _spec(seed=2)
    drifted = _result_message("j1", fabricate_result(bad, cycles=7))
    drifted["result"]["surprise"] = 1
    with _scripted_client(monkeypatch, [
        [{"type": "accepted", "job_id": "j1", "status": "queued",
          "spec_hash": bad.content_hash()}],
        [{"type": "accepted", "job_id": "j2", "status": "queued",
          "spec_hash": good.content_hash()}, drifted,
         _result_message("j2", fabricate_result(good, cycles=9))],
    ]) as client:
        first, second = client.submit(bad), client.submit(good)
        with pytest.raises(ServeError, match="surprise"):
            first.outcome(timeout=10)
        assert second.outcome(timeout=10).cycles == 9


# ----------------------------------------------------------- protocol


def test_protocol_version_mismatch_refused(daemon):
    from repro.serve import protocol

    sock = protocol.connect(daemon.address, timeout_s=10)
    stream = protocol.MessageStream(sock)
    try:
        stream.send({"type": "hello", "protocol": 999, "client": "old"})
        reply = stream.recv()
        assert reply["type"] == "error"
        assert "version" in reply["message"]
    finally:
        stream.close()
        stream.close_reader()


def test_status_and_ping(daemon):
    with _client(daemon) as client:
        assert client.ping()
        status = client.status()
    assert status["type"] == "status"
    assert status["mode"] == "thread"
    assert status["workers"] == 1
    assert set(daemon_mod.COUNTER_NAMES) <= set(status["counters"])


def test_submit_refused_while_draining(daemon, gated_worker):
    # A gated in-flight job keeps the daemon in the draining state
    # (grace period) instead of stopping instantly.
    with _client(daemon) as client:
        running = client.submit(_spec(label="inflight"))
        deadline = time.monotonic() + 10
        while daemon.status()["counters"]["dispatched"] < 1:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        daemon.request_shutdown(drain=True)
        with pytest.raises(ServeError, match="draining"):
            client.submit(_spec(kernel="ht", params=HT))
        gated_worker.set()
        # The in-flight run still finishes and reaches its subscriber.
        assert isinstance(running.outcome(timeout=60), RunResult)


# ------------------------------------- the queue decides (by injection)


@pytest.fixture()
def gated_recorder(monkeypatch):
    """A worker entry that notes the label it was handed, waits for the
    gate and fabricates a result: ``(gate, started)``.  ``started`` is
    the order runs reached a worker in — with one worker, the order the
    core dispatched them in."""
    gate, started = threading.Event(), []

    def entry(spec, *_serve_entry_args):
        started.append(spec.label)
        assert gate.wait(30), "test forgot to release the worker gate"
        return fabricate_result(spec)

    monkeypatch.setattr(core_mod, "serve_entry", entry)
    return gate, started


def _backlog(client, name, n):
    """``n`` specs no other client submits, labelled ``<name><i>``."""
    return submit_many(
        [_spec(seed=100 * ord(name) + i, label=f"{name}{i}")
         for i in range(n)], server=client).handles


def _await(condition):
    deadline = time.monotonic() + 10
    while not condition():
        assert time.monotonic() < deadline
        time.sleep(0.01)


@pytest.mark.parametrize("backlog", [6, 15])
def test_late_client_waits_one_turn_not_the_backlog(
        daemon, gated_recorder, backlog):
    """One worker, A queues ``backlog`` jobs, then B asks for one: of
    the dispatches made after B arrived, B's is among the first two —
    it waits for the window (one running, one staged) and one turn of
    A, however long A's backlog is."""
    gate, started = gated_recorder
    with _client(daemon, "A") as a, _client(daemon, "B") as b:
        handles = _backlog(a, "a", backlog)
        # The window: one job on the worker, one staged behind it.  (A
        # job is queued just after its ``accepted`` goes out: wait.)
        _await(lambda: daemon.status()["jobs"]
               == {"queued": backlog - 2, "running": 2})
        assert daemon.status()["pending_by_client"] == {"A": backlog - 2}
        handles += _backlog(b, "b", 1)
        _await(lambda: daemon.status()["pending_by_client"]
               == {"A": backlog - 2, "B": 1})
        assert daemon.status()["counters"]["dispatched"] == 2
        gate.set()
        for handle in handles:
            assert isinstance(handle.outcome(timeout=60), RunResult)
    assert sorted(started) == sorted(h.spec.label for h in handles)
    assert "b0" in started[2:4], started
    assert daemon.status()["jobs"] == {"done": backlog + 1}


def test_inflight_budget_holds_with_idle_workers(serve_dir, gated_recorder):
    """``max_inflight_per_client=1``, two workers: A's second job stays
    queued beside an idle worker, which B's job then takes."""
    gate, started = gated_recorder
    d = ServeDaemon(os.path.join(serve_dir, "budget.sock"), workers=2,
                    mode="thread", cache=False, max_inflight_per_client=1,
                    poll_interval_s=0.01).start()
    try:
        with _client(d, "A") as a, _client(d, "B") as b:
            handles = _backlog(a, "a", 3)
            _await(lambda: d.status()["pending_by_client"] == {"A": 2})
            handles += _backlog(b, "b", 1)
            _await(lambda: started == ["a0", "b0"])
            _await(lambda: d.status()["jobs"] == {"queued": 2,
                                                  "running": 2})
            assert d.status()["pending_by_client"] == {"A": 2}
            gate.set()
            for handle in handles:
                assert isinstance(handle.outcome(timeout=60), RunResult)
        assert started[2:] == ["a1", "a2"]
    finally:
        d.close()


def test_drain_interrupts_the_whole_backlog_at_once(
        daemon, serve_dir, gated_recorder, monkeypatch):
    """Queued jobs settle as interrupted-transient the moment a drain
    begins — whatever the dispatch window — each subscriber hears of it
    exactly once, and the journal records it; the jobs already handed to
    the pool finish inside the grace period."""
    gate, _ = gated_recorder
    failures = []  # (job id, subscribers the failure reached)
    real_broadcast = Job.broadcast

    def broadcast(job, item, stream_only=False):
        delivered = real_broadcast(job, item, stream_only)
        if isinstance(item, RunFailure):
            failures.append((job.id, delivered))
        return delivered

    monkeypatch.setattr(Job, "broadcast", broadcast)
    with _client(daemon, "A") as a, _client(daemon, "B") as b:
        handles = _backlog(a, "a", 5)
        _await(lambda: daemon.status()["pending_by_client"] == {"A": 3})
        shared = b.submit(handles[-1].spec, stream=False)
        assert shared.status == "attached"
        daemon.request_shutdown(drain=True)
        interrupted = handles[2:] + [shared]
        # Settled while the gate is still shut: nobody waited for a worker.
        for handle in interrupted:
            outcome = handle.outcome(timeout=10)
            assert isinstance(outcome, RunFailure)
            assert outcome.error_type == "RunInterrupted"
            assert outcome.transient
        gate.set()
        for handle in handles[:2]:
            assert isinstance(handle.outcome(timeout=60), RunResult)
    assert daemon.join(10)
    assert sorted(failures) == sorted(
        [(h.job_id, 1) for h in handles[2:4]] + [(shared.job_id, 2)])
    journal = load_journal(os.path.join(serve_dir, "journal.jsonl"))
    assert {h: r["error_type"] for h, r in journal.failed.items()} == {
        h.spec_hash: "RunInterrupted" for h in handles[2:]}
    assert set(journal.done) == {h.spec_hash for h in handles[:2]}


# ------------------------------------------------- concurrent clients


def test_concurrent_clients_every_submission_settles_once(
        daemon, monkeypatch):
    """More client threads than cores push into the core's queue while
    its one pump thread dispatches and settles: every handle resolves,
    every distinct spec is simulated and completed exactly once."""
    monkeypatch.setattr(core_mod, "serve_entry",
                        lambda spec, *_args: fabricate_result(spec))
    n_clients, n_specs = 8, 12
    specs = [_spec(seed=i, label=f"s{i}") for i in range(n_specs)]
    resolved, errors = [], []

    def client_loop(offset):
        try:
            with _client(daemon, f"storm-{offset}") as client:
                order = specs[offset:] + specs[:offset]  # overlap + dedup
                handles = [client.submit(spec, stream=False)
                           for spec in order]
                resolved.extend(h.outcome(timeout=30).spec_hash
                                for h in handles)
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client_loop, args=(i,),
                                    daemon=True) for i in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not errors
    assert sorted(resolved) == sorted(
        [spec.content_hash() for spec in specs] * n_clients)
    counters = daemon.status()["counters"]
    assert counters["dispatched"] == counters["completed"] == n_specs
    assert counters["failed"] == 0
    assert (counters["attached"] + counters["cache_hits"]
            == n_clients * n_specs - n_specs)


# ------------------------------------------------------- process mode


def test_process_mode_end_to_end(serve_dir):
    """The default (process-pool) worker mode: same results, same
    streaming, across a real process boundary."""
    d = ServeDaemon(os.path.join(serve_dir, "proc-mode.sock"),
                    workers=1, mode="process",
                    cache=ResultCache(os.path.join(serve_dir, "cache")),
                    spool_dir=os.path.join(serve_dir, "spool"),
                    poll_interval_s=0.01)
    d.start()
    try:
        spec = golden_spec("ht-small-bows", obs=ObsConfig(), label="proc")
        with _client(d) as client:
            handle = client.submit(spec)
            kinds = [m["kind"] for m in handle.stream()]
            result = handle.outcome(timeout=120)
        assert isinstance(result, RunResult)
        assert "sample" in kinds
        assert result.spec_hash == spec.content_hash()
        expect("ht-small-bows", observe(result))
    finally:
        d.close()


# ------------------------------------------------- SIGTERM drain (e2e)


def test_sigterm_drains_to_journal(serve_dir):
    """A real ``repro serve`` process: SIGTERM exits 0 after a drain,
    the journal records the work and the drain, and a fresh daemon on
    the same cache answers the resubmitted spec without simulating."""
    sock = os.path.join(serve_dir, "proc.sock")
    journal = os.path.join(serve_dir, "journal.jsonl")
    cache_dir = os.path.join(serve_dir, "cache")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")]
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", sock,
         "--workers", "1", "--mode", "thread", "--quiet",
         "--journal", journal, "--cache-dir", cache_dir],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 30
        while not os.path.exists(sock):
            assert proc.poll() is None, proc.stderr.read().decode()
            assert time.monotonic() < deadline, "daemon never bound"
            time.sleep(0.05)
        spec = _spec(label="journaled")
        with ServeClient(sock, name="sigterm-test") as client:
            result = client.submit(spec).outcome(timeout=120)
        assert isinstance(result, RunResult)

        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0  # clean drain, not 130
        assert not os.path.exists(sock)    # socket file removed

        state = load_journal(journal)
        assert list(state.specs) == list(state.done) == [spec.content_hash()]
        assert [n["note"] for n in state.notes] == [
            "serve_start", "drain", "serve_exit"]
        assert not state.skipped_lines and not state.unknown_kinds

        # The drained daemon's cache survives it.
        d = ServeDaemon(os.path.join(serve_dir, "again.sock"),
                        workers=1, mode="thread",
                        cache=ResultCache(cache_dir))
        d.start()
        try:
            with ServeClient(d.address, name="resume") as client:
                again = client.submit(spec)
                assert again.status == "cached"
                assert again.outcome(timeout=60).cycles == result.cycles
            assert d.status()["counters"]["dispatched"] == 0
        finally:
            d.close()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stdout.close()
        proc.stderr.close()


#: A served submit and close.  Both ends' read loops have ended, so no
#: socket may still hold its descriptor: one that does is closed only
#: when the collector gets to it, a ResourceWarning under ``-X dev``.
CLOSE_SCRIPT = """
import gc, os, socket, sys, threading
from repro.lab._testing import fabricate_result
from repro.lab.cache import ResultCache
from repro.lab.spec import RunSpec
from repro.serve import ServeClient, ServeDaemon
from repro.sim.config import GPUConfig

home = sys.argv[1]
spec = RunSpec(kernel="vecadd", config=GPUConfig.preset("fermi"),
               params=dict(n_threads=64, per_thread=2, block_dim=32))
cache = ResultCache(os.path.join(home, "cache"))
cache.put(spec, fabricate_result(spec, cycles=7))
daemon = ServeDaemon(os.path.join(home, "d.sock"), workers=1,
                     mode="thread", cache=cache).start()
with ServeClient(daemon.address, name="closer") as client:
    assert client.submit(spec).outcome(timeout=30).cycles == 7
daemon.close()
for thread in threading.enumerate():
    if thread.name.startswith("serve-client"):  # both ends' readers
        thread.join(10)
open_sockets = [sock for sock in gc.get_objects()
                if isinstance(sock, socket.socket) and sock.fileno() != -1]
assert not open_sockets, open_sockets
"""


def test_a_closed_connection_leaves_no_socket_to_the_collector(serve_dir):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-c", CLOSE_SCRIPT, serve_dir],
        env=env, capture_output=True, text=True, timeout=120)
    # A warning raised in a finalizer is printed, not raised.
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("address", ["unix", "tcp"])
def test_close_ends_every_service_thread(serve_dir, address):
    """A stopped daemon leaves no thread behind: not the dispatcher, not
    a client's, and not the accept thread blocked in ``accept()``."""
    before = set(threading.enumerate())
    d = ServeDaemon(
        os.path.join(serve_dir, "serve.sock") if address == "unix"
        else "127.0.0.1:0",
        workers=1, mode="thread", cache=False).start()
    if address == "unix":
        with _client(d) as client:
            assert client.ping()
    d.close()
    deadline = time.monotonic() + 2.0
    mine = [t for t in threading.enumerate()
            if t not in before and t.name.startswith("serve-")]
    for thread in mine:
        thread.join(max(0.0, deadline - time.monotonic()))
    assert not [t.name for t in mine if t.is_alive()]
