"""Crash injection and recovery: the lab survives everything short of
losing the disk.

Covers the recovery matrix of ``docs/robustness.md``: a SIGKILLed pool
worker (re-queued exactly once, for free — and the fault-parity litmus:
the same fault sequence ends the same way through ``Runner`` and
through ``repro serve``), one warm pool per Runner (reused across
batches, retired when idle, replaced after a drain or an idle worker's
death), a SIGKILLed *parent* (sweep
completed from its journal without recomputing finished specs), a torn
cache write (quarantined, then recomputed), a full disk (durability
lost, never an outcome), torn and foreign lines in journals and
progress spools, concurrent Runners sharing one cache directory,
graceful SIGINT draining, and the SIGALRM save/restore contract of the
per-run timeout.
"""

from __future__ import annotations

import errno
import functools
import logging
import multiprocessing
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

import repro.lab.runner as runner_mod
import repro.lab.core as core_mod
from repro.harness.runner import make_config
from repro.lab import (FileLock, LockTimeout, ResultCache, Runner, RunSpec,
                       decorrelated_jitter, load_journal, resume_sweep)
from repro.lab import _testing
from repro.lab.journal import (NOTE_LINES, RECORD_KEYS, JournalError,
                               SweepJournal, note_record, outcome_record,
                               read_records, record, render)
from repro.lab.results import LabError, RunFailure
from repro.lab.worker import _run_with_timeout
from repro.serve import ServeClient, ServeDaemon
from repro.submit import submit_many
from repro.sim.progress import SimulationDeadlock
from test_golden_fixtures import oracle
from test_golden_fixtures import spec as golden_spec

ROOT = Path(__file__).resolve().parent.parent


def _spec(seed: int = 0) -> RunSpec:
    """Tiny distinct specs (the injected run_fns never build them)."""
    return RunSpec(kernel="ht", config=make_config("gto"), seed=seed,
                   label=f"spec{seed}")


def _python(code: str, *argv: str, env_extra=None) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(ROOT / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    env.update(env_extra or {})
    return subprocess.Popen([sys.executable, "-c", code, *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


# ---------------------------------------------------------------------------
# Backoff + locking primitives


def test_decorrelated_jitter_is_bounded_and_grows():
    rng = random.Random(7)
    assert decorrelated_jitter(1.0, 0.0, 10.0, rng) == 0.0
    delay = 0.0
    for _ in range(50):
        delay = decorrelated_jitter(delay, 0.05, 2.0, rng)
        assert 0.05 <= delay <= 2.0


def test_filelock_excludes_a_second_acquirer(tmp_path):
    pytest.importorskip("fcntl")
    lock_path = tmp_path / ".lock"
    with FileLock(lock_path):
        second = FileLock(lock_path, timeout_s=0.2, poll_s=0.02)
        start = time.monotonic()
        with pytest.raises(LockTimeout):
            second.acquire()
        assert time.monotonic() - start >= 0.2
    # Released: immediately acquirable again.
    with FileLock(lock_path, timeout_s=0.2):
        pass


def test_filelock_is_released_when_the_holder_is_sigkilled(tmp_path):
    pytest.importorskip("fcntl")
    lock_path = tmp_path / ".lock"
    ready = tmp_path / "ready"
    holder = _python(
        "import sys, time\n"
        "from pathlib import Path\n"
        "from repro.lab import FileLock\n"
        "lock = FileLock(sys.argv[1]).acquire()\n"
        "Path(sys.argv[2]).touch()\n"
        "time.sleep(30)\n",
        str(lock_path), str(ready),
    )
    try:
        deadline = time.monotonic() + 10
        while not ready.exists():
            assert time.monotonic() < deadline, holder.stderr.read()
            time.sleep(0.02)
        with pytest.raises(LockTimeout):
            FileLock(lock_path, timeout_s=0.2, poll_s=0.02).acquire()
        holder.kill()
        holder.wait(timeout=10)
        # The kernel dropped the flock with the process: no stuck lock.
        with FileLock(lock_path, timeout_s=2.0):
            pass
    finally:
        if holder.poll() is None:
            holder.kill()
        holder.wait(timeout=10)


# ---------------------------------------------------------------------------
# Durable cache: torn writes, quarantine, verify/repair


def _entry_path(cache: ResultCache, spec: RunSpec) -> Path:
    return cache._entry_path(spec.content_hash())


def test_torn_write_is_quarantined_then_recomputed(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    runner = Runner(cache=cache, run_fn=_testing.instant_ok)
    spec = _spec(0)
    assert runner.run_many([spec]).executed == 1

    # Tear the entry the way a crashed non-atomic writer would.
    path = _entry_path(cache, spec)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])

    # The torn entry is a miss (never a crash, never a wrong result)...
    assert cache.get(spec) is None
    quarantined = list((tmp_path / "cache" / "quarantine").iterdir())
    assert len(quarantined) == 1
    assert cache.stats().quarantined_entries == 1

    # ...and the slot recomputes cleanly on the next batch.
    report = Runner(cache=cache, run_fn=_testing.instant_ok).run_many([spec])
    assert report.executed == 1
    assert cache.get(spec) is not None


def test_cache_verify_reports_and_repairs(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    specs = [_spec(i) for i in range(3)]
    Runner(cache=cache, run_fn=_testing.instant_ok).run_many(specs)

    victim = _entry_path(cache, specs[1])
    victim.write_text(victim.read_text()[:-30] + "}")  # corrupt the body

    scan = cache.verify()
    assert len(scan.entries) == 3
    assert [e.status for e in scan.entries].count("ok") == 2
    assert len(scan.corrupt) == 1 and not scan.ok
    assert scan.corrupt[0].spec_hash == specs[1].content_hash()
    assert all(e.size_bytes > 0 for e in scan.entries)
    assert victim.exists()  # read-only scan

    repaired = cache.verify(repair=True)
    assert len(repaired.quarantined) == 1
    assert not victim.exists()
    assert cache.verify().ok
    assert cache.stats().quarantined_entries == 1


def test_cache_scans_skip_entries_that_vanish_mid_scan(tmp_path,
                                                      monkeypatch):
    """Another process sharing the directory quarantines an entry or
    clears the cache between the listing and the stat: the entry is no
    longer in the cache, so ``stats`` does not count it and ``verify``
    does not report it corrupt — neither raises."""
    cache = ResultCache(tmp_path / "cache")
    Runner(cache=cache, run_fn=_testing.instant_ok).run_many(
        [_spec(i) for i in range(3)])
    listed = Path.rglob

    def vanishing(self, pattern):
        for path in listed(self, pattern):
            path.unlink()
            yield path

    monkeypatch.setattr(Path, "rglob", vanishing)
    stats = cache.stats()
    assert (stats.entries, stats.size_bytes) == (0, 0)
    Runner(cache=cache, run_fn=_testing.instant_ok).run_many([_spec(0)])
    scan = cache.verify()
    assert scan.entries == [] and scan.ok


def test_cache_verify_cli_exit_codes(tmp_path):
    from repro.cli import main

    cache = ResultCache(tmp_path / "cache")
    spec = _spec(0)
    Runner(cache=cache, run_fn=_testing.instant_ok).run_many([spec])
    assert main(["cache", "verify", "--cache-dir",
                 str(tmp_path / "cache")]) == 0

    _entry_path(cache, spec).write_text("{garbage")
    assert main(["cache", "verify", "--cache-dir",
                 str(tmp_path / "cache")]) == 1
    assert main(["cache", "verify", "--repair", "--cache-dir",
                 str(tmp_path / "cache")]) == 0
    assert main(["cache", "verify", "--cache-dir",
                 str(tmp_path / "cache")]) == 0


# ---------------------------------------------------------------------------
# A full disk costs durability, never an outcome


def _disk_full(*_args, **_kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


#: The two durable writes a run's settling makes.
DURABLE_WRITES = {"cache": (ResultCache, "put"),
                  "journal": (SweepJournal, "append")}


@pytest.mark.parametrize("write", sorted(DURABLE_WRITES))
def test_a_full_disk_under_a_runner_returns_a_full_report(
        tmp_path, monkeypatch, write):
    notes = []
    runner = Runner(cache=ResultCache(tmp_path / "cache"),
                    run_fn=_testing.instant_ok, progress=notes.append)
    monkeypatch.setattr(*DURABLE_WRITES[write], _disk_full)
    with SweepJournal(tmp_path / "sweep.jsonl") as journal:
        report = runner.run_many([_spec(i) for i in range(3)],
                                 journal=journal)
    assert report.total == 3 and report.executed == 3
    assert any("No space left on device" in note for note in notes)


@pytest.mark.parametrize("write", ["record_spec", "append"])
def test_a_full_disk_under_a_served_client_journal_returns_a_full_report(
        daemon, tmp_path, monkeypatch, write):
    """The client's mirror of a served batch (its ``spec`` records, then
    its outcomes) follows the runner road's rule: noted, not raised."""
    notes = []
    monkeypatch.setattr(core_mod, "serve_entry",
                        lambda spec, *_args: _testing.fabricate_result(spec))
    with SweepJournal(tmp_path / "client.jsonl") as journal:
        monkeypatch.setattr(SweepJournal, write, _disk_full)
        batch = submit_many([_spec(i) for i in range(3)],
                            server=daemon.address, journal=journal,
                            runner=Runner(progress=notes.append))
        report = batch.report
    assert report.total == 3 and not report.failures
    assert any("No space left on device" in note for note in notes)


@pytest.mark.parametrize("write", sorted(DURABLE_WRITES))
def test_a_full_disk_under_serve_settles_every_submission(
        daemon, monkeypatch, write):
    """ENOSPC from the cache put or a journal append (the submission's
    ``spec`` record included) is noted; every submission still settles,
    the same spec is answered again once the disk has room, and the
    daemon keeps answering."""
    notes = []
    daemon.progress = notes.append
    monkeypatch.setattr(core_mod, "serve_entry",
                        lambda spec, *_args: _testing.fabricate_result(spec))
    specs = [_spec(i) for i in range(3)]
    with ServeClient(daemon.address, name="full-disk") as client:
        with monkeypatch.context() as disk:
            disk.setattr(*DURABLE_WRITES[write], _disk_full)
            handles = [client.submit(spec) for spec in specs]
            assert all(h.outcome(timeout=30).ok for h in handles)
        again = client.submit(specs[0])
        assert again.outcome(timeout=30).ok
        assert again.status == ("queued" if write == "cache" else "cached")
        assert client.ping()
    assert any("No space left on device" in note for note in notes)


# ---------------------------------------------------------------------------
# Journal


def _timed_out(spec: RunSpec) -> RunFailure:
    return RunFailure(spec=spec, spec_hash=spec.content_hash(),
                      error_type="RunTimeout", message="too slow",
                      attempts=2, elapsed_s=1.25, transient=True)


def test_journal_round_trip_and_pending(tmp_path):
    path = tmp_path / "sweep.jsonl"
    specs = [_spec(i) for i in range(3)]
    with SweepJournal(path) as journal:
        for spec in specs:
            journal.record_spec(spec)
            journal.record_spec(spec)  # idempotent
        journal.append(outcome_record(
            _testing.fabricate_result(specs[0], 11)))
        journal.append(outcome_record(_timed_out(specs[1])))
    state = load_journal(path)
    assert len(state.specs) == 3
    assert state.executed == 1 and state.cache_hits == 0
    assert state.done[specs[0].content_hash()]["cycles"] == 11
    failed = state.failed[specs[1].content_hash()]
    assert (failed["error_type"], failed["message"], failed["attempts"],
            failed["elapsed_s"], failed["transient"], failed["hang"]) == (
        "RunTimeout", "too slow", 2, 1.25, True, None)
    assert not state.skipped_lines and not state.unknown_kinds
    assert [s.content_hash() for s in state.pending] == [
        specs[1].content_hash(), specs[2].content_hash()]
    rebuilt = state.specs[specs[0].content_hash()]
    assert rebuilt.content_hash() == specs[0].content_hash()
    assert rebuilt.label == specs[0].label


def test_journal_tolerates_a_torn_final_line(tmp_path):
    path = tmp_path / "sweep.jsonl"
    with SweepJournal(path) as journal:
        journal.record_spec(_spec(0))
        journal.append(outcome_record(_testing.fabricate_result(_spec(0), 5)))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"v": 1, "kind": "done", "hash": "abc')  # SIGKILL
    state = load_journal(path)
    assert state.skipped_lines == 1
    assert len(state.done) == 1
    # The next writer ends the torn line instead of appending to it.
    with SweepJournal(path) as journal:
        journal.append(note_record("resume"))
    state = load_journal(path)
    assert state.skipped_lines == 1
    assert [n["note"] for n in state.notes] == ["resume"]


def _journal_lines(path):
    with SweepJournal(path) as journal:
        journal.record_spec(_spec(0))
        journal.append(outcome_record(_testing.fabricate_result(_spec(0))))


def _spool_lines(path):
    from repro.lab.worker import ProgressWriter

    writer = ProgressWriter(path)
    writer.lifecycle("started", pid=1)
    writer.on_row({"cycle": 100})
    writer.close()


@pytest.mark.parametrize("write", [_journal_lines, _spool_lines],
                         ids=["journal", "spool"])
def test_reader_skips_blank_torn_and_foreign_lines(tmp_path, write):
    """One reader for every host file: blank lines are ignored, a torn
    final line is neither parsed nor consumed until it is completed (then
    read exactly once), and an unknown kind or a pre-v1 ``type`` line is
    skipped and counted."""
    path = tmp_path / "records.jsonl"
    write(path)
    records, end, skipped = read_records(path)
    assert len(records) == 2 and skipped == 0
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('\n{"v": 1, "kind": "mystery", "detail": {}}\n'
                     '{"type": "note", "note": "pre-v1"}\n'
                     '{"v": 1, "kind": "note", "note": "late", ')
    more, torn_at, skipped = read_records(path, end)
    assert more == [] and skipped == 2
    assert torn_at < path.stat().st_size  # the torn line is not consumed
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('"detail": {}}\n')
    more, end, skipped = read_records(path, torn_at)
    assert more == [record("note", note="late", detail={})]
    assert skipped == 0 and end == path.stat().st_size
    assert read_records(path, end) == ([], end, 0)


def test_pre_v1_journal_is_refused_by_name(tmp_path):
    path = tmp_path / "old.jsonl"
    path.write_text(
        '{"type": "spec", "hash": "abc", "label": null, "spec": {}}\n'
        '{"type": "done", "hash": "abc", "from_cache": false, "cycles": 1}\n')
    with pytest.raises(JournalError, match="predates record v1") as excinfo:
        load_journal(path)
    assert "recomputes nothing" in str(excinfo.value)


@pytest.mark.parametrize("kind", sorted(RECORD_KEYS))
def test_record_rejects_a_missing_or_an_extra_key(kind):
    fields = {key: None for key in RECORD_KEYS[kind]}
    assert record(kind, **fields) == {"v": 1, "kind": kind, **fields}
    with pytest.raises(ValueError, match="expected keys"):
        record(kind, **fields, extra=1)
    fields.popitem()
    with pytest.raises(ValueError, match="expected keys"):
        record(kind, **fields)


#: Every note the host writes, with the detail its writer gives it.
HOST_NOTES = {
    # Batch marks.
    "sweep": dict(name="cli-sweep", axes={"kernel": ["'ht'"]}),
    "resume": dict(pending=2, done=1),
    "fuzz": dict(kernel="ht", seeds=4, resume=False),
    "batch_end": dict(retried=1, worker_losses=0, stragglers=0,
                      interrupted=False),
    # The front ends.
    "signal": dict(),
    "submit": dict(job="job-7", status="queued", client="cli"),
    "serve_start": dict(address="/tmp/s.sock", workers=2, mode="process"),
    "drain": dict(running=1, queued=0),
    "serve_exit": dict(abort=False, interrupted=0),
    # The execution core's decisions.
    "worker_lost": dict(hash="a" * 64, requeued=True),
    "retry": dict(hash="a" * 64, error_type="TransientRunError",
                  backoff_s=0.05),
    "straggler": dict(hash="a" * 64, running_s=3.2, budget_s=1.5),
    "write_failed": dict(write="ResultCache.put", error_type="OSError",
                         message="[Errno 28] No space left on device"),
}


def test_host_notes_lists_every_note_the_source_writes():
    source = "\n".join(path.read_text() for path in
                       (ROOT / "src" / "repro").rglob("*.py"))
    written = set(re.findall(
        r'(?:note_record\(\s*|open_journal\([\w.]+,\s*|_note\(\w+,\s*)'
        r'"(\w+)"', source))
    assert written == set(HOST_NOTES)
    assert set(NOTE_LINES) <= written


@pytest.mark.parametrize("note", sorted(HOST_NOTES))
def test_render_gives_every_host_note_one_line(note):
    line = record("note", note=note, detail=HOST_NOTES[note])
    text = render(line)
    assert text and "\n" not in text
    assert render(line, "spec0") == f"spec0: {text}"


def test_render_keeps_the_settled_run_lines():
    result = _testing.fabricate_result(_spec(0), cycles=42)
    result.elapsed_s = 1.26
    assert render(outcome_record(result), "spec0") == (
        "spec0: ok (42 cycles, 1.3s)")
    result.from_cache = True
    assert render(outcome_record(result), "spec0") == "spec0: cached"
    assert render(outcome_record(_timed_out(_spec(0))), "spec0") == (
        "spec0: FAILED (RunTimeout)")


def test_empty_journal_is_an_error(tmp_path):
    with pytest.raises(JournalError):
        load_journal(tmp_path / "missing.jsonl")
    empty = tmp_path / "empty.jsonl"
    empty.write_text('{"v": 1, "kind": "note", "note": "hello", '
                     '"detail": {}}\n')
    with pytest.raises(JournalError, match="no spec records"):
        load_journal(empty)


# ---------------------------------------------------------------------------
# Worker loss


def test_sigkilled_worker_is_requeued_once_and_batch_completes(
        tmp_path, monkeypatch):
    monkeypatch.setenv(_testing.SENTINEL_ENV, str(tmp_path / "sentinel"))
    runner = Runner(workers=2, mode="process",
                    run_fn=_testing.kill_worker_once,
                    retries=1, backoff_base_s=0.0)
    with SweepJournal(tmp_path / "batch.jsonl") as journal:
        report = runner.run_many([_spec(i) for i in range(3)],
                                 journal=journal)
    assert [r.ok for r in report.results] == [True, True, True]
    # The victim (and any innocent in-flight specs) were re-queued for
    # free: nobody's attempt counter reflects the worker death.
    assert all(r.attempts == 1 for r in report.results)
    assert report.worker_losses >= 1
    # Each loss is explained in the journal, beside the batch's count.
    notes = load_journal(tmp_path / "batch.jsonl").notes
    lost = [n["detail"] for n in notes if n["note"] == "worker_lost"]
    assert len(lost) == report.worker_losses
    assert all(detail["requeued"] for detail in lost)
    assert notes[-1]["detail"]["worker_losses"] == report.worker_losses


def test_repeated_worker_loss_consumes_the_retry_budget(
        tmp_path, monkeypatch):
    monkeypatch.setenv(_testing.SENTINEL_ENV, str(tmp_path / "sentinel"))
    runner = Runner(workers=1, mode="process", run_fn=_testing.kill_always,
                    retries=1, backoff_base_s=0.0)
    report = runner.run_many([_spec(0)])
    (failure,) = report.results
    assert not failure.ok
    assert failure.error_type == "BrokenProcessPool"
    assert failure.transient
    # One free re-queue + the budgeted attempts: 1 original + 1 retry.
    assert failure.attempts == 2
    assert report.worker_losses == 3


# ---------------------------------------------------------------------------
# One warm pool per Runner


def _pids(report) -> set:
    """The worker pids a ``report_pid`` batch ran in."""
    assert all(r.ok for r in report.results)
    return {r.cycles for r in report.results}


def test_back_to_back_batches_share_one_pool_that_retires_when_idle():
    runner = Runner(workers=2, mode="process", run_fn=_testing.report_pid)
    pids = set()
    for batch in range(3):
        pids |= _pids(runner.run_many([_spec(i) for i in range(4)]))
    assert len(pids) <= runner.workers  # one pool, never re-forked
    deadline = time.monotonic() + runner_mod.POOL_LINGER_S + 1.0
    while {proc.pid for proc in multiprocessing.active_children()} & pids:
        assert time.monotonic() < deadline, "the idle pool outlived its linger"
        time.sleep(0.01)


def test_two_runners_never_share_workers():
    first, second = (Runner(workers=2, mode="process",
                            run_fn=_testing.report_pid) for _ in range(2))
    specs = [_spec(i) for i in range(4)]
    mine = _pids(first.run_many(specs))
    theirs = _pids(second.run_many(specs))
    mine |= _pids(first.run_many(specs))
    assert not mine & theirs


def _interrupt_parent(spec):
    os.kill(os.getppid(), signal.SIGINT)
    return _testing.report_pid(spec)


def test_a_drained_batch_never_lends_its_pool():
    runner = Runner(workers=1, mode="process", run_fn=_testing.report_pid)
    warm = _pids(runner.run_many([_spec(0)]))
    runner.run_fn = _interrupt_parent
    drained = runner.run_many([_spec(1)])
    assert drained.interrupted and _pids(drained) == warm
    runner.run_fn = _testing.report_pid
    assert not _pids(runner.run_many([_spec(2)])) & warm


def test_a_pool_broken_while_idle_costs_the_next_batch_nothing(
        tmp_path, monkeypatch):
    """An idle worker SIGKILLed between two batches (an OOM kill): the
    next batch gets a new pool before its first dispatch — no
    ``worker_lost`` note, no attempt charged, no loss counted."""
    monkeypatch.setattr(runner_mod, "POOL_LINGER_S", 60.0)
    runner = Runner(workers=2, mode="process", run_fn=_testing.report_pid)
    specs = [_spec(i) for i in range(4)]
    before = _pids(runner.run_many(specs))
    os.kill(next(iter(before)), signal.SIGKILL)
    time.sleep(0.5)  # the pool notices its dead worker
    monkeypatch.setattr(runner_mod, "POOL_LINGER_S", 0.1)
    with SweepJournal(tmp_path / "batch.jsonl") as journal:
        report = runner.run_many(specs, journal=journal)
    assert not _pids(report) & before
    assert all(r.attempts == 1 for r in report.results)
    assert report.worker_losses == report.retried == 0
    assert [n["note"] for n in load_journal(tmp_path / "batch.jsonl").notes
            ] == ["batch_end"]


@pytest.mark.parametrize("mode, batches", [("thread", 30), ("process", 8)])
def test_the_retire_timer_never_hands_a_batch_a_shut_down_pool(
        monkeypatch, mode, batches):
    """With no linger, every retirement races the next batch for the
    core; a batch that dispatched to a shut-down pool would fail its
    runs permanently (``submit`` raises a plain ``RuntimeError``)."""
    monkeypatch.setattr(runner_mod, "POOL_LINGER_S", 0.0)
    runner = Runner(workers=2, mode=mode, run_fn=_testing.instant_ok)
    for batch in range(batches):
        report = runner.run_many([_spec(batch), _spec(batch + 1)])
        assert not report.failures
        assert report.worker_losses == report.retried == 0


def test_a_concurrent_batch_on_one_runner_is_refused():
    started, release = threading.Event(), threading.Event()

    def run_fn(spec):
        started.set()
        release.wait(10.0)
        return _testing.fabricate_result(spec)

    runner = Runner(workers=1, mode="thread", run_fn=run_fn)
    reports = []
    holder = threading.Thread(
        target=lambda: reports.append(runner.run_many([_spec(0)])))
    holder.start()
    try:
        assert started.wait(10.0)
        with pytest.raises(LabError, match="already running a batch"):
            runner.run_many([_spec(1)])
    finally:
        release.set()
        holder.join(10.0)
    assert not holder.is_alive() and reports[0].results[0].ok
    assert runner.run_many([_spec(1)]).results[0].ok  # free again


# Fault-parity litmus: one fault sequence, two roads, one outcome.  Small
# tests with outcomes known a priori, run against every front end of the
# execution core (process-mode pools: only those can lose a worker).


def _kill_then_flake(spec):
    _testing.kill_worker_once(spec)      # SIGKILLs the first worker here,
    return _testing.flaky_then_ok(spec)  # then one transient error, then ok


def _hangs(spec):
    raise SimulationDeadlock("wedged")


def _outlives_grace(spec):
    time.sleep(1.0)
    return _testing.fabricate_result(spec)


def _entry_without_spool(run_fn, spec, *_serve_entry_args):
    """``serve_entry`` stand-in running an injector (module-level, so a
    ``functools.partial`` of it pickles into the daemon's process pool)."""
    return run_fn(spec)


@pytest.fixture(params=["runner", "served"])
def travel(request, tmp_path, monkeypatch):
    """``travel(run_fn, retries, drain_after_s=None)`` sends one spec
    down one road and returns ``(outcome, counters, journal_path)``.
    ``drain_after_s`` starts a drain (``grace_s=0.2``) that long after
    submission: SIGINT for the Runner, ``request_shutdown`` served."""
    monkeypatch.setenv(_testing.SENTINEL_ENV, str(tmp_path / "sentinel"))
    journal_path = tmp_path / "journal.jsonl"

    def by_runner(run_fn, retries, drain_after_s=None):
        runner = Runner(workers=1, mode="process", run_fn=run_fn,
                        retries=retries, grace_s=0.2)
        if drain_after_s is not None:
            threading.Timer(drain_after_s, os.kill,
                            (os.getpid(), signal.SIGINT)).start()
        with SweepJournal(journal_path) as journal:
            report = runner.run_many([_spec(0)], journal=journal)
        # The batch's closing note carries its counters.
        closing = load_journal(journal_path).notes[-1]
        assert closing["note"] == "batch_end"
        return report.results[0], closing["detail"], journal_path

    def served(run_fn, retries, drain_after_s=None):
        monkeypatch.setattr(core_mod, "serve_entry",
                            functools.partial(_entry_without_spool, run_fn))
        sock_dir = tempfile.mkdtemp(prefix="repro-litmus-")  # short path
        daemon = ServeDaemon(os.path.join(sock_dir, "s.sock"), workers=1,
                             mode="process", cache=False,
                             journal=journal_path, retries=retries,
                             grace_s=0.2, poll_interval_s=0.01).start()
        try:
            with ServeClient(daemon.address, name="litmus") as client:
                handle = client.submit(_spec(0))
                if drain_after_s is not None:
                    time.sleep(drain_after_s)
                    daemon.request_shutdown(drain=True)
                outcome = handle.outcome(timeout=60)
            return outcome, daemon.status()["counters"], journal_path
        finally:
            daemon.close()
            shutil.rmtree(sock_dir, ignore_errors=True)

    return by_runner if request.param == "runner" else served


@pytest.mark.parametrize(
    "run_fn, retries, ok, error_type, attempts, retried, worker_losses", [
        # (a) a worker loss is free: not an attempt, not a retry.
        (_testing.kill_worker_once, 1, True, None, 1, 0, 1),
        # (b) the free re-queue leaves the whole retry budget intact.
        (_kill_then_flake, 1, True, None, 2, 1, 1),
        # (c) only the first loss is free; the rest are budgeted attempts.
        (_testing.kill_always, 1, False, "BrokenProcessPool", 2, 1, 3),
        # (d) a hang is a property of the spec: never retried.
        (_hangs, 3, False, "SimulationDeadlock", 1, 0, 0),
    ], ids=["kill-once", "kill-then-flake", "kill-always", "hang"])
def test_fault_sequence_ends_the_same_on_every_road(
        travel, run_fn, retries, ok, error_type, attempts, retried,
        worker_losses):
    outcome, counters, _ = travel(run_fn, retries)
    assert outcome.ok is ok
    assert getattr(outcome, "error_type", None) == error_type
    assert outcome.attempts == attempts
    assert counters["retried"] == retried
    assert counters["worker_losses"] == worker_losses


@pytest.mark.parametrize("run_fn, decisions", [
    (_testing.kill_worker_once, ["worker_lost"]),
    (_testing.flaky_then_ok, ["retry"]),
    (_kill_then_flake, ["worker_lost", "retry"]),
], ids=["kill-once", "flaky", "kill-then-flake"])
def test_the_journal_explains_each_fault(travel, run_fn, decisions):
    """The core journals why a run took more than one try — a worker
    loss, a retry — on both roads, as notes about the spec's hash."""
    outcome, _, journal_path = travel(run_fn, 1)
    assert outcome.ok
    notes = [n for n in load_journal(journal_path).notes
             if n["note"] in ("worker_lost", "retry", "straggler")]
    assert [n["note"] for n in notes] == decisions
    assert {n["detail"]["hash"] for n in notes} == {_spec(0).content_hash()}
    for note in notes:
        if note["note"] == "worker_lost":
            assert note["detail"]["requeued"] is True
        else:
            assert note["detail"]["error_type"] == "TransientRunError"
            assert note["detail"]["backoff_s"] >= 0


def test_run_outliving_the_grace_period_is_settled_exactly_once(
        travel, caplog):
    """(e) The drain deadline settles the run as interrupted; when its
    worker lands anyway, nothing is journaled or raised a second time."""
    with caplog.at_level(logging.ERROR, logger="concurrent.futures"):
        outcome, _, journal_path = travel(_outlives_grace, 1,
                                          drain_after_s=0.3)
        time.sleep(1.2)  # the abandoned worker finishes its sleep
    assert not outcome.ok and outcome.error_type == "RunInterrupted"
    assert outcome.transient and outcome.attempts == 1
    records, _, skipped = read_records(journal_path)
    terminal = [r for r in records if r["kind"] in ("done", "failed")
                and r["hash"] == _spec(0).content_hash()]
    assert [r["kind"] for r in terminal] == ["failed"] and not skipped
    assert not caplog.records  # e.g. "exception calling callback for ..."


def test_queue_time_is_not_on_the_straggler_or_elapsed_clock():
    """(f) More tasks than workers, ``timeout_s`` set: a task's clock
    starts when a worker takes it, so one that merely waited its turn is
    no straggler and a failure's ``elapsed_s`` is the time it ran."""
    nap_s, ran = 0.25, {}

    def run_fn(spec):
        start = time.perf_counter()
        time.sleep(nap_s)
        ran[spec.label] = time.perf_counter() - start
        if spec.label == "spec3":
            raise ValueError("fails after waiting behind three runs")
        return _testing.fabricate_result(spec)

    # Thread mode has no in-worker alarm: timeout_s only arms the
    # straggler clock (1.5 x 0.4 s — two naps, well short of three).
    runner = Runner(workers=1, mode="thread", run_fn=run_fn, timeout_s=0.4)
    report = runner.run_many([_spec(i) for i in range(4)])
    assert [r.ok for r in report.results] == [True, True, True, False]
    assert report.stragglers == 0
    assert report.results[3].elapsed_s < ran["spec3"] + nap_s / 2


@pytest.mark.parametrize("mode", ["thread", "serial"])
def test_a_freed_worker_is_refilled_before_its_result_is_persisted(
        tmp_path, mode):
    """(g) In a pool, the task after the staged one is dispatched (its
    dispatch-time cache re-check is its last ``get``; the first is the
    submission's) before the pump thread
    spends time persisting the result that freed the worker; in serial
    mode a dispatch *is* the run, so each result is persisted first."""
    log = []

    class Recording(ResultCache):
        def get(self, spec):
            log.append(("get", spec.seed))
            return super().get(spec)

        def put(self, spec, result):
            log.append(("put", spec.seed))
            return super().put(spec, result)

    def run_fn(spec):
        time.sleep(0.02)  # still running when ``pool.submit`` returns
        return _testing.fabricate_result(spec)

    runner = Runner(workers=1, mode=mode, cache=Recording(tmp_path),
                    run_fn=run_fn)
    report = runner.run_many([_spec(i) for i in range(6)])
    assert all(r.ok for r in report.results)
    at = {entry: index for index, entry in enumerate(log)}  # the last
    for seed in range(4):
        if mode == "thread":  # 0 running, 1 staged; 0 lands: 2, then 0
            assert at[("get", seed + 2)] < at[("put", seed)]
        else:
            assert at[("put", seed)] < at[("get", seed + 1)]


# ---------------------------------------------------------------------------
# Parent SIGKILL -> resume without recomputation


def test_sigkilled_sweep_is_completed_by_resume_without_recompute(tmp_path):
    cache_dir = tmp_path / "cache"
    journal_path = tmp_path / "sweep.jsonl"
    crasher = _python(
        "import os, signal, sys\n"
        "from repro.harness.runner import make_config\n"
        "from repro.lab import ResultCache, Runner, RunSpec\n"
        "from repro.lab.journal import SweepJournal\n"
        "from repro.lab._testing import instant_ok\n"
        "specs = [RunSpec(kernel='ht', config=make_config('gto'), seed=i,\n"
        "                 label=f'spec{i}') for i in range(4)]\n"
        "done = 0\n"
        "def note(message):\n"
        "    global done\n"
        "    if ': ok' in message:\n"
        "        done += 1\n"
        "        if done == 2:\n"
        "            os.kill(os.getpid(), signal.SIGKILL)\n"
        "runner = Runner(cache=ResultCache(sys.argv[1]), run_fn=instant_ok,\n"
        "                progress=note)\n"
        "with SweepJournal(sys.argv[2]) as journal:\n"
        "    runner.run_many(specs, journal=journal)\n",
        str(cache_dir), str(journal_path),
    )
    _, stderr = crasher.communicate(timeout=60)
    assert crasher.returncode == -signal.SIGKILL, stderr

    # The journal survived the kill: all specs, exactly 2 done records.
    state = load_journal(journal_path)
    assert len(state.specs) == 4
    assert len(state.done) == 2 and state.executed == 2
    assert len(state.pending) == 2

    # Resume finishes the batch; the finished specs come back from the
    # cache (no recomputation), journaled as cache-hit done records.
    runner = Runner(cache=ResultCache(cache_dir),
                    run_fn=_testing.instant_ok)
    report = resume_sweep(journal_path, runner=runner)
    assert report.total == 4 and not report.failures
    assert report.cache_hits == 2 and report.executed == 2
    final = load_journal(journal_path)
    assert len(final.done) == 4 and not final.pending
    # Last record per hash wins: the two originally-executed specs now
    # show their resume-time cache hits, the two new ones executed.
    assert final.cache_hits == 2 and final.executed == 2


# ---------------------------------------------------------------------------
# Concurrent runners, one cache


def test_concurrent_runners_share_one_cache_without_torn_entries(tmp_path):
    cache_dir = tmp_path / "cache"
    worker_code = (
        "import sys\n"
        "from repro.harness.runner import make_config\n"
        "from repro.lab import ResultCache, Runner, RunSpec\n"
        "from repro.lab._testing import instant_ok\n"
        "specs = [RunSpec(kernel='ht', config=make_config('gto'), seed=i,\n"
        "                 label=f'spec{i}') for i in range(6)]\n"
        "report = Runner(cache=ResultCache(sys.argv[1]),\n"
        "                run_fn=instant_ok).run_many(specs)\n"
        "assert not report.failures\n"
    )
    procs = [_python(worker_code, str(cache_dir)) for _ in range(2)]
    for proc in procs:
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 0, stderr

    cache = ResultCache(cache_dir)
    scan = cache.verify()
    assert scan.ok
    assert len(scan.entries) == 6  # one entry per spec, no duplicates
    for seed in range(6):
        assert cache.get(_spec(seed)) is not None
    assert not (cache_dir / "quarantine").exists()


# ---------------------------------------------------------------------------
# Graceful draining


def test_first_sigint_drains_and_records_the_rest_as_interrupted():
    calls = []

    def run_fn(spec):
        calls.append(spec.label)
        os.kill(os.getpid(), signal.SIGINT)  # arrives before the return
        return _testing.fabricate_result(spec)

    report = Runner(run_fn=run_fn).run_many([_spec(i) for i in range(3)])
    assert calls == ["spec0"]  # in-flight run finished, rest never ran
    assert report.interrupted
    assert report.results[0].ok
    for failure in report.results[1:]:
        assert not failure.ok
        assert failure.error_type == "RunInterrupted"
        assert failure.transient
    # The batch handler was uninstalled afterwards.
    assert signal.getsignal(signal.SIGINT) is signal.default_int_handler


# ---------------------------------------------------------------------------
# SIGALRM timeout hygiene (the seed leaked/clobbered the caller's alarm)


def test_run_with_timeout_restores_prior_handler_and_itimer():
    fired = []

    def prior(signum, frame):
        fired.append(signum)

    old_handler = signal.signal(signal.SIGALRM, prior)
    signal.setitimer(signal.ITIMER_REAL, 30.0)
    try:
        result = _run_with_timeout(
            _testing.fabricate_result, _spec(0), 0.5)
        assert result.ok
        # Handler AND timer back: the caller's alarm still pending.
        assert signal.getsignal(signal.SIGALRM) is prior
        remaining, interval = signal.setitimer(signal.ITIMER_REAL, 0.0)
        assert 0.0 < remaining <= 30.0
        assert interval == 0.0
        assert not fired
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old_handler)


def test_run_with_timeout_no_prior_timer_leaves_none_armed():
    old_handler = signal.getsignal(signal.SIGALRM)
    result = _run_with_timeout(_testing.fabricate_result, _spec(0), 0.5)
    assert result.ok
    assert signal.getsignal(signal.SIGALRM) is old_handler
    assert signal.setitimer(signal.ITIMER_REAL, 0.0) == (0.0, 0.0)


# ---------------------------------------------------------------------------
# Mid-simulation checkpoint/resume through the lab entry point


def _sim_spec() -> RunSpec:
    from repro.obs import ObsConfig

    return golden_spec("ht-small-gto", obs=ObsConfig(), label="ht-ckpt")


def test_execute_run_resumes_from_a_live_checkpoint(tmp_path):
    from repro.kernels import build as build_workload
    from repro.lab.worker import execute_run
    from repro.obs import Observability
    from repro.sim.gpu import GPU

    spec = _sim_spec()

    # A previous attempt got partway and was killed: reproduce its
    # checkpoint by advancing a fresh simulation to a mid-run epoch.
    workload = build_workload(spec.kernel, **spec.build_params())
    gpu = GPU(spec.config, memory=workload.memory, engine=spec.engine,
              obs=Observability(spec.obs))
    sim = gpu.begin(workload.launch)
    sim.run_until(1_000)
    assert not sim.finished
    ckpt_dir = tmp_path / "ckpts"
    sim.save_checkpoint(ckpt_dir / f"{spec.content_hash()}.ckpt")

    result = execute_run(spec, checkpoint_dir=ckpt_dir)
    assert result.stats.summary() == oracle()["ht-small-gto"]["summary"]
    # The resume was journaled as an event and the checkpoint consumed.
    assert result.obs["events"]["counts"].get("run_resumed") == 1
    assert not (ckpt_dir / f"{spec.content_hash()}.ckpt").exists()


def test_execute_run_recovers_from_a_corrupt_checkpoint(tmp_path):
    from repro.lab.worker import execute_run

    spec = _sim_spec()
    ckpt_dir = tmp_path / "ckpts"
    ckpt_dir.mkdir()
    path = ckpt_dir / f"{spec.content_hash()}.ckpt"
    path.write_bytes(b"RPCKPT01" + os.urandom(64))  # torn/garbage file

    result = execute_run(spec, checkpoint_dir=ckpt_dir)  # falls back fresh
    assert result.stats.summary() == oracle()["ht-small-gto"]["summary"]
    assert result.obs["events"]["counts"].get("run_resumed") is None
    assert not path.exists()
