"""A work budget for the path above the simulator (no wall clock).

The counterpart of ``test_hotpath_budget.py`` for ``submit -> result``
when the answer is already in the cache: what a cached submission is
*allowed to do* is counted, not timed.  Before this budget existed the
daemon canonicalised and hashed every submitted spec three times,
called ``dataclasses.asdict`` four times (a deep copy of every scalar
leaf) and re-opened, re-parsed and re-checksummed an entry it had
verified a millisecond earlier.  The counters are monkeypatched around
the real functions; a failure prints the call sites that spent the
budget.
"""

from __future__ import annotations

import builtins
import collections
import dataclasses
import io
import os
import shutil
import tempfile
import threading
import traceback

import pytest

from repro.lab import _testing
from repro.lab import spec as spec_mod
from repro.lab.cache import ResultCache
from repro.lab.journal import SweepJournal
from repro.lab.results import RunResult
from repro.lab.runner import Runner
from repro.lab.spec import RunSpec
from repro.serve import ServeClient, ServeDaemon
from repro.sim.config import GPUConfig

PARAMS = dict(n_threads=64, per_thread=2, block_dim=32)


def _specs():
    """Fresh spec objects (no hash memo) for the same four simulations."""
    return [RunSpec(kernel="vecadd", params=dict(PARAMS), seed=seed,
                    config=GPUConfig.preset("fermi", bows=bows),
                    label=f"s{seed}")
            for seed in (1, 2) for bows in (None, "adaptive")]


class Work:
    """Counts calls per kind, remembering who made them."""

    def __init__(self, monkeypatch, cache_dir: str) -> None:
        self.sites = collections.defaultdict(collections.Counter)
        #: When set, only calls made on these threads are counted.
        self.threads = None
        self._cache_dir = os.path.realpath(cache_dir)
        self._wrap(monkeypatch, spec_mod, "_canonical_json",
                   "canonicalisations")
        self._wrap(monkeypatch, dataclasses, "asdict", "asdict calls")
        self._wrap(monkeypatch, RunResult, "from_dict", "result parses")
        self._wrap(monkeypatch, RunResult, "to_dict", "result encodes")
        self._wrap(monkeypatch, os, "fsync", "fsyncs")
        for owner in (builtins, io):
            self._wrap(monkeypatch, owner, "open", "entry opens",
                       only_entries=True)
        self._wrap(monkeypatch, os, "stat", "entry stats", only_entries=True)

    def _wrap(self, monkeypatch, owner, name, kind, only_entries=False):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            if self._counts(args[0] if only_entries else None):
                frames = traceback.extract_stack(limit=3)[-2::-1]
                self.sites[kind][" <- ".join(
                    f"{os.path.basename(f.filename)}:{f.lineno} {f.name}"
                    for f in frames)] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def _counts(self, path) -> bool:
        if self.threads is not None and \
                threading.get_ident() not in self.threads:
            return False
        if path is None:
            return True
        if not isinstance(path, (str, bytes, os.PathLike)):
            return False  # a file descriptor
        path = os.path.realpath(os.fsdecode(path))
        return path.startswith(self._cache_dir) and path.endswith(".json")

    def reset(self) -> None:
        self.sites.clear()

    def count(self, kind: str) -> int:
        return sum(self.sites[kind].values())

    def check(self, **budget: int) -> None:
        for kind, allowed in budget.items():
            kind = kind.replace("_", " ")
            spent = self.count(kind)
            assert spent <= allowed, (
                f"{spent} {kind} (budget {allowed}):\n  " + "\n  ".join(
                    f"{n}x {site}" for site, n in self.sites[kind].items()))


@pytest.fixture()
def home():
    # Short path: a Unix socket name is capped near 100 bytes.
    path = tempfile.mkdtemp(prefix="repro-budget-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_cached_submission_budget_on_the_daemon(home, monkeypatch):
    cache = ResultCache(os.path.join(home, "cache"))
    for spec in _specs():
        cache.put(spec, _testing.fabricate_result(spec, cycles=spec.seed))
    work = Work(monkeypatch, cache.directory)

    # Count only what the daemon does to answer a submit message.
    handled = threading.Semaphore(0)
    work.threads = set()
    real_submit = ServeDaemon._handle_submit

    def handle_submit(daemon, *args):
        work.threads.add(threading.get_ident())
        try:
            return real_submit(daemon, *args)
        finally:
            handled.release()

    monkeypatch.setattr(ServeDaemon, "_handle_submit", handle_submit)
    daemon = ServeDaemon(os.path.join(home, "d.sock"), workers=1,
                         mode="thread", cache=cache,
                         journal=os.path.join(home, "journal.jsonl")).start()
    try:
        with ServeClient(daemon.address, name="budget") as client:
            def submit(spec):
                handle = client.submit(spec, stream=False)
                outcome = handle.outcome(timeout=30)
                assert handled.acquire(timeout=30)
                assert handle.status == "cached" and outcome.from_cache
                assert outcome.cycles == spec.seed
                assert outcome.spec_hash == spec.content_hash()

            for spec in _specs():  # warm-up: the one verified read each
                submit(spec)
            assert work.count("entry opens") == len(_specs())
            for spec in _specs() * 3:
                work.reset()
                submit(spec)
                # The spec built for the same line is reused and the
                # entry's verified text is spliced into the reply; the
                # journal's ``done`` record is still fsynced.
                work.check(canonicalisations=0, asdict_calls=0,
                           entry_opens=0, entry_stats=1, result_parses=0,
                           result_encodes=0)
                assert work.count("fsyncs") == 1
        assert daemon.status()["counters"]["cache_hits"] == 16
        assert daemon.status()["counters"]["dispatched"] == 0
    finally:
        daemon.close()


def test_all_hit_batch_canonicalises_each_spec_once(home, monkeypatch):
    cache = ResultCache(os.path.join(home, "cache"))
    runner = Runner(cache=cache, run_fn=_testing.instant_ok)
    assert runner.run_many(_specs()).executed == 4
    work = Work(monkeypatch, cache.directory)
    specs = _specs()
    with SweepJournal(os.path.join(home, "journal.jsonl")) as journal:
        report = runner.run_many(specs, journal=journal)
    assert report.cache_hits == 4
    work.check(canonicalisations=len(specs), asdict_calls=0)


def test_novel_spec_is_hashed_once_in_the_parent(home, monkeypatch):
    cache = ResultCache(os.path.join(home, "cache"))
    runner = Runner(workers=2, mode="process", cache=cache,
                    run_fn=_testing.instant_ok)
    work = Work(monkeypatch, cache.directory)
    specs = _specs()[:2]
    with SweepJournal(os.path.join(home, "journal.jsonl")) as journal:
        report = runner.run_many(specs, journal=journal)
    assert report.executed == 2 and not report.failures
    work.check(canonicalisations=len(specs), asdict_calls=0)
