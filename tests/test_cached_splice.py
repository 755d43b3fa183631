"""A cached answer on the daemon is bytes in, bytes out.

The daemon answers a submission the cache holds by splicing the entry's
verified ``result`` text into its reply, and it reuses the spec it built
for a submit line it has received before.  These tests hold both
shortcuts to the answers the long way gives: the reply decodes to the
entry's record and to what encoding the parsed entry gives, no entry
the cache would refuse is ever spliced, a label is never crossed, a
malformed spec is refused every time and the spec memo stays bounded.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import tempfile

import pytest

import repro.serve.daemon as daemon_mod
from repro.lab import _testing
from repro.lab import cache as cache_mod
from repro.lab.cache import ResultCache
from repro.lab.core import Job
from repro.lab.journal import load_journal
from repro.lab.results import RunResult
from repro.lab.spec import RunSpec
from repro.obs import ObsConfig
from repro.serve import ServeClient, ServeDaemon, protocol
from repro.sim.config import GPUConfig
from test_cache_memo import DRIFTS, _write_as_the_parent_commit_did

VECADD = dict(n_threads=64, per_thread=2, block_dim=32)


def _spec(seed=None, label=None, obs=None) -> RunSpec:
    return RunSpec(kernel="vecadd", config=GPUConfig.preset("fermi"),
                   params=dict(VECADD), seed=seed, label=label, obs=obs)


def _result(spec: RunSpec, cycles: int) -> RunResult:
    result = _testing.fabricate_result(spec, cycles=cycles)
    result.phases = {"build_s": 0.125, "simulate_s": 0.25, "score_s": 0.5}
    result.elapsed_s = 0.875
    return result


@pytest.fixture()
def home():
    # Short path: a Unix socket name is capped near 100 bytes.
    path = tempfile.mkdtemp(prefix="repro-splice-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture()
def cache(home):
    return ResultCache(os.path.join(home, "cache"))


@pytest.fixture()
def daemon(home, cache):
    d = ServeDaemon(os.path.join(home, "d.sock"), workers=1, mode="thread",
                    cache=cache, journal=os.path.join(home, "j.jsonl"))
    d.start()
    yield d
    d.close()


@contextlib.contextmanager
def _raw(daemon):
    """A bare protocol connection: the lines exactly as the daemon sent
    them."""
    stream = protocol.MessageStream(protocol.connect(daemon.address, 10))
    try:
        stream.send(protocol.hello_message("raw"))
        assert stream.recv()["type"] == "hello_ack"
        yield stream
    finally:
        stream.close()
        stream.close_reader()


def _submit_line(spec: RunSpec) -> bytes:
    """The submit line :class:`ServeClient` sends for ``spec``."""
    return protocol.splice({"type": "submit", "label": spec.label,
                            "stream": False}, "spec", spec.canonical_json())


def _entry_record(cache: ResultCache, spec: RunSpec):
    path = cache._entry_path(spec.content_hash())
    return json.loads(path.read_bytes())["result"]


# ----------------------------------------------------------------------
# The spliced reply is the entry's record


@pytest.mark.parametrize("size", ["memoised", "too_big_to_memoise"])
def test_spliced_reply_decodes_to_the_entrys_record(daemon, cache, size):
    spec = _spec(label="spliced")
    stored = _result(spec, cycles=4242)
    if size == "too_big_to_memoise":
        spec = _spec(label="spliced", obs=ObsConfig(sample_interval=50))
        stored = _result(spec, cycles=4242)
        stored.obs = {"events": {"log": ["x" * 64] * 1024}}
    big = cache.put(spec, stored).stat().st_size > cache_mod.MEMO_MAX_BYTES
    assert big == (size == "too_big_to_memoise")
    record = _entry_record(cache, spec)
    # What the daemon sent before the splice: the parsed entry,
    # encoded again.
    parsed = cache.get(spec)
    job = Job(spec=spec, client="raw", id="j0", spec_hash=spec.content_hash())
    encoded = daemon_mod._outcome_message(job, parsed)
    with _raw(daemon) as stream:
        for _ in range(3):  # the verified read, then the memo
            stream.send(_submit_line(spec))
            accepted, reply = stream.recv(), stream.recv()
            assert accepted["status"] == "cached"
            assert reply["result"] == record
            assert {**reply, "job_id": "j0"} == encoded
            # Not one byte longer than the encoding it replaces.
            assert len(json.dumps(reply["result"], separators=(",", ":"))) \
                == len(json.dumps(encoded["result"], separators=(",", ":")))
    assert (spec.content_hash() in cache._verified) == (not big)
    with ServeClient(daemon.address, name="decoder") as client:
        outcome = client.submit(spec).outcome(timeout=30)
    assert outcome == parsed
    assert outcome.from_cache and outcome.label == "spliced"


def test_a_submit_line_of_an_older_client_is_answered_alike(daemon, cache):
    """An older client sends the spec as ``to_dict()`` with its keys in
    field order: another line for the same spec, the same answer."""
    spec = _spec(label="old-client")
    cache.put(spec, _result(spec, cycles=77))
    with _raw(daemon) as stream:
        replies = []
        for line in (_submit_line(spec), protocol.encode(
                {"type": "submit", "spec": spec.to_dict(),
                 "label": spec.label, "stream": False})) * 2:
            stream.send(line)
            accepted, reply = stream.recv(), stream.recv()
            assert accepted["status"] == "cached"
            replies.append({**reply, "job_id": None})
    assert all(reply == replies[0] for reply in replies)
    assert replies[0]["result"] == _entry_record(cache, spec)


def test_every_cached_submission_is_journaled(daemon, cache, home):
    spec = _spec(label="journaled")
    cache.put(spec, _result(spec, cycles=5))
    with ServeClient(daemon.address, name="journal") as client:
        for _ in range(4):
            assert client.submit(spec).outcome(timeout=30).cycles == 5
    state = load_journal(os.path.join(home, "j.jsonl"))
    (done,) = state.done.values()
    assert done["from_cache"] and done["cycles"] == 5
    assert done["elapsed_s"] == 0.875 and done["attempts"] == 1
    with open(os.path.join(home, "j.jsonl")) as handle:
        assert sum('"kind":"done"' in line for line in handle) == 4


# ----------------------------------------------------------------------
# No entry the cache refuses is spliced


def _served(daemon, spec):
    with ServeClient(daemon.address, name="served") as client:
        handle = client.submit(spec, stream=False)
        return handle.status, handle.outcome(timeout=60)


@pytest.mark.parametrize("drift", sorted(DRIFTS))
def test_a_drifted_entry_is_never_spliced(daemon, cache, drift):
    spec = _spec(label="drifted")
    line = _result(spec, cycles=43).to_dict()
    DRIFTS[drift](line)
    _write_as_the_parent_commit_did(cache, spec, line)
    status, outcome = _served(daemon, spec)
    assert status == "queued" and not outcome.from_cache
    assert outcome.cycles != 43
    assert cache.stats().quarantined_entries == 1


def test_a_byte_flip_behind_a_warm_memo_is_never_spliced(daemon, cache):
    spec = _spec(label="flipped")
    path = cache.put(spec, _result(spec, cycles=100))
    assert _served(daemon, spec)[1].cycles == 100  # memo warm
    before = path.stat()
    raw = path.read_bytes()
    at = raw.index(b'"cycles":100') + len(b'"cycles":')
    with open(path, "r+b") as handle:  # in place: same inode, same size
        handle.seek(at)
        handle.write(b"9")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 1))
    status, outcome = _served(daemon, spec)
    assert status == "queued" and outcome.cycles not in (100, 900)
    assert cache.stats().quarantined_entries == 1


def test_an_overwritten_entry_is_spliced_afresh(daemon, cache):
    spec = _spec(label="overwritten")
    cache.put(spec, _result(spec, cycles=100))
    assert _served(daemon, spec)[1].cycles == 100
    cache.put(spec, _result(spec, cycles=200))  # same size, new inode
    status, outcome = _served(daemon, spec)
    assert status == "cached" and outcome.cycles == 200


# ----------------------------------------------------------------------
# The spec memo


def test_labels_of_one_spec_are_never_crossed(daemon, cache):
    cache.put(_spec(), _result(_spec(), cycles=9))
    with ServeClient(daemon.address, name="labels") as client:
        for _ in range(3):  # built, then remembered
            for label in ("first", "second"):
                handle = client.submit(_spec(label=label), stream=False)
                outcome = handle.outcome(timeout=30)
                assert handle.status == "cached"
                assert outcome.label == label and outcome.cycles == 9
    assert sorted(spec.label for spec in daemon._specs.values()) == [
        "first", "second"]


BAD_SPECS = {
    "no_config": {"kernel": "vecadd"},
    "config_not_a_dict": {"kernel": "vecadd", "config": 3},
    "unknown_config_field": {"kernel": "vecadd",
                             "config": {"warp_size": 32, "surprise": 1}},
}


@pytest.mark.parametrize("bad", sorted(BAD_SPECS))
def test_a_malformed_spec_is_refused_every_time(daemon, bad):
    line = protocol.encode({"type": "submit", "spec": BAD_SPECS[bad],
                            "label": "bad", "stream": False})
    with _raw(daemon) as stream:
        for _ in range(2):
            stream.send(line)
            reply = stream.recv()
            assert reply["type"] == "error"
            assert reply["message"].startswith("bad spec: ")
        stream.send({"type": "ping"})
        assert stream.recv()["type"] == "pong"  # the connection lives
    assert not daemon._specs


def test_spec_memo_stays_within_its_bound(daemon, cache, monkeypatch):
    monkeypatch.setattr(daemon_mod, "SPEC_MEMO_ENTRIES", 4)
    cached = [_spec(seed=seed, label=f"c{seed}") for seed in range(8)]
    for spec in cached:
        cache.put(spec, _result(spec, cycles=1000 + spec.seed))
    novel = [_spec(seed=100 + seed, label=f"n{seed}") for seed in range(2)]
    with ServeClient(daemon.address, name="bound") as client:
        for spec in cached + novel + cached:
            handle = client.submit(spec, stream=False)
            outcome = handle.outcome(timeout=60)
            assert len(daemon._specs) <= 4
            if spec in novel:
                assert handle.status == "queued"
    # Only specs the cache answered are kept, the newest last.
    assert [spec.label for spec in daemon._specs.values()] == [
        "c4", "c5", "c6", "c7"]
    assert outcome.cycles == 1007


def test_a_long_submit_line_is_not_remembered(daemon, cache, monkeypatch):
    monkeypatch.setattr(daemon_mod, "SPEC_MEMO_MAX_BYTES", 64)
    spec = _spec(label="long")
    cache.put(spec, _result(spec, cycles=3))
    for _ in range(2):
        status, outcome = _served(daemon, spec)
        assert status == "cached" and outcome.cycles == 3
    assert not daemon._specs
