"""ResultCache: an entry answers only for the slot it was written to, and
"verified once per file version" never becomes "unverified".

``get`` keeps the ``result`` text of entries it has checksummed, keyed by
spec hash and validated by the file's ``(inode, size, mtime)``.  These
tests hold the memo to the promises in ``docs/lab.md``: anything
replaced, rewritten, quarantined or cleared is read and verified again;
hits share no state; the memo is bounded; ``verify`` always reads disk.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import threading
import time

import pytest

from repro.lab import _testing, cache as cache_mod
from repro.lab.cache import ResultCache
from repro.lab.spec import RunSpec
from repro.sim.config import GPUConfig


def _spec(seed: int = 0, kernel: str = "vecadd") -> RunSpec:
    return RunSpec(kernel=kernel, config=GPUConfig.preset("fermi"), seed=seed,
                   label=f"{kernel}{seed}")


def _result(spec: RunSpec, cycles: int):
    result = _testing.fabricate_result(spec, cycles=cycles)
    result.phases = {"build_s": 0.1, "simulate_s": 0.2, "score_s": 0.3}
    return result


@pytest.fixture()
def cache(tmp_path):
    return ResultCache(tmp_path / "cache", fingerprint="f" * 64)


def _path(cache: ResultCache, spec: RunSpec):
    return cache._entry_path(spec.content_hash())


def _quarantined(cache: ResultCache) -> int:
    return cache.stats().quarantined_entries


# ----------------------------------------------------------------------
# An entry is trusted only for the slot it belongs in


def test_entry_copied_over_another_is_a_defect(cache):
    asked, other = _spec(kernel="kmeans"), _spec(kernel="vecadd")
    cache.put(asked, _result(asked, cycles=111))
    cache.put(other, _result(other, cycles=222))
    shutil.copyfile(_path(cache, other), _path(cache, asked))

    scan = cache.verify()
    assert [e.status for e in scan.entries].count("ok") == 1
    assert [e.spec_hash for e in scan.corrupt] == [asked.content_hash()]
    assert "misfiled" in scan.corrupt[0].detail

    # Asked for kmeans: never vecadd's cycles.  A miss, and the evidence
    # is kept.
    assert cache.get(asked) is None
    assert _quarantined(cache) == 1
    assert cache.get(other).cycles == 222
    assert cache.verify().ok


def test_misfiled_entry_is_caught_behind_a_warm_memo(cache):
    asked, other = _spec(1), _spec(2)
    cache.put(asked, _result(asked, cycles=111))
    cache.put(other, _result(other, cycles=222))
    assert cache.get(asked).cycles == 111  # memoised
    shutil.copyfile(_path(cache, other), _path(cache, asked))
    assert cache.get(asked) is None
    assert _quarantined(cache) == 1
    assert cache.verify(repair=True).ok


def test_entry_from_another_fingerprint_is_a_defect(cache, tmp_path):
    spec = _spec()
    stale = ResultCache(tmp_path / "cache", fingerprint="0" * 64)
    stale.put(spec, _result(spec, cycles=5))
    _path(cache, spec).parent.mkdir(parents=True)
    shutil.copyfile(_path(stale, spec), _path(cache, spec))
    assert sorted(e.status for e in cache.verify().entries) == [
        "corrupt", "stale"]
    assert cache.get(spec) is None
    assert _quarantined(cache) == 1


# ----------------------------------------------------------------------
# Schema: still v2, both directions


def _write_as_the_parent_commit_did(cache, spec, line):
    """``put`` of the ``result`` record ``line`` as it was before the
    body was written in one pass: the checksummed body re-parsed,
    version and checksum appended, streamed out with ``json.dump``'s
    default separators."""
    canonical = cache_mod._canonical_body({
        "fingerprint": cache.fingerprint, "spec": spec.to_dict(),
        "result": line})
    payload = dict(json.loads(canonical))
    payload["version"] = 2
    payload["checksum"] = hashlib.sha256(canonical).hexdigest()
    path = _path(cache, spec)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


def test_entries_written_by_earlier_versions_still_read(cache):
    old = _spec(1)
    _write_as_the_parent_commit_did(cache, old,
                                    _result(old, cycles=41).to_dict())
    assert cache.get(old).cycles == 41 and cache.get(old).cycles == 41
    assert [e.status for e in cache.verify().entries] == ["ok"]


#: How a checksummed entry's ``result`` record can drift from v1.
DRIFTS = {
    "extra_key": lambda line: line.update(surprise=1),
    "version_2": lambda line: line.update(v=2),
    "missing_obs": lambda line: line.pop("obs"),
}


@pytest.mark.parametrize("drift", sorted(DRIFTS))
def test_an_entry_whose_result_record_drifted_is_never_served(cache, drift):
    """The checksum says the body is whole, not that it is a v1 result:
    a drifted record is a miss and is quarantined, never a result with
    a key quietly defaulted."""
    spec = _spec()
    line = _result(spec, cycles=43).to_dict()
    DRIFTS[drift](line)
    _write_as_the_parent_commit_did(cache, spec, line)
    (entry,) = cache.verify().entries
    assert entry.status == "corrupt"
    assert cache.get(spec) is None
    assert _quarantined(cache) == 1
    assert cache.get(spec) is None


def test_entry_without_a_checksum_is_a_defect(cache):
    """No writer since the checksum was introduced leaves it out, so an
    entry with neither ``checksum`` nor ``version`` is not an old format
    to trust: it is a body nobody checked, here one that was edited."""
    spec = _spec()
    path = cache.put(spec, _result(spec, cycles=42))
    payload = json.loads(path.read_text())
    payload["result"]["cycles"] = 1
    del payload["checksum"], payload["version"]
    path.write_text(json.dumps(payload))

    (entry,) = cache.verify().entries
    assert entry.status == "corrupt" and "checksum" in entry.detail
    assert cache.get(spec) is None
    assert not path.exists() and cache.stats().quarantined_entries == 1


def test_entry_schema_is_v2_and_checksums_its_canonical_body(cache):
    spec = _spec()
    payload = json.loads(cache.put(spec, _result(spec, 7)).read_text())
    assert sorted(payload) == ["checksum", "fingerprint", "result", "spec",
                               "version"]
    assert payload["version"] == cache_mod.ENTRY_VERSION == 2
    assert payload["spec"] == spec.to_dict()
    body = {k: payload[k] for k in ("fingerprint", "result", "spec")}
    assert payload["checksum"] == hashlib.sha256(
        cache_mod._canonical_body(body)).hexdigest()
    assert ResultCache._check_entry(payload) is None


# ----------------------------------------------------------------------
# The memo never lies


def test_overwritten_entry_is_seen_at_once(cache):
    spec = _spec()
    cache.put(spec, _result(spec, cycles=100))
    assert cache.get(spec).cycles == 100
    assert cache.get(spec).cycles == 100
    cache.put(spec, _result(spec, cycles=200))  # same size, new inode
    assert cache.get(spec).cycles == 200


def test_byte_flip_behind_a_warm_memo_is_quarantined(cache):
    spec = _spec()
    path = cache.put(spec, _result(spec, cycles=100))
    assert cache.get(spec).cycles == 100
    before = path.stat()
    raw = path.read_bytes()
    at = raw.index(b'"cycles":100') + len(b'"cycles":')
    with open(path, "r+b") as handle:  # in place: same inode, same size
        handle.seek(at)
        handle.write(b"9")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 1))
    assert (path.stat().st_ino, path.stat().st_size) == (
        before.st_ino, before.st_size)
    assert cache.get(spec) is None
    assert _quarantined(cache) == 1
    assert cache.get(spec) is None and not path.exists()


def test_clear_and_foreign_replace_are_seen(cache, tmp_path):
    spec = _spec()
    cache.put(spec, _result(spec, cycles=100))
    assert cache.get(spec).cycles == 100
    assert cache.clear() == 1
    assert cache.get(spec) is None
    # Another process (its own ResultCache) fills the slot again.
    foreign = ResultCache(tmp_path / "cache", fingerprint="f" * 64)
    foreign.put(spec, _result(spec, cycles=31415))
    assert cache.get(spec).cycles == 31415
    foreign.put(spec, _result(spec, cycles=27182))
    assert cache.get(spec).cycles == 27182
    assert _quarantined(cache) == 0


def test_hits_share_no_mutable_state(cache):
    spec = _spec()
    stored = _result(spec, cycles=100)
    stored.ddos = {"sibs": [1, 2], "nested": {"k": 1}}
    cache.put(spec, stored)
    for _ in range(3):  # the verified read, then memo hits
        hit = cache.get(spec)
        assert hit.cycles == 100 and hit.stats.cycles == 0
        assert hit.phases == stored.phases and hit.ddos == stored.ddos
        hit.stats.cycles = 999
        hit.stats.locks.lock_success = 999
        hit.phases["build_s"] = 999.0
        hit.ddos["nested"]["k"] = 999
        hit.ddos["sibs"].append(999)
        hit.predicted_sibs.append(999)


def test_verify_always_reads_the_disk(cache):
    spec = _spec()
    path = cache.put(spec, _result(spec, cycles=100))
    assert cache.get(spec).cycles == 100
    before = path.stat()
    raw = path.read_bytes()
    with open(path, "r+b") as handle:
        handle.write(raw.replace(b'"cycles":100', b'"cycles":900'))
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    # Same inode, size and mtime: exactly what the memo cannot see, which
    # is why the store-wide scan never consults it.
    assert not cache.verify().ok
    assert len(cache.verify(repair=True).quarantined) == 1
    assert cache.get(spec) is None


def test_memo_is_bounded_and_skips_large_entries(cache, monkeypatch):
    monkeypatch.setattr(cache_mod, "MEMO_ENTRIES", 4)
    specs = [_spec(seed) for seed in range(8)]
    for spec in specs:
        cache.put(spec, _result(spec, cycles=spec.seed))
    for _ in range(2):
        for spec in specs:
            assert cache.get(spec).cycles == spec.seed
            assert len(cache._verified) <= 4
    assert list(cache._verified) == [s.content_hash() for s in specs[4:]]

    big = _spec(99)
    result = _result(big, cycles=99)
    result.obs = {"events": {"log": ["x" * 64] * 1024}}
    assert cache.put(big, result).stat().st_size > cache_mod.MEMO_MAX_BYTES
    assert cache.get(big).obs == result.obs
    assert big.content_hash() not in cache._verified


def test_threads_hammering_get_and_put_never_cross_results(cache,
                                                           monkeypatch):
    monkeypatch.setattr(cache_mod, "MEMO_ENTRIES", 4)  # evict constantly
    specs = [_spec(seed) for seed in range(8)]
    hashes = [spec.content_hash() for spec in specs]
    for spec in specs:
        cache.put(spec, _result(spec, cycles=spec.seed))
    wrong, hits = [], [0, 0]
    deadline = time.monotonic() + 1.0

    def hammer(worker: int) -> None:
        turn = worker
        while time.monotonic() < deadline and not wrong:
            turn += 1
            index = (turn * 5 + worker) % len(specs)
            # Fresh spec objects: the threads share the cache only.
            spec = _spec(index)
            if turn % 7 == 0:
                cache.put(spec, _result(spec, cycles=index))
                continue
            hit = cache.get(spec)
            if hit is None or (hit.spec_hash, hit.cycles) != (
                    hashes[index], index) or len(cache._verified) > 4:
                wrong.append((index, hit, len(cache._verified)))
            hits[worker] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=hammer, args=(worker,))
                   for worker in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not wrong, wrong[0]
    assert min(hits) > 50
    assert _quarantined(cache) == 0
