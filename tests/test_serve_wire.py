"""Golden tests for a run outcome's encoding: the one layout the cache,
the journal and the serve wire share.

A result is its ``result`` record and a failure its ``failed`` record
(:mod:`repro.lab.journal`), checked by :func:`~repro.lab.journal.check`
on every way back in.  The layout is a compatibility contract between
daemons and clients that may be built from different checkouts, and
between a cache and the code that reads it.  These tests freeze it:
changing :data:`~repro.lab.journal.RECORD_KEYS` without bumping
:data:`~repro.lab.journal.RECORD_VERSION` (and updating the golden
tuples below) must fail here before it corrupts a socket or a cache.
"""

import dataclasses
import json

import pytest

import repro.serve.daemon as daemon_mod
from repro.analysis import SanitizerConfig
from repro.harness.runner import make_config
from repro.lab import cache as cache_mod
from repro.lab import journal, results
from repro.lab.results import RunFailure, RunResult
from repro.lab.worker import execute_run
from repro.lab.spec import RunSpec
from repro.obs import ObsConfig
from repro.serve import protocol
from repro.serve.jobstore import Job
from test_serve import _scripted_client

VECADD = dict(n_threads=64, per_thread=2, block_dim=32)


@pytest.fixture(scope="module")
def result():
    spec = RunSpec(kernel="vecadd", config=make_config("gto"),
                   params=VECADD, label="wire-test",
                   obs=ObsConfig(sample_interval=50),
                   sanitize=SanitizerConfig())
    return execute_run(spec)


@pytest.fixture()
def failure():
    spec = RunSpec(kernel="vecadd", config=make_config("gto"),
                   params=VECADD, label="wire-fail")
    return RunFailure(
        spec=spec, spec_hash=spec.content_hash(),
        error_type="SimulationTimeout", message="budget exhausted",
        attempts=2, elapsed_s=1.5004, transient=True,
        hang={"kind": "timeout"},
    )


def _decoders(result, failure):
    """Each way back in, with a record it accepts: ``(decode, line)``."""
    return [(RunResult.from_dict, result.to_dict()),
            (RunFailure.from_record, journal.outcome_record(failure)),
            (journal.check, result.to_dict())]


# ---------------------------------------------------------- golden sets


def test_wire_schema_version_golden():
    # One record version for every outcome; the handshake's version
    # moved to 2 when outcomes began to travel as records; the cache
    # entry's envelope is versioned on its own.
    assert journal.RECORD_VERSION == 1
    assert protocol.PROTOCOL_VERSION == 2
    assert cache_mod.ENTRY_VERSION == 2


def test_result_wire_keys_golden():
    # Frozen for record v1.  Adding or removing a key requires a
    # RECORD_VERSION bump and an update here.
    assert journal.RECORD_KEYS["result"] == (
        "hash",
        "cycles",
        "stats",
        "predicted_sibs",
        "ddos",
        "elapsed_s",
        "phases",
        "obs",
        "sanitizer",
    )


def test_failure_wire_keys_golden():
    assert journal.RECORD_KEYS["failed"] == (
        "hash",
        "error_type",
        "message",
        "transient",
        "attempts",
        "elapsed_s",
        "hang",
    )


# ----------------------------------------------------------- roundtrips


def test_result_roundtrip(result):
    assert result.obs and result.sanitizer  # both payloads travel
    data = result.to_dict()
    assert data == journal.check(data, "result")
    decoded = RunResult.from_dict(json.loads(json.dumps(data)))
    # Field-equal; the delivery fields travel beside the record.
    assert decoded == dataclasses.replace(
        result, attempts=1, from_cache=False, label=None)


def test_failure_roundtrip(failure):
    line = journal.outcome_record(failure)
    decoded = RunFailure.from_record(json.loads(json.dumps(line)),
                                     spec=failure.spec)
    assert decoded.spec is failure.spec
    # Field-equal, but the record keeps elapsed_s to the millisecond.
    assert decoded.elapsed_s == pytest.approx(failure.elapsed_s, abs=1e-3)
    assert decoded == dataclasses.replace(failure,
                                          elapsed_s=decoded.elapsed_s)


def test_served_failure_carries_label_and_the_clients_spec(
        failure, monkeypatch):
    spec = failure.spec
    job = Job(spec=spec, client="c", id="j1", spec_hash=failure.spec_hash)
    message = daemon_mod._outcome_message(job, failure)
    assert message["label"] == "wire-fail"
    with _scripted_client(monkeypatch, [
        [{"type": "accepted", "job_id": "j1", "status": "queued",
          "spec_hash": failure.spec_hash}, message],
    ]) as client:
        served = client.submit(spec).outcome(timeout=10)
    assert served.spec is spec and served.spec.label == "wire-fail"
    assert served.error_type == "SimulationTimeout"
    assert served.hang == {"kind": "timeout"}


# ------------------------------------------------------------ rejection


def test_version_mismatch_rejected(result, failure):
    for decode, line in _decoders(result, failure):
        with pytest.raises(ValueError, match="record version 2"):
            decode(dict(line, v=2))


def test_missing_version_rejected(result, failure):
    for decode, line in _decoders(result, failure):
        del line["v"]
        with pytest.raises(ValueError, match="record version None"):
            decode(line)


def test_extra_key_rejected(result, failure):
    for decode, line in _decoders(result, failure):
        with pytest.raises(ValueError, match=r"unexpected \['surprise'\]"):
            decode(dict(line, surprise=1))


def test_missing_key_rejected(result, failure):
    for decode, line in _decoders(result, failure):
        del line["elapsed_s"]
        with pytest.raises(ValueError, match=r"missing \['elapsed_s'\]"):
            decode(line)


def test_failure_version_mismatch_rejected(failure):
    line = dict(journal.outcome_record(failure), v=99)
    with pytest.raises(ValueError, match="99"):
        RunFailure.from_record(line)


def test_wrong_kind_rejected(result, failure):
    done = journal.outcome_record(result)
    with pytest.raises(ValueError, match="expected a 'failed' record"):
        RunFailure.from_record(done)
    with pytest.raises(ValueError, match="expected a 'result' record"):
        RunResult.from_dict(journal.outcome_record(failure))
    with pytest.raises(ValueError, match="unknown record kind"):
        journal.check(dict(done, kind="verdict"))


def test_non_object_rejected(result, failure):
    for decode, _ in _decoders(result, failure):
        with pytest.raises(ValueError, match="expected a v1 record object"):
            decode([])


def test_encoding_enforces_frozen_set(result, monkeypatch):
    # A drifted encoder (a new key in to_dict) must fail at encode
    # time, not silently ship a payload every v1 reader rejects.
    monkeypatch.setattr(results, "record", lambda kind, **fields:
                        journal.record(kind, **fields, novel=True))
    with pytest.raises(ValueError, match="novel"):
        result.to_dict()
