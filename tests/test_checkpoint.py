"""Checkpoint format, corruption handling, and resume semantics.

The bitwise-identity contract (every matrix config, both engines, obs
and sanitizer on/off) is the equivalence matrix's ``resumed`` way
(``test_golden_fixtures.py``, its cases in ``test_golden_equivalence.py``);
this file covers the container format itself — magic, checksum,
versioning, code fingerprint — and the ``simulate(checkpoint_every=...)``
/ ``resume_simulation`` driving surface, including resuming a run that
exhausted its cycle budget.  A resumed run is held to the oracle's
``ht-small-gto`` row, the shape and configuration it runs.
"""

from __future__ import annotations

import pickle

import pytest

from repro.api import resume_simulation, simulate
from repro.kernels import build as build_workload
from repro.sim.checkpoint import CheckpointError, SimCheckpoint
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPU
from repro.sim.progress import SimulationTimeout
from test_golden_fixtures import oracle

PARAMS = dict(n_threads=128, n_buckets=8, items_per_thread=1, block_dim=64)


def _mid_run_sim(config=None, obs=None):
    config = config or GPUConfig.preset("fermi", scheduler="gto")
    workload = build_workload("ht", **PARAMS)
    gpu = GPU(config, memory=workload.memory, obs=obs)
    sim = gpu.begin(workload.launch)
    sim.run_until(1_000)
    assert not sim.finished
    return workload, sim


def _golden_summary():
    return oracle()["ht-small-gto"]["summary"]


# ---------------------------------------------------------------------------
# Container format


def test_capture_records_meta():
    _, sim = _mid_run_sim()
    ckpt = SimCheckpoint.capture(sim)
    assert ckpt.meta["program"] == "ht"
    assert ckpt.meta["engine"] == "fast"
    assert ckpt.cycle == sim.now
    assert len(ckpt.meta["fingerprint"]) == 64


def test_bytes_round_trip_preserves_meta_and_state():
    _, sim = _mid_run_sim()
    ckpt = SimCheckpoint.capture(sim)
    again = SimCheckpoint.from_bytes(ckpt.to_bytes())
    assert again.meta == ckpt.meta
    assert again.payload == ckpt.payload
    assert again.restore().now == sim.now


def test_save_and_load_file(tmp_path):
    _, sim = _mid_run_sim()
    path = tmp_path / "deep" / "run.ckpt"
    saved = SimCheckpoint.capture(sim).save(path)
    assert saved == path and path.is_file()
    restored = SimCheckpoint.load(path).restore()
    assert restored.now == sim.now
    assert restored.run().stats.summary() == _golden_summary()


def test_bad_magic_is_rejected(tmp_path):
    _, sim = _mid_run_sim()
    blob = SimCheckpoint.capture(sim).to_bytes()
    with pytest.raises(CheckpointError, match="magic"):
        SimCheckpoint.from_bytes(b"NOTCKPT!" + blob[8:])


def test_flipped_byte_fails_the_checksum(tmp_path):
    _, sim = _mid_run_sim()
    blob = bytearray(SimCheckpoint.capture(sim).to_bytes())
    blob[len(blob) // 2] ^= 0xFF
    with pytest.raises(CheckpointError, match="checksum"):
        SimCheckpoint.from_bytes(bytes(blob))


def test_truncated_file_is_rejected(tmp_path):
    _, sim = _mid_run_sim()
    path = tmp_path / "run.ckpt"
    SimCheckpoint.capture(sim).save(path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(CheckpointError):
        SimCheckpoint.load(path)


def test_foreign_fingerprint_is_rejected_unless_overridden():
    _, sim = _mid_run_sim()
    ckpt = SimCheckpoint.capture(sim)
    ckpt.meta = dict(ckpt.meta, fingerprint="0" * 64)
    blob = ckpt.to_bytes()
    with pytest.raises(CheckpointError, match="fingerprint"):
        SimCheckpoint.from_bytes(blob)
    forced = SimCheckpoint.from_bytes(blob, check_fingerprint=False)
    assert forced.restore().now == sim.now


def test_missing_file_raises_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError):
        SimCheckpoint.load(tmp_path / "nope.ckpt")


def test_unpicklable_state_is_wrapped():
    _, sim = _mid_run_sim()
    sim.not_serializable = lambda: None  # locals never pickle
    with pytest.raises(CheckpointError, match="not checkpointable"):
        SimCheckpoint.capture(sim)
    del sim.not_serializable
    payload = SimCheckpoint.capture(sim).payload
    assert pickle.loads(payload).now == sim.now


# ---------------------------------------------------------------------------
# Driving surface


def test_checkpoint_every_requires_a_path():
    with pytest.raises(ValueError, match="checkpoint_path"):
        simulate("ht", params=PARAMS, checkpoint_every=True)


def test_checkpoint_interval_must_be_positive(tmp_path):
    with pytest.raises(ValueError):
        simulate("ht", params=PARAMS, checkpoint_every=0,
                 checkpoint_path=tmp_path / "x.ckpt")
    with pytest.raises(ValueError):
        simulate("ht", params=PARAMS, checkpoint_every=-5,
                 checkpoint_path=tmp_path / "x.ckpt")


def test_autocheckpointing_run_matches_baseline_and_emits_events(tmp_path):
    path = tmp_path / "run.ckpt"
    result = simulate("ht", params=PARAMS, obs=True,
                      checkpoint_every=1_000, checkpoint_path=path)
    assert result.stats.summary() == _golden_summary()
    # Periodic saves happened, were journaled as events, and the last
    # one is a loadable file (the lab layer removes it on success).
    saves = result.obs.bus.counts.get("checkpoint_saved", 0)
    assert saves >= 1
    assert path.is_file()
    assert SimCheckpoint.load(path).cycle <= result.cycles


def test_resume_accepts_checkpoint_object_and_live_simulation():
    _, sim = _mid_run_sim()
    ckpt = SimCheckpoint.capture(sim)
    from_ckpt = resume_simulation(ckpt)
    assert from_ckpt.stats.summary() == _golden_summary()
    from_live = resume_simulation(sim)  # continues the original object
    assert from_live.stats.summary() == _golden_summary()


def test_timed_out_run_resumes_from_its_checkpoint(tmp_path):
    """The watchdog-timeout story: a run that exhausts ``max_cycles``
    leaves its periodic checkpoint behind; resuming with a raised budget
    completes it bitwise-identically to a never-interrupted run."""
    path = tmp_path / "run.ckpt"
    config = GPUConfig.preset("fermi", scheduler="gto").replace(
        max_cycles=3_000)
    with pytest.raises(SimulationTimeout):
        simulate("ht", params=PARAMS, config=config,
                 checkpoint_every=1_000, checkpoint_path=path)
    assert path.is_file()
    ckpt = SimCheckpoint.load(path)
    assert 0 < ckpt.cycle <= 3_000

    with pytest.raises(ValueError, match="below the checkpoint's budget"):
        resume_simulation(path, extend_max_cycles=100)

    result = resume_simulation(path, extend_max_cycles=30_000_000)
    assert result.stats.summary() == _golden_summary()
    workload = build_workload("ht", **PARAMS)
    workload.validate(result.memory)
