"""Golden determinism: the fast engine is bitwise-identical to the seed.

The fast engine (pre-decoded instructions, ready-event heap, hoisted
tracer/stats branches — see :mod:`repro.sim.sm`) is a pure performance
transformation: for every workload and configuration it must visit the
same cycles, issue the same instructions, and land on the same final
state as the reference engine it replaced.  These tests run each
configuration once per engine and diff the **full**
``SimStats.summary()`` dict — cycles, instruction counts, SIMD
efficiency, lock outcomes, memory transactions, energy — plus the
validated memory image (``validate=True``).

The matrix deliberately crosses the features whose interaction the fast
engine had to re-derive: all three base schedulers, fixed and adaptive
BOWS back-off, DDOS on/off, schedule perturbation (seeded RNG draw
order is part of the contract), and both sync and sync-free kernels.
"""

from __future__ import annotations

import pytest

from conftest import fence_first_workload
from repro.api import simulate
from repro.kernels import build as build_workload
from repro.sim.config import GPUConfig, PerturbConfig

#: Small-but-representative workload shapes (a run stays well under a
#: second so the whole matrix fits in the tier-1 budget).
PARAMS = {
    "ht": dict(n_threads=128, n_buckets=8, items_per_thread=1,
               block_dim=64),
    "nw1": dict(n_threads=128, n_cols=32, cell_work=4, block_dim=64),
    "atm": dict(n_threads=128, n_accounts=16, rounds=1, block_dim=64),
    "reduction": dict(n_threads=128, block_dim=64),
}

CONFIGS = [
    pytest.param("ht", {"scheduler": "gto"}, id="ht-gto"),
    pytest.param("ht", {"scheduler": "lrr"}, id="ht-lrr"),
    pytest.param("ht", {"scheduler": "cawa"}, id="ht-cawa"),
    pytest.param("ht", {"scheduler": "gto", "bows": "adaptive"},
                 id="ht-bows-adaptive"),
    pytest.param("ht", {"scheduler": "gto", "bows": 1000},
                 id="ht-bows-fixed"),
    pytest.param("ht", {"scheduler": "gto", "ddos": False},
                 id="ht-static-sibs"),
    pytest.param("nw1", {"scheduler": "gto"}, id="nw1-gto"),
    pytest.param("nw1", {"scheduler": "gto", "bows": "adaptive"},
                 id="nw1-bows-adaptive"),
    pytest.param("atm", {"scheduler": "gto"}, id="atm-gto"),
    pytest.param("atm", {"scheduler": "gto", "bows": "adaptive"},
                 id="atm-bows-adaptive"),
    pytest.param("reduction", {"scheduler": "gto"}, id="reduction-gto"),
    pytest.param("fence_first", {"scheduler": "gto"}, id="fence-first-gto"),
    pytest.param("fence_first", {"scheduler": "lrr", "bows": "adaptive"},
                 id="fence-first-lrr-bows"),
]


def _workload(kernel: str):
    """A fresh build: a registered kernel at its ``PARAMS`` shape, or the
    directed fence-first kernel (``conftest.fence_first_workload``)."""
    if kernel == "fence_first":
        return fence_first_workload()
    return build_workload(kernel, **PARAMS[kernel])


def _run(kernel: str, config: GPUConfig, engine: str):
    return simulate(_workload(kernel), config=config, engine=engine)


@pytest.mark.parametrize("kernel, preset_kwargs", CONFIGS)
def test_engines_bitwise_identical(kernel, preset_kwargs):
    config = GPUConfig.preset("fermi", **preset_kwargs)
    reference = _run(kernel, config, "reference")
    fast = _run(kernel, config, "fast")
    assert fast.stats.summary() == reference.stats.summary()
    assert fast.cycles == reference.cycles
    assert sorted(fast.predicted_sibs()) == sorted(
        reference.predicted_sibs())


def test_engines_identical_under_perturbation():
    """Seeded schedule perturbation draws its RNG in the same order on
    both engines — any divergence in draw order shows up as different
    cycle counts immediately."""
    for seed in (0, 7):
        config = GPUConfig.preset("fermi", scheduler="gto").replace(
            perturb=PerturbConfig(seed=seed, sched_jitter=0.2,
                                  mem_jitter_cycles=8,
                                  rotation_period=101),
        )
        reference = _run("ht", config, "reference")
        fast = _run("ht", config, "fast")
        assert fast.stats.summary() == reference.stats.summary(), seed


def test_engines_identical_on_pascal_preset():
    config = GPUConfig.preset("pascal", scheduler="gto", bows="adaptive")
    reference = _run("ht", config, "reference")
    fast = _run("ht", config, "fast")
    assert fast.stats.summary() == reference.stats.summary()


def _begin(kernel: str, config: GPUConfig, engine: str,
           obs=None, sanitize=None):
    """A live mid-runnable Simulation over a fresh workload build."""
    from repro.sim.gpu import GPU

    workload = _workload(kernel)
    gpu = GPU(config, memory=workload.memory, engine=engine, obs=obs,
              sanitizer=sanitize)
    return workload, gpu.begin(workload.launch)


#: What :func:`_hear` was called with.  A module-level function pickles
#: by reference, so a checkpoint that carried the subscriber along would
#: keep filling this very list after the restore.
_HEARD = []


def _hear(item):
    _HEARD.append(item)


def _observers(mode):
    """``(obs, sanitize)`` for one mode of the checkpoint identity loop;
    ``observed`` attaches everything at once, issue recording included."""
    from repro.obs import Observability

    if mode == "observed":
        return Observability(issue_capacity=100_000), True
    return (True if mode == "obs" else None,
            True if mode == "sanitize" else None)


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize("kernel, preset_kwargs", CONFIGS)
def test_checkpoint_resume_is_bitwise_identical(kernel, preset_kwargs,
                                                engine):
    """Checkpoint/resume is invisible to the golden contract: for every
    configuration in the matrix, stopping mid-run, serializing the
    complete machine state through bytes, and resuming in a fresh object
    graph lands on the same cycles, the same full stats summary, and a
    validating memory image as the uninterrupted run — with and without
    observability and the sanitizer attached.  With everything attached
    (``observed``), what the observers *collected* survives the round
    trip too, and a live subscriber does not."""
    from repro.sim.checkpoint import checkpoint_bytes_roundtrip

    config = GPUConfig.preset("fermi", **preset_kwargs)
    baseline = _run(kernel, config, engine)
    mid = max(1, baseline.cycles // 2)
    for mode in ("plain", "obs", "sanitize", "observed"):
        obs, sanitize = _observers(mode)
        workload, sim = _begin(kernel, config, engine, obs=obs,
                               sanitize=sanitize)
        if mode == "observed":
            sim.obs.subscribe(on_event=_hear, on_row=_hear)
        sim.run_until(mid)
        assert not sim.finished, mode
        restored = checkpoint_bytes_roundtrip(sim)
        assert restored is not sim
        if engine == "fast":
            # The issue loop's per-scheduler rows must still be the
            # restored schedulers and ready sets, not copies of them.
            for sm in restored.sms:
                assert [tuple(map(id, row)) for row in sm._rows] == [
                    tuple(map(id, row)) for row in zip(
                        sm.schedulers, sm._ready_normal, sm._ready_backed)]
        heard = len(_HEARD)
        result = restored.run()
        assert result.stats.summary() == baseline.stats.summary(), mode
        assert result.cycles == baseline.cycles, mode
        workload.validate(result.memory)
        if mode == "observed":
            assert heard > 0 and len(_HEARD) == heard
            obs, sanitize = _observers(mode)
            whole = _begin(kernel, config, engine, obs=obs,
                           sanitize=sanitize)[1].run()
            assert result.obs.bus.counts == whole.obs.bus.counts
            assert result.obs.events() == whole.obs.events()
            assert result.obs.series.rows == whole.obs.series.rows
            assert result.obs.issues.events() == whole.obs.issues.events()
            assert result.obs.issues.counts == whole.obs.issues.counts
            assert result.sanitizer.counters == whole.sanitizer.counters


def _fenced_before_release(sim):
    """Warps the reference ``next_event`` would report their fence for
    although a scoreboard release lands later: ``now < membar_until <
    release``.  Read from architectural state, so it means the same on
    both engines."""
    now = sim.now
    found = []
    for sm in sim.sms:
        for warp in sm.warps.values():
            if warp.finished or warp.at_barrier:
                continue
            release = warp.scoreboard.next_release(
                warp.current_instruction().hazard_keys, now)
            if release is not None and now < warp.membar_until < release:
                found.append(warp)
    return found


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_fence_expiring_before_the_scoreboard_release(engine):
    """The fence-first quirk, pinned: a fenced warp's next event is its
    ``membar_until`` even when the instruction behind the fence waits on
    a later scoreboard release, so the loop visits a cycle on which
    nothing issues and charges its issue slots.  The fast engine's wait
    heap is keyed by that next-event time; the kernels of the golden
    matrix reach the case too rarely to notice a wrong key."""
    from repro.sim.checkpoint import checkpoint_bytes_roundtrip

    config = GPUConfig.preset("fermi", scheduler="gto")
    oracle = _run("fence_first", config, "reference")
    # Frozen: 602 cycles.  A heap keyed by the first *issuable* cycle
    # skips the visit at each fence's expiry and charges fewer slots.
    assert (oracle.cycles, oracle.stats.issue_slots) == (602, 136)

    workload, sim = _begin("fence_first", config, engine)
    in_window = 0
    restored = None
    while not sim.run_until(sim.now + 1):  # one visited cycle at a time
        if _fenced_before_release(sim):
            in_window += 1
            if restored is None:
                restored = checkpoint_bytes_roundtrip(sim)
    assert in_window, "no warp ever sat fenced ahead of its release"
    for result in (sim.result, restored.run()):
        assert result.cycles == oracle.cycles
        assert result.stats.issue_slots == oracle.stats.issue_slots
        assert result.stats.summary() == oracle.stats.summary()
    workload.validate(sim.result.memory)


@pytest.mark.parametrize("kernel", ["ht", "nw1"])
def test_sanitizer_is_invisible_to_the_golden_contract(kernel):
    """The dynamic sanitizer is a pure observer: with it on, both
    engines still match each other *and* the sanitizer-off baseline
    bitwise (same cycles, same full stats summary)."""
    config = GPUConfig.preset("fermi", scheduler="gto")
    baseline = _run(kernel, config, "fast")
    for engine in ("fast", "reference"):
        sanitized = simulate(kernel, config=config, params=PARAMS[kernel],
                             engine=engine, sanitize=True)
        assert sanitized.stats.summary() == baseline.stats.summary()
        assert sanitized.cycles == baseline.cycles
        assert sanitized.sanitizer.ok, sanitized.sanitizer.render()
