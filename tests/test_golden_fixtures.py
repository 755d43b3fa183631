"""The equivalence matrix: every way of obtaining a run, held to one oracle.

``tests/fixtures/golden_summaries.json`` is the oracle, written on the
reference engine.  A row names a workload and a configuration, and
holds what the ways :data:`MATRIX` runs on it observe: the full
``SimStats.summary()`` and a digest of every ``SimStats`` field, the
final memory image, ``issue_slots`` and the DDOS-predicted SIBs on every
row; and, where a way attaches them, the obs payload, the issue ring,
the sanitizer payload, the lab's DDOS outcome and the directed facts of
``test_visit_equivalence.py`` (CAWA charges at fixed stops, series
stamps, hang reports).

A *way* is one function ``(row, engine) -> observables``, and a case
passes when every observable equals the row's value for it — no case
simulates anything to obtain its expected answer.  Cases older suites
named keep their ids and call :func:`check` from their own files; a
case two ids share is simulated once.

The writer records every way except ``resumed-*`` (whose stop reads the
oracle) on the reference engine, and refuses two ways that disagree on
an observable they share.  Regenerate the fixture only when the *model*
changes on purpose::

    PYTHONPATH=src python tests/test_golden_fixtures.py --write
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import ENGINES, fence_first_workload
from repro.harness.params import QUICK_PARAMS, QUICK_SYNC_FREE
from repro.isa import assemble
from repro.kernels import build
from repro.lab import Runner, RunSpec
from repro.lab.results import RunResult, stats_to_dict
from repro.memory.memsys import GlobalMemory
from repro.obs import ObsConfig, Observability, event_to_dict
from repro.sim.checkpoint import SimCheckpoint
from repro.sim.config import GPUConfig, PerturbConfig
from repro.sim.gpu import GPU, KernelLaunch
from repro.sim.progress import SimulationDeadlock, SimulationLivelock
from test_simt_deadlock import NAIVE_SPIN

FIXTURE = Path(__file__).parent / "fixtures" / "golden_summaries.json"


def naive_spin():
    """``test_simt_deadlock``'s intra-warp spin lock: it never finishes."""
    memory = GlobalMemory(1 << 12)
    params = {"mutex": memory.alloc(1), "counter": memory.alloc(1)}
    return SimpleNamespace(memory=memory, launch=KernelLaunch(
        assemble(NAIVE_SPIN), 1, 64, params))


def barrier():
    return SimpleNamespace(memory=None, launch=KernelLaunch(
        assemble("mov %r1, 0\nbar.sync\nexit"), 1, 64, {}))


#: Workload -> (kernel, builder params), or a directed kernel's builder:
#: every kernel at quick scale, ``ht``/``nw1``/``atm`` at full size, the
#: shapes the engine-identity cases run (``-small``), and three kernels
#: built for one ``_advance`` condition each.
WORKLOADS = {
    **{kernel: (kernel, params)
       for kernel, params in {**QUICK_PARAMS, **QUICK_SYNC_FREE}.items()},
    **{f"{kernel}-full": (kernel, {}) for kernel in ("ht", "nw1", "atm")},
    "ht-small": ("ht", dict(n_threads=128, n_buckets=8, items_per_thread=1,
                            block_dim=64)),
    "nw1-small": ("nw1", dict(n_threads=128, n_cols=32, cell_work=4,
                              block_dim=64)),
    "atm-small": ("atm", dict(n_threads=128, n_accounts=16, rounds=1,
                              block_dim=64)),
    "fence-first": fence_first_workload,
    "naive-spin": naive_spin,
    "barrier": barrier,
}

fermi = functools.partial(GPUConfig.preset, "fermi")
CONFIGS = {
    "gto": fermi(scheduler="gto"),
    "bows": fermi(scheduler="gto", bows="adaptive"),
    "lrr": fermi(scheduler="lrr"),
    "cawa": fermi(scheduler="cawa"),
    "lrr-bows": fermi(scheduler="lrr", bows="adaptive"),
    "cawa-bows": fermi(scheduler="cawa", bows="adaptive"),
    "bows1000": fermi(scheduler="gto", bows=1000),
    # BOWS on the kernel's ``!sib`` annotations instead of DDOS.
    "static-sibs": fermi(scheduler="gto", bows="adaptive", ddos=False),
    **{f"perturb{seed}": fermi(scheduler="gto").replace(perturb=PerturbConfig(
        seed=seed, sched_jitter=0.2, mem_jitter_cycles=8,
        rotation_period=101)) for seed in (0, 7)},
    "pascal-bows": GPUConfig.preset("pascal", scheduler="gto",
                                    bows="adaptive"),
    "1sm": fermi(scheduler="gto", num_sms=1, max_warps_per_sm=8),
    # Short enough to autocheckpoint a served run about ten times.
    "bows-epoch400": fermi(scheduler="gto", bows="adaptive",
                           progress_epoch=400),
    **{f"guard-epoch{epoch}": fermi(
        scheduler="gto", num_sms=1, max_warps_per_sm=4,
        no_progress_window=600, progress_epoch=epoch) for epoch in (1, 5)},
    "1sm-unguarded": fermi(scheduler="gto", num_sms=1, no_progress_window=0),
}


def rows(workload, *labels):
    return [f"{workload}-{label}" for label in labels]


#: Row -> (workload, config label).
ROWS = {
    f"{workload}-{label}": (workload, label)
    for workload, labels in [
        *((name, ("gto", "bows")) for name in [
            *QUICK_PARAMS, *QUICK_SYNC_FREE, "ht-full", "nw1-full",
            "atm-full"]),
        ("ht-small", ("gto", "lrr", "cawa", "bows", "lrr-bows", "cawa-bows",
                      "bows1000", "static-sibs", "perturb0", "perturb7",
                      "pascal-bows", "1sm")),
        ("nw1-small", ("gto", "bows", "bows-epoch400")),
        ("atm-small", ("gto", "bows")),
        ("fence-first", ("gto", "lrr-bows")),
        ("reduction", ("lrr", "cawa", "lrr-bows", "cawa-bows")),
        ("naive-spin", ("guard-epoch1", "guard-epoch5")),
        ("barrier", ("1sm-unguarded",)),
    ]
    for label in labels
}

#: The rows the ``resumed`` way crosses: all three base schedulers,
#: fixed and adaptive BOWS, static SIBs, sync and sync-free kernels, and
#: the fence-first quirk.
CONFIG_ROWS = [
    *rows("ht-small", "gto", "lrr", "cawa", "bows", "bows1000",
          "static-sibs"),
    *rows("nw1-small", "gto", "bows"), *rows("atm-small", "gto", "bows"),
    "reduction-gto", *rows("fence-first", "gto", "lrr-bows"),
]
#: The rows the lab's and the daemon's roads run.
LAB_ROWS = ["vecadd-gto", "ht-small-bows", "nw1-small-bows-epoch400"]
HANG_ROWS = [*rows("naive-spin", "guard-epoch1", "guard-epoch5"),
             "barrier-1sm-unguarded"]
MODES = ("plain", "obs", "sanitize", "observed")


# ----------------------------------------------------------------------
# A row's run, and what it shows


def _observers(mode):
    """``(obs, sanitize)`` of one mode; ``observed`` attaches everything
    at once, issue recording included."""
    if mode == "observed":
        return Observability(issue_capacity=100_000), True
    return (True if mode == "obs" else None,
            True if mode == "sanitize" else None)


def begin(row, engine, mode="plain", obs=None):
    """A live, not yet advanced ``Simulation`` over a fresh build."""
    workload, label = ROWS[row]
    source = WORKLOADS[workload]
    if callable(source):
        built = source()
    else:
        kernel, params = source
        built = build(kernel, **params)
    observers = _observers(mode)
    return GPU(CONFIGS[label], memory=built.memory, engine=engine,
               obs=obs or observers[0], sanitizer=observers[1]
               ).begin(built.launch)


def spec(row, engine="fast", **fields) -> RunSpec:
    """The lab's spelling of a registered kernel's row."""
    workload, label = ROWS[row]
    kernel, params = WORKLOADS[workload]
    return RunSpec(kernel, CONFIGS[label], dict(params), engine=engine,
                   **fields)


def checkpoint_bytes_roundtrip(sim):
    """Capture -> bytes -> parse -> restore, without touching disk."""
    blob = SimCheckpoint.capture(sim).to_bytes()
    return SimCheckpoint.from_bytes(blob).restore()


def digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()


def observe(result) -> dict:
    """What a run shows: a ``SimResult`` off the GPU, or the lab's
    ``RunResult``, which carries the DDOS outcome instead of a memory
    image and its observers' payloads already as plain data."""
    stats = result.stats
    seen = {"summary": stats.summary(),
            "stats_sha256": digest(stats_to_dict(stats)),
            "issue_slots": stats.issue_slots}
    if isinstance(result, RunResult):
        seen.update(predicted_sibs=list(result.predicted_sibs),
                    ddos=result.ddos)
        obs, sanitizer = result.obs, result.sanitizer
    else:
        seen.update(predicted_sibs=sorted(result.predicted_sibs()),
                    memory_sha256=hashlib.sha256(
                        result.memory.words.tobytes()).hexdigest())
        obs, sanitizer = (None if part is None else part.to_dict()
                          for part in (result.obs, result.sanitizer))
        if obs is not None and result.obs.issues is not None:
            seen["issues_sha256"] = digest([
                list(map(event_to_dict, result.obs.issues.events())),
                result.obs.issues.counts])
    if obs is not None:
        seen.update(event_counts=obs["events"]["counts"],
                    obs_sha256=digest(obs))
    if sanitizer is not None:
        assert sanitizer["ok"], sanitizer["diagnostics"]
        seen["sanitizer_sha256"] = digest(sanitizer)
    return seen


# ----------------------------------------------------------------------
# The ways


def direct(row, engine, mode="plain"):
    return observe(begin(row, engine, mode).run())


#: What :func:`_hear` was called with.  A module-level function pickles
#: by reference, so a checkpoint that carried the subscriber along would
#: keep filling this very list after the restore.
_HEARD = []


def _hear(item):
    _HEARD.append(item)


def resumed(row, engine, mode):
    """Stop mid-run, serialise the machine through bytes and resume in a
    fresh object graph.  What the observers collected survives the round
    trip; a live subscriber does not."""
    sim = begin(row, engine, mode)
    if mode == "observed":
        _HEARD.clear()
        sim.obs.subscribe(on_event=_hear, on_row=_hear)
    sim.run_until(max(1, oracle()[row]["summary"]["cycles"] // 2))
    assert not sim.finished
    restored = checkpoint_bytes_roundtrip(sim)
    assert restored is not sim
    if engine == "fast":
        # The issue loop's per-scheduler rows must still be the
        # restored schedulers and ready sets, not copies of them.
        for sm in restored.sms:
            assert [tuple(map(id, r)) for r in sm._rows] == [
                tuple(map(id, r)) for r in zip(
                    sm.schedulers, sm._ready_normal, sm._ready_backed)]
    heard = len(_HEARD)
    seen = observe(restored.run())
    if mode == "observed":
        # Heard before the checkpoint (when the run has published
        # anything by then), never after it.
        assert heard or not oracle()[row]["event_counts"]
        assert len(_HEARD) == heard
    collected = {"obs_sha256": mode in ("obs", "observed"),
                 "sanitizer_sha256": mode in ("sanitize", "observed"),
                 "issues_sha256": mode == "observed"}
    assert {key: key in seen for key in collected} == collected
    return seen


def runner(**options):
    """A ``Runner`` road, collecting obs as the served roads do."""
    def way(row, engine):
        asked = spec(row, engine, obs=ObsConfig())
        result = Runner(**options).run_one(asked)
        assert result.spec_hash == asked.content_hash()
        return observe(result)
    return way


def cawa_stops(row, engine):
    """CAWA's per-warp counters, read off the live warps at seven stops."""
    sim = begin(row, engine)
    charges = []
    for stop in range(1_000, 7_001, 1_000):
        sim.run_until(stop)
        # A run_until stop is about to execute ``now``: charge up to it
        # the way the step at ``now`` will.
        for sm in sim.sms:
            sm._charge_cawa(sim.now)
        charges.append([sim.now, sorted(
            [sm.sm_id, slot, warp.cawa_cycles, warp.cawa_nstall]
            for sm in sim.sms for slot, warp in sm.warps.items())])
    return {"cawa_charges_at_stops": charges}


def series_every(interval):
    def way(row, engine):
        obs = ObsConfig(sample_interval=interval)
        series = begin(row, engine, obs=obs).run().obs.series.rows
        assert len(series) > 50
        return {f"series_sha256_every_{interval}": digest(series)}
    return way


def walk(row, engine):
    """Walk the run one visited cycle at a time: an empty cycle right
    after an issuing one is what the fast loop only charges."""
    sim = begin(row, engine)
    visited = []
    while not sim.run_until(sim.now + 1):
        visited.append((sim.now, sim.stats.warp_instructions))
    return {"empty_cycles_after_issue": [
        now for (before, n0), (now, n1), (_, n2)
        in zip(visited, visited[1:], visited[2:])
        if now == before + 1 and n1 > n0 and n2 == n1]}


def hang(row, engine):
    """The report a run that cannot finish raises, and the cycles the
    progress monitor sampled at on the way.  The ``barrier`` kernel's
    barrier unit never releases."""
    sim = begin(row, engine)
    sampled = []
    if sim.monitor is not None:
        sample = sim.monitor.sample
        sim.monitor.sample = lambda now: (sampled.append(now), sample(now))
    if ROWS[row][0] == "barrier":
        for sm in sim.sms:
            sm._barrier_arrive = lambda *args, **kwargs: None
    with pytest.raises((SimulationDeadlock, SimulationLivelock)) as excinfo:
        sim.run()
    report = excinfo.value.report
    return {"hang": {"error": type(excinfo.value).__name__,
                     "cycle": report.cycle, "at": sim.now,
                     "report_sha256": digest(report.to_dict()),
                     "samples": len(sampled),
                     "samples_sha256": digest(sampled)}}


#: Way -> (how, the rows it is checked on).  What ``observed`` and
#: ``walk`` write is read back by ``resumed-observed`` and by
#: ``test_visit_equivalence``'s ``run_until`` test.
MATRIX = {
    "direct": (direct, [row for row in ROWS if row not in HANG_ROWS]),
    "obs": (functools.partial(direct, mode="obs"),
            ["ht-small-bows", "atm-small-bows", "reduction-gto"]),
    "sanitize": (functools.partial(direct, mode="sanitize"),
                 ["ht-small-gto", "nw1-small-gto", "ht-small-1sm"]),
    "observed": (functools.partial(direct, mode="observed"), [
        *CONFIG_ROWS, "ht-small-1sm", "vecadd-gto",
        "nw1-small-bows-epoch400"]),
    **{f"resumed-{mode}": (functools.partial(resumed, mode=mode),
                           CONFIG_ROWS) for mode in MODES},
    "runner-serial": (runner(workers=1), LAB_ROWS),
    "runner-thread": (runner(workers=2, mode="thread"), LAB_ROWS),
    "runner-process": (runner(workers=2, mode="process"), LAB_ROWS),
    "cawa-stops": (cawa_stops, ["ht-small-cawa"]),
    **{f"series-every-{n}": (series_every(n), ["ht-small-bows"])
       for n in (1, 7)},
    "walk": (walk, ["ht-small-bows"]),
    "hang": (hang, HANG_ROWS),
}


# ----------------------------------------------------------------------
# The oracle and the one comparison


@functools.lru_cache(maxsize=None)
def oracle() -> dict:
    return json.loads(FIXTURE.read_text())


def expect(row, seen: dict) -> None:
    """Every observable in ``seen`` equals the oracle's value for it —
    through JSON, so the comparison is on exactly what was committed
    (and a NumPy scalar leaking into an observable fails to serialise)."""
    golden = oracle()[row]
    seen = json.loads(json.dumps(seen))
    assert seen and set(seen) <= set(golden), sorted(set(seen) - set(golden))
    assert seen == {key: golden[key] for key in seen}


@functools.lru_cache(maxsize=None)
def _observed(way, row, engine):
    return MATRIX[way][0](row, engine)


def check(way, row, engine="fast") -> None:
    assert row in MATRIX[way][1], f"{way} × {row} is not in the matrix"
    expect(row, _observed(way, row, engine))


def write() -> dict:
    """Every case of the matrix on the reference engine, ``resumed``
    aside; two ways sharing an observable must agree on it."""
    records = {}
    for way, (how, way_rows) in MATRIX.items():
        if way.startswith("resumed-"):
            continue
        for row in way_rows:
            seen = json.loads(json.dumps(how(row, "reference")))
            record = records.setdefault(row, {})
            shared = set(seen) & set(record)
            assert {k: seen[k] for k in shared} == {
                k: record[k] for k in shared}, (way, row)
            record.update(seen)
    return records


# ----------------------------------------------------------------------
# The matrix


def test_fixture_covers_the_matrix():
    assert sorted(oracle()) == sorted(ROWS)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", MATRIX["direct"][1])
def test_engine_reproduces_golden_fixture(case, engine):
    check("direct", case, engine)


@pytest.mark.parametrize("way", ["runner-serial", "runner-process"])
@pytest.mark.parametrize("row", LAB_ROWS)
def test_way_reproduces_golden_fixture(row, way):
    check(way, row)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    records = write()
    FIXTURE.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} rows to {FIXTURE}")
