"""Dynamic sanitizer: unit checks, purity, and the plumbing around it.

Unit tests drive the :class:`Sanitizer` hooks directly with synthetic
thread/address traffic (one call per simulated access — no GPU needed);
integration tests assert the two contracts the rest of the repo relies
on: registered kernels run sanitize-clean, and turning the sanitizer on
never changes simulated state (the run lands on the frozen oracle).
"""

from __future__ import annotations

import pytest

from repro.analysis import Sanitizer, SanitizerConfig, as_sanitizer
from repro.sim.config import GPUConfig
from repro.sim.run import simulate
from test_golden_fixtures import expect, observe

HT = dict(n_threads=128, n_buckets=8, items_per_thread=1, block_dim=64)


def _thread(lane=0, warp=0, cta=0, sm=0):
    """note_* positional prefix: (sm, cta, warp_in_cta[, lane])."""
    return sm, cta, warp


# ----------------------------------------------------------------------
# Coercion and config

def test_as_sanitizer_coercions():
    assert as_sanitizer(None) is None
    assert as_sanitizer(False) is None
    assert isinstance(as_sanitizer(True), Sanitizer)
    config = SanitizerConfig(track_reads=True)
    assert as_sanitizer(config).config is config
    sanitizer = Sanitizer()
    assert as_sanitizer(sanitizer) is sanitizer
    with pytest.raises(TypeError):
        as_sanitizer("yes")


def test_config_round_trip_and_hashable():
    config = SanitizerConfig(max_diagnostics=5, track_reads=True)
    assert SanitizerConfig.from_dict(config.to_dict()) == config
    assert hash(config) != hash(SanitizerConfig())


# ----------------------------------------------------------------------
# Unit: the SAN* checks on synthetic traffic

def test_san001_write_write_race_detected():
    san = Sanitizer()
    san.begin_run("unit")
    # Warp 0 lane 0 acquires lock @64 and writes @100 while holding it.
    san.note_atomic(0, 0, 0, 0, 64, pc=1, cycle=10, lock_try=True,
                    success=True, release=False, wrote=True)
    san.note_store(0, 0, 0, [0], [100], pc=2, cycle=11, release=False)
    # Warp 1 lane 0 writes @100 with no lock: race.
    san.note_store(0, 0, 1, [0], [100], pc=7, cycle=20, release=False)
    (diag,) = san.diagnostics
    assert diag.id == "SAN001" and diag.detail["kind"] == "write-write"
    assert diag.detail["other_pc"] == 2
    assert not san.ok and san.races == [diag]


def test_common_lock_suppresses_race():
    san = Sanitizer()
    san.begin_run("unit")
    for warp in (0, 1):
        san.note_atomic(0, 0, warp, 0, 64, pc=1, cycle=10, lock_try=True,
                        success=True, release=False, wrote=True)
        san.note_store(0, 0, warp, [0], [100], pc=2, cycle=11,
                       release=False)
        san.note_atomic(0, 0, warp, 0, 64, pc=3, cycle=12, lock_try=False,
                        success=False, release=True, wrote=True)
    assert san.ok
    assert san.counters["lock_acquires"] == 2
    assert san.counters["lock_releases"] == 2


def test_barrier_epoch_establishes_happens_before():
    san = Sanitizer()
    san.begin_run("unit")
    san.note_atomic(0, 0, 0, 0, 64, pc=1, cycle=10, lock_try=True,
                    success=True, release=False, wrote=True)
    san.note_store(0, 0, 0, [0], [100], pc=2, cycle=11, release=False)
    san.note_barrier_release(cta=0, cycle=15)
    # After the CTA-wide barrier the unlocked write is ordered: no race.
    san.note_store(0, 0, 1, [0], [100], pc=7, cycle=20, release=False)
    assert san.ok and san.counters["barrier_epochs"] == 1


def test_unrelated_unlocked_writes_are_not_races():
    """Two lock-free writers conflict only when at least one side holds
    a lock — plain data-parallel output is not flagged."""
    san = Sanitizer()
    san.begin_run("unit")
    san.note_store(0, 0, 0, [0], [100], pc=2, cycle=11, release=False)
    san.note_store(0, 0, 1, [0], [100], pc=7, cycle=20, release=False)
    assert san.ok


def test_san002_divergent_barrier():
    san = Sanitizer()
    san.begin_run("unit")
    san.note_barrier(0, 0, 0, pc=5, cycle=30, stack_depth=2)
    (diag,) = san.diagnostics
    assert diag.id == "SAN002" and diag.severity == "error"
    san.note_barrier(0, 0, 1, pc=9, cycle=31, stack_depth=1)
    assert len(san.diagnostics) == 1  # converged warp is fine


def test_san003_release_without_hold():
    san = Sanitizer()
    san.begin_run("unit")
    san.note_atomic(0, 0, 0, 0, 64, pc=4, cycle=9, lock_try=False,
                    success=False, release=True, wrote=True)
    (diag,) = san.diagnostics
    assert diag.id == "SAN003"
    # Plain-store releases are checked the same way.
    san.note_store(0, 0, 2, [0], [64], pc=8, cycle=12, release=True)
    assert [d.id for d in san.diagnostics] == ["SAN003", "SAN003"]


def test_san004_plain_store_to_lock_word():
    san = Sanitizer()
    san.begin_run("unit")
    san.note_atomic(0, 0, 0, 0, 64, pc=1, cycle=10, lock_try=True,
                    success=False, release=False, wrote=False)
    san.note_store(0, 0, 1, [0], [64], pc=6, cycle=12, release=False)
    (diag,) = san.diagnostics
    assert diag.id == "SAN004" and diag.severity == "warning"


def test_read_write_race_is_opt_in():
    def drive(san):
        san.begin_run("unit")
        san.note_atomic(0, 0, 0, 0, 64, pc=1, cycle=10, lock_try=True,
                        success=True, release=False, wrote=True)
        san.note_store(0, 0, 0, [0], [100], pc=2, cycle=11, release=False)
        san.note_load(0, 0, 1, [0], [100], pc=7, cycle=20)

    quiet = Sanitizer()
    drive(quiet)
    assert quiet.ok

    loud = Sanitizer(SanitizerConfig(track_reads=True))
    drive(loud)
    (diag,) = loud.diagnostics
    assert diag.id == "SAN001" and diag.detail["kind"] == "read-write"


def test_diagnostics_dedup_by_pc_with_counts():
    san = Sanitizer()
    san.begin_run("unit")
    for cycle in (9, 10, 11):
        san.note_atomic(0, 0, 0, 0, 64, pc=4, cycle=cycle, lock_try=False,
                        success=False, release=True, wrote=True)
    assert len(san.diagnostics) == 1
    assert san.counts[("SAN003", 4)] == 3
    assert "[x3]" in san.render()


def test_max_diagnostics_cap():
    san = Sanitizer(SanitizerConfig(max_diagnostics=3))
    san.begin_run("unit")
    for pc in range(10):
        san.note_atomic(0, 0, 0, 0, 64, pc=pc, cycle=pc, lock_try=False,
                        success=False, release=True, wrote=True)
    assert len(san.diagnostics) <= 3


def test_to_dict_shape():
    san = Sanitizer()
    san.begin_run("ht")
    san.note_store(0, 0, 0, [0], [100], pc=2, cycle=11, release=False)
    data = san.to_dict()
    assert data["kernel"] == "ht" and data["ok"]
    assert data["counters"]["checked_writes"] == 1
    assert data["config"] == SanitizerConfig().to_dict()


# ----------------------------------------------------------------------
# Integration: simulate(sanitize=...)

def _config(**kwargs):
    return GPUConfig.preset("fermi", scheduler="gto", num_sms=1,
                            max_warps_per_sm=8, **kwargs)


# The one engine, as a parameter: these cases keep their ``fast`` ids.
@pytest.mark.parametrize("engine", ["fast"])
def test_sanitize_on_is_clean_and_pure(engine):
    """The sanitizer is a pure observer: with it on, the run lands on
    the oracle's ``ht-small-1sm`` row (the ``sanitize`` way of the
    equivalence matrix), and a correct lock kernel produces zero
    findings."""
    sanitizer = Sanitizer()
    on = simulate("ht", config=_config(), params=HT, engine=engine,
                  sanitize=sanitizer)
    expect("ht-small-1sm", observe(on))
    assert on.sanitizer is sanitizer
    assert sanitizer.ok, sanitizer.render()
    assert sanitizer.counters["lock_acquires"] > 0
    assert sanitizer.counters["lock_releases"] > 0
    assert sanitizer.counters["raw_writes"] >= \
        sanitizer.counters["checked_writes"]


def test_sanitize_true_and_barrier_epochs():
    result = simulate("reduction", config=_config(),
                      params=dict(n_threads=128, block_dim=64),
                      sanitize=True)
    assert result.sanitizer is not None and result.sanitizer.ok
    assert result.sanitizer.counters["barrier_epochs"] > 0


def test_sanitizer_findings_reach_the_event_bus():
    from repro.obs import EventBus
    from repro.obs.events import SanitizerFinding

    bus = EventBus()
    san = Sanitizer(bus=bus)
    san.begin_run("unit")
    san.note_barrier(0, 0, 0, pc=5, cycle=30, stack_depth=3)
    (event,) = list(bus)
    assert isinstance(event, SanitizerFinding)
    assert event.diag_id == "SAN002" and event.pc == 5


# ----------------------------------------------------------------------
# Lab / hashing / fuzz / hang-report plumbing

def test_runspec_sanitize_field_hashes_only_when_set():
    from repro.lab import RunSpec

    base = RunSpec(kernel="vecadd", config=_config(),
                   params=dict(n_threads=64, per_thread=2, block_dim=32))
    sanitized = RunSpec(kernel="vecadd", config=base.config,
                        params=dict(base.params),
                        sanitize=SanitizerConfig())
    assert base.content_hash() != sanitized.content_hash()
    assert "sanitize" not in base.to_dict()
    restored = RunSpec.from_dict(sanitized.to_dict())
    assert restored.sanitize == SanitizerConfig()
    assert restored.content_hash() == sanitized.content_hash()


def test_lab_run_carries_sanitizer_payload():
    from repro.lab import RunSpec, Runner
    from repro.submit import submit_many

    spec = RunSpec(kernel="ht", config=_config(), params=dict(HT),
                   sanitize=SanitizerConfig())
    (run,) = submit_many([spec], runner=Runner(workers=1)).results()
    assert run.ok and run.sanitizer is not None
    assert run.sanitizer["ok"] is True
    assert run.sanitizer["counters"]["lock_acquires"] > 0


def test_fuzzer_classifies_sanitizer_findings_as_races():
    from repro.fuzz import ScheduleFuzzer
    from repro.lab import Runner
    from repro.lab.results import RunResult
    from repro.metrics.stats import SimStats

    def racy(spec):
        return RunResult(
            spec_hash=spec.content_hash(), cycles=100,
            stats=SimStats(cycles=100),
            sanitizer={"ok": False, "diagnostics": [
                {"id": "SAN001", "pc": 9, "severity": "error",
                 "message": "write-write race on @100"},
            ]},
        )

    fuzzer = ScheduleFuzzer(
        "vecadd", params=dict(n_threads=64, per_thread=2, block_dim=32),
        budget_cycles=50_000, sanitize=True)
    assert fuzzer.spec_for(0).sanitize == SanitizerConfig()
    report = fuzzer.run(2, runner=Runner(workers=1, run_fn=racy),
                        shrink=False)
    assert not report.clean
    assert [f.kind for f in report.findings] == ["race", "race"]
    assert report.races[0].diagnostics[0]["id"] == "SAN001"
    assert "race" in report.summary()


def test_hang_report_carries_diagnostics():
    from repro.sim.progress import HangReport

    diag = {"id": "SAN003", "pc": 4, "severity": "error",
            "message": "release of lock @64 that this lane does not hold"}
    report = HangReport(kind="deadlock", cycle=500, window=100,
                        reason="all warps blocked", diagnostics=[diag])
    data = report.to_dict()
    assert data["diagnostics"] == [diag]
    assert HangReport.from_dict(data).diagnostics == [diag]
    assert "SAN003" in report.describe()
    # Absent diagnostics stay off the wire entirely.
    empty = HangReport(kind="deadlock", cycle=1, window=1, reason="r")
    assert "diagnostics" not in empty.to_dict()
