"""Schedule-perturbation fuzzing: determinism, classification, shrink.

Real-simulation coverage uses the tiny ``vecadd`` kernel (schedule
perturbation must never change a data-parallel kernel's result); the
hang-classification and shrink paths run against injected ``run_fn``
stubs keyed off each spec's ``PerturbConfig``, so they are fast and
exercise exactly the policy under test.
"""

from __future__ import annotations

import json

from repro.fuzz import FuzzReport, ScheduleFuzzer
from repro.kernels import WorkloadError
from repro.lab import Runner
from repro.lab.results import RunResult
from repro.metrics.stats import SimStats
from repro.sim.progress import (
    HangReport,
    SimulationLivelock,
    SimulationTimeout,
)

VECADD = dict(n_threads=64, per_thread=2, block_dim=32)


def _fuzzer(**kwargs) -> ScheduleFuzzer:
    defaults = dict(params=dict(VECADD), budget_cycles=50_000)
    defaults.update(kwargs)
    return ScheduleFuzzer("vecadd", **defaults)


def _ok(spec) -> RunResult:
    return RunResult(spec_hash=spec.content_hash(), cycles=100,
                     stats=SimStats(cycles=100))


def _stub_report(cycle: int = 1234) -> HangReport:
    return HangReport(kind="livelock", cycle=cycle, window=500,
                      reason="stub hang")


# ----------------------------------------------------------------------
# Real simulations


def test_clean_kernel_fuzzes_clean():
    report = _fuzzer().run(3)
    assert report.seeds == [0, 1, 2]
    assert report.clean == [0, 1, 2]
    assert not report.findings and not report.exhausted
    assert report.shrink is None
    assert "3 clean" in report.summary()


def test_same_seed_is_deterministic():
    fuzzer = _fuzzer()
    first = fuzzer.run([5], shrink=False)
    second = fuzzer.run([5], shrink=False)
    a, b = first.to_dict(), second.to_dict()
    a.pop("elapsed_s"), b.pop("elapsed_s")
    assert a == b
    # The perturbation is part of the spec's content hash: same seed,
    # same simulation; different seed, different simulation.
    assert (fuzzer.spec_for(5).content_hash()
            == fuzzer.spec_for(5).content_hash())
    assert (fuzzer.spec_for(5).content_hash()
            != fuzzer.spec_for(6).content_hash())


def test_perturbation_does_not_break_data_parallel_kernel():
    """Validation runs inside each fuzz run: a perturbed schedule must
    still compute the right answer for a sync-free kernel."""
    report = _fuzzer(sched_jitter=0.5, mem_jitter_cycles=40,
                     rotation_period=7).run(4)
    assert report.clean == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# Classification (stubbed run_fn)


def test_hang_finding_carries_forensics_and_repro():
    def hang_on_seed_one(spec):
        if spec.config.perturb.seed == 1:
            raise SimulationLivelock("spin forever", _stub_report())
        return _ok(spec)

    runner = Runner(workers=1, run_fn=hang_on_seed_one)
    report = _fuzzer().run(3, runner=runner, shrink=False)
    assert report.clean == [0, 2]
    (finding,) = report.findings
    assert finding.seed == 1
    assert finding.kind == "livelock"
    assert finding.error_type == "SimulationLivelock"
    assert finding.hang is not None and finding.hang["cycle"] == 1234
    assert finding.perturb["seed"] == 1
    repro = report.repro_command()
    assert "--seed-base 1" in repro and "fuzz vecadd" in repro


def test_repro_command_replays_the_fuzzed_machine(monkeypatch):
    """Parsed back through the CLI, the printed command rebuilds the
    machine the campaign fuzzed — scheduler, BOWS, preset and a
    non-default progress epoch included — so the replayed seed is the
    same spec."""
    import shlex

    from repro.cli import main
    from repro.sim.config import GPUConfig

    def hang(spec):
        raise SimulationLivelock("x", _stub_report())

    fuzzer = _fuzzer(base_config=GPUConfig.preset("pascal", scheduler="lrr",
                                                  bows=500),
                     progress_epoch=700)
    report = fuzzer.run([3], runner=Runner(workers=1, run_fn=hang),
                        shrink=False)
    command = shlex.split(report.repro_command())
    assert command[:3] == ["python", "-m", "repro"]

    replayed = []

    def capture(self, seeds, **kwargs):
        replayed.append(self)
        return FuzzReport(kernel=self.kernel, params=self.params,
                          budget_cycles=self.budget_cycles,
                          watchdog=self.watchdog, seeds=list(seeds))

    monkeypatch.setattr(ScheduleFuzzer, "run", capture)
    assert main(command[3:]) == 0
    (rebuilt,) = replayed
    spec, original = rebuilt.spec_for(3), fuzzer.spec_for(3)
    assert spec.config == original.config
    assert spec.content_hash() == original.content_hash()


def test_budget_timeout_is_not_a_hang_finding():
    def slow(spec):
        raise SimulationTimeout("still going", None)

    report = _fuzzer().run(2, runner=Runner(workers=1, run_fn=slow),
                           shrink=False)
    assert report.exhausted == [0, 1]
    assert not report.findings and not report.hangs


def test_validation_mismatch_classified():
    def wrong_answer(spec):
        raise WorkloadError("histogram mismatch at bucket 3")

    report = _fuzzer().run(1, runner=Runner(workers=1, run_fn=wrong_answer),
                           shrink=False)
    (finding,) = report.findings
    assert finding.kind == "validation"
    assert report.validation_failures and not report.hangs


def test_report_json_round_trips():
    def hang(spec):
        raise SimulationLivelock("x", _stub_report())

    report = _fuzzer().run(1, runner=Runner(workers=1, run_fn=hang),
                           shrink=False)
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["findings"][0]["kind"] == "livelock"
    assert payload["first_hang_repro"].startswith("python -m repro fuzz")


# ----------------------------------------------------------------------
# Resume


def _racy_on_seeds(*racy_seeds):
    def run_fn(spec):
        result = _ok(spec)
        if spec.config.perturb.seed in racy_seeds:
            result.sanitizer = {"ok": False, "diagnostics": [
                {"id": "SAN001", "pc": 9, "severity": "error",
                 "message": "write-write race on @100"}]}
        return result
    return run_fn


def test_resume_reports_the_whole_campaign(tmp_path):
    """Seeds the killed campaign finished are listed clean, not dropped,
    and only the rest run."""
    journal = tmp_path / "fuzz.jsonl"
    ran = []

    def run_fn(spec):
        ran.append(spec.config.perturb.seed)
        return _ok(spec)

    runner = Runner(workers=1, run_fn=run_fn)
    _fuzzer().run([0, 1], runner=runner, journal=journal)
    report = _fuzzer().run(4, runner=runner, journal=journal, resume=True)
    assert ran == [0, 1, 2, 3]
    assert report.seeds == report.clean == [0, 1, 2, 3]
    assert "4 seed(s), 4 clean" in report.summary()


def test_resume_under_the_sanitizer_reruns_done_seeds(tmp_path):
    """A ``done`` record cannot tell a clean seed from a racy one, so a
    sanitized resume runs every seed and still reports the races."""
    journal = tmp_path / "fuzz.jsonl"
    runner = Runner(workers=1, run_fn=_racy_on_seeds(0, 1))
    first = _fuzzer(sanitize=True).run(2, runner=runner, journal=journal)
    assert [f.seed for f in first.races] == [0, 1]
    report = _fuzzer(sanitize=True).run(4, runner=runner, journal=journal,
                                        resume=True)
    assert report.seeds == [0, 1, 2, 3]
    assert [f.seed for f in report.races] == [0, 1]
    assert report.clean == [2, 3]


# ----------------------------------------------------------------------
# Shrink


def test_shrink_isolates_the_culprit_axis():
    def jitter_sensitive(spec):
        if spec.config.perturb.sched_jitter > 0:
            raise SimulationLivelock("jitter exposed it", _stub_report())
        return _ok(spec)

    report = _fuzzer().run(1, runner=Runner(workers=1,
                                            run_fn=jitter_sensitive))
    assert report.shrink is not None
    assert report.shrink["axes"] == ["sched_jitter"]
    assert not report.shrink["schedule_independent"]
    assert report.shrink["perturb"]["mem_jitter_cycles"] == 0
    assert report.shrink["perturb"]["rotation_period"] == 0


def test_shrink_detects_schedule_independent_hang():
    def always_hangs(spec):
        raise SimulationLivelock("broken regardless", _stub_report())

    report = _fuzzer().run(1, runner=Runner(workers=1, run_fn=always_hangs))
    assert report.shrink["schedule_independent"]
    assert report.shrink["axes"] == []
    assert report.shrink["shrink_runs"] == 3


def test_fuzz_report_type_exported():
    assert isinstance(_fuzzer().run(0), FuzzReport)
