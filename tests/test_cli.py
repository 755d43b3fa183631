"""Command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import (EXIT_BROKEN_PIPE, EXIT_HANG, EXIT_TRANSIENT,
                       EXIT_VALIDATION, _parse_params, main)

SRC = Path(__file__).resolve().parent.parent / "src"


def _python(*argv, **kwargs) -> subprocess.CompletedProcess:
    """``python *argv`` in a fresh interpreter that imports this ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC),
                                         env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *argv], env=env, text=True,
                          timeout=120, **kwargs)


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig9" in out and "ht" in out


def test_run_kernel(capsys):
    code = main([
        "run", "vecadd",
        "--param", "n_threads=64",
        "--param", "per_thread=2",
        "--param", "block_dim=32",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "cycles" in out
    assert "validation: OK" in out


def test_run_with_bows(capsys):
    code = main([
        "run", "ht", "--bows", "adaptive",
        "--param", "n_threads=64",
        "--param", "n_buckets=8",
        "--param", "items_per_thread=1",
        "--param", "block_dim=64",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "detected SIBs" in out


def test_experiment_tab3(capsys):
    assert main(["experiment", "tab3"]) == 0
    out = capsys.readouterr().out
    assert "SIB-PT" in out


def test_experiment_quick_scale(capsys):
    assert main(["experiment", "fig3", "--scale", "quick"]) == 0
    out = capsys.readouterr().out
    assert "normalized_time" in out


def test_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["experiment", "fig99"])


def test_unknown_kernel_rejected():
    with pytest.raises(SystemExit):
        main(["run", "nope"])


def test_parse_params():
    assert _parse_params(["a=1", "b=2"]) == {"a": 1, "b": 2}
    with pytest.raises(SystemExit):
        _parse_params(["oops"])


def test_sweep_command_runs_caches_and_writes_journal(tmp_path, capsys):
    from repro.lab import load_journal

    cache_dir = str(tmp_path / "cache")
    journal = str(tmp_path / "sweep.jsonl")
    argv = [
        "sweep", "--kernel", "vecadd", "--bows", "none,500",
        "--scale", "quick", "--workers", "1",
        "--cache-dir", cache_dir, "--journal", journal,
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "2 runs: 0 cached, 2 simulated" in out
    state = load_journal(journal)
    assert len(state.specs) == 2 and state.executed == 2

    # Re-run: pure cache hits, the journal's last word on each spec.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "2 runs: 2 cached, 0 simulated" in out
    state = load_journal(journal)
    assert state.cache_hits == 2 and not state.skipped_lines
    assert [n["note"] for n in state.notes] == ["sweep", "batch_end"] * 2


def test_profile_quick_uses_the_quick_size_of_a_sync_free_kernel(capsys):
    from repro.harness.params import QUICK_SYNC_FREE
    from repro.sim.run import simulate

    assert main(["profile", "vecadd", "--quick"]) == 0
    out = capsys.readouterr().out
    quick = simulate("vecadd", params=QUICK_SYNC_FREE["vecadd"])
    assert "profiled in" in out and f": {quick.cycles} cycles," in out


def test_cache_stats_and_clear_commands(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["sweep", "--kernel", "vecadd", "--scale", "quick",
                 "--workers", "1", "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "entries         : 1" in out
    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "removed 1" in out


def test_experiment_no_cache_flag(tmp_path, capsys):
    assert main(["experiment", "fig3", "--scale", "quick", "--workers", "1",
                 "--no-cache"]) == 0
    out = capsys.readouterr().out
    assert "0 cached" in out


def test_experiment_tallies_every_batch_it_submitted(tmp_path, capsys):
    """Table I is 19 DDOS settings × 11 kernels, one batch per setting:
    the closing tally counts all 209 runs, not the last batch's 11.
    Settings that repeat the default DDOS configuration are answered
    from the cache the first batch filled; a re-run is all cache hits."""
    argv = ["experiment", "tab1", "--scale", "quick", "--workers", "1",
            "--cache-dir", str(tmp_path / "cache")]
    assert main(argv) == 0
    assert "; 209 runs, 55 cached, 154 simulated]" in capsys.readouterr().out
    assert main(argv) == 0
    assert "; 209 runs, 209 cached, 0 simulated]" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Exit codes (hang=3, validation=4, transient=5) and the fuzz command


def test_run_hang_exits_3(capsys):
    code = main([
        "run", "vecadd",
        "--param", "n_threads=64",
        "--param", "per_thread=2",
        "--param", "block_dim=32",
        "--max-cycles", "50",
        "--watchdog", "30",
        "--progress-epoch", "10",
    ])
    assert code == EXIT_HANG
    out = capsys.readouterr().out
    assert "HANG" in out
    assert "warp states" in out  # the HangReport rendering


def test_run_validation_failure_exits_4(capsys, monkeypatch):
    from repro.kernels import WorkloadError
    from repro.sim.gpu import Simulation

    def rigged(sim, **kwargs):
        raise WorkloadError("answers differ")

    monkeypatch.setattr(Simulation, "run", rigged)
    code = main(["run", "vecadd", "--param", "n_threads=64",
                 "--param", "block_dim=32"])
    assert code == EXIT_VALIDATION
    assert "VALIDATION FAILED" in capsys.readouterr().out


def test_run_transient_error_exits_5(capsys, monkeypatch):
    from repro.sim.gpu import Simulation

    def flaky(sim, **kwargs):
        raise OSError("worker vanished")

    monkeypatch.setattr(Simulation, "run", flaky)
    code = main(["run", "vecadd", "--param", "n_threads=64",
                 "--param", "block_dim=32"])
    assert code == EXIT_TRANSIENT
    assert "transient error" in capsys.readouterr().out


def test_fuzz_clean_kernel_exits_0(tmp_path, capsys):
    report_path = str(tmp_path / "fuzz.json")
    code = main([
        "fuzz", "vecadd", "--seeds", "2", "--budget-cycles", "30000",
        "--param", "n_threads=64", "--param", "per_thread=2",
        "--param", "block_dim=32",
        "--json", report_path,
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "2 clean" in out

    import json
    payload = json.loads(open(report_path).read())
    assert payload["clean"] == [0, 1]
    assert payload["findings"] == []


def test_fuzz_hang_exits_3(capsys, monkeypatch):
    """A seed that hangs turns the whole fuzz run into exit code 3 and
    prints a deterministic repro command."""
    from repro.fuzz import harness as fuzz_harness
    from repro.sim.progress import HangReport, SimulationLivelock

    original = fuzz_harness.ScheduleFuzzer.run

    def run_with_stub(self, seeds, runner=None, shrink=True, **kwargs):
        from repro.lab import Runner as LabRunner

        def hang_on_zero(spec):
            if spec.config.perturb.seed == 0:
                raise SimulationLivelock("stuck", HangReport(
                    kind="livelock", cycle=77, window=10, reason="stub"))
            from repro.lab.results import RunResult
            from repro.metrics.stats import SimStats
            return RunResult(spec_hash=spec.content_hash(), cycles=5,
                             stats=SimStats(cycles=5))

        return original(self, seeds, runner=LabRunner(workers=1,
                                                      run_fn=hang_on_zero),
                        shrink=shrink, **kwargs)

    monkeypatch.setattr(fuzz_harness.ScheduleFuzzer, "run", run_with_stub)
    code = main(["fuzz", "vecadd", "--seeds", "2",
                 "--param", "n_threads=64"])
    assert code == EXIT_HANG
    out = capsys.readouterr().out
    assert "1 hang(s)" in out
    assert "--seed-base 0" in out


def test_fuzz_sanitize_race_exits_4(capsys, monkeypatch):
    """--sanitize runs the dynamic sanitizer per seed; a completed run
    with findings is a 'race', reported as a validation failure."""
    from repro.fuzz import harness as fuzz_harness

    original = fuzz_harness.ScheduleFuzzer.run

    def run_with_stub(self, seeds, runner=None, shrink=True, **kwargs):
        from repro.lab import Runner as LabRunner
        from repro.lab.results import RunResult
        from repro.metrics.stats import SimStats

        assert self.sanitize  # --sanitize reached the fuzzer

        def racy(spec):
            assert spec.sanitize is not None
            return RunResult(
                spec_hash=spec.content_hash(), cycles=5,
                stats=SimStats(cycles=5),
                sanitizer={"ok": False, "diagnostics": [
                    {"id": "SAN001", "pc": 3, "severity": "error",
                     "message": "write-write race"},
                ]})

        return original(self, seeds,
                        runner=LabRunner(workers=1, run_fn=racy),
                        shrink=shrink, **kwargs)

    monkeypatch.setattr(fuzz_harness.ScheduleFuzzer, "run", run_with_stub)
    code = main(["fuzz", "vecadd", "--seeds", "1", "--sanitize",
                 "--param", "n_threads=64"])
    assert code == EXIT_VALIDATION
    assert "1 race(s)" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The lint command


def test_lint_single_kernel(capsys):
    assert main(["lint", "ht"]) == 0
    out = capsys.readouterr().out
    assert "lint ht: OK" in out
    assert "static SIBs: [33]" in out


def test_lint_all_kernels_json(tmp_path, capsys):
    import json

    out_path = str(tmp_path / "lint.json")
    assert main(["lint", "--all", "--format", "json",
                 "--out", out_path]) == 0
    capsys.readouterr()
    payload = json.loads(open(out_path).read())
    assert payload["ok"] is True
    from repro.kernels import kernel_names
    assert set(payload["kernels"]) == set(kernel_names())
    for report in payload["kernels"].values():
        assert report["ok"] and report["diagnostics"] == []


def test_lint_requires_exactly_one_target(capsys):
    assert main(["lint"]) == 2
    assert main(["lint", "ht", "--all"]) == 2


def test_lint_failure_exits_1(capsys, monkeypatch):
    import repro.cli as cli
    from repro.analysis import Diagnostic
    from repro.analysis.lint import LintReport

    def rigged(name, params=None):
        return LintReport(kernel=name, diagnostics=[Diagnostic(
            id="REG001", severity="error", kernel=name, pc=0,
            message="bad")])

    monkeypatch.setattr("repro.analysis.lint.lint_kernel", rigged)
    assert main(["lint", "ht"]) == 1
    assert "REG001" in capsys.readouterr().out


# ----------------------------------------------------------------------
# One parser per flag value: a bad value is a usage error on every
# command that takes the flag


@pytest.mark.parametrize("argv", [
    ["run", "ht"], ["profile", "ht"], ["fuzz", "ht"], ["lint", "ht"],
    ["sweep", "--kernel", "ht"],
])
def test_bad_param_value_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--param", "n=abc"])
    assert excinfo.value.code == 2
    assert "--param n values must be integers" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "ht"], ["profile", "ht"], ["fuzz", "ht"],
    ["sweep", "--kernel", "ht"],
])
def test_bad_bows_value_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--bows", "fast"])
    assert excinfo.value.code == 2
    assert ("--bows expects 'none', 'adaptive', or an integer"
            in capsys.readouterr().err)


@pytest.mark.parametrize("value", ["0", "-1"])
def test_non_positive_serve_timeout_is_a_usage_error(value, capsys,
                                                     monkeypatch):
    from repro.serve import ServeDaemon

    # Where the value were accepted, the command would serve, not exit.
    monkeypatch.setattr(ServeDaemon, "serve_forever", lambda self: 0)
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "unused.sock", "--no-cache", "--timeout-s", value])
    assert excinfo.value.code == 2
    assert "--timeout-s must be > 0" in capsys.readouterr().err


def test_single_valued_param_rejects_a_list(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "ht", "--param", "n_threads=64,128"])
    assert excinfo.value.code == 2
    assert "--param n_threads takes one value" in capsys.readouterr().err


# ----------------------------------------------------------------------
# --server: one road switch, one answer when nobody is listening


#: Each takes the daemon's address as its next argument.
SERVED_COMMANDS = [
    ["run", "vecadd", "--server"],
    ["sweep", "--kernel", "vecadd", "--scale", "quick", "--server"],
    ["fuzz", "vecadd", "--seeds", "1", "--server"],
    ["serve", "--status"],
]


@pytest.mark.parametrize("argv", SERVED_COMMANDS, ids=lambda a: a[0])
def test_unreachable_daemon_exits_5(argv, tmp_path, capsys):
    import socket

    missing = str(tmp_path / "none.sock")
    refused = str(tmp_path / "dead.sock")
    with socket.socket(socket.AF_UNIX) as dead:
        dead.bind(refused)  # leaves a socket file nobody listens on
    for address, error in ((missing, "FileNotFoundError"),
                           (refused, "ConnectionRefusedError")):
        assert main(argv + [address]) == EXIT_TRANSIENT
        out = capsys.readouterr().out
        assert f"daemon unreachable ({error}" in out
        assert "Traceback" not in out


@pytest.mark.parametrize("argv", SERVED_COMMANDS, ids=lambda a: a[0])
def test_refused_handshake_exits_5(argv, capsys, monkeypatch):
    from repro.serve import ServeError, client

    def refuse(self, address, **kwargs):
        raise ServeError("handshake refused")

    monkeypatch.setattr(client.ServeClient, "__init__", refuse)
    assert main(argv + ["/tmp/any.sock"]) == EXIT_TRANSIENT
    assert "daemon unreachable (handshake refused)" in capsys.readouterr().out


def test_closed_stdout_exits_141_without_a_traceback(tmp_path):
    read_end, write_end = os.pipe()
    os.close(read_end)  # nobody will ever read the child's stdout
    try:
        proc = _python("-m", "repro", "run", "vecadd",
                       "--param", "n_threads=64", "--param", "per_thread=2",
                       "--param", "block_dim=32", cwd=tmp_path,
                       stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_BROKEN_PIPE == 141
    assert "Traceback" not in proc.stderr, proc.stderr


def test_importing_the_cli_does_not_load_networkx():
    proc = _python("-c", "import sys, repro.cli; "
                         "print('networkx' in sys.modules)",
                   capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_run_prints_the_same_block_on_both_roads(daemon, capsys):
    import re

    argv = ["run", "ht", "--bows", "adaptive", "--param", "n_threads=64",
            "--param", "n_buckets=8", "--param", "items_per_thread=1",
            "--param", "block_dim=64", "--progress-stream"]
    assert main(argv) == 0
    local = capsys.readouterr().out
    assert main(argv + ["--server", daemon.address]) == 0
    served = capsys.readouterr().out

    def block(text):
        lines = [line for line in text.splitlines()
                 if not line.startswith("  [")]  # --progress-stream records
        return re.sub(r"\d+\.\d+s wall", "T wall", "\n".join(lines))

    assert block(local) == block(served)
    assert "detected SIBs" in local and "validation: OK" in local
    # Progress records print on both roads (replayed in-process).
    for text in (local, served):
        assert "  [lifecycle] phase=finished" in text


def test_sweep_resume_honours_server(daemon, tmp_path, capsys):
    journal = str(tmp_path / "sweep.jsonl")
    assert main(["sweep", "--kernel", "vecadd", "--bows", "none,500",
                 "--scale", "quick", "--workers", "1", "--no-cache",
                 "--journal", journal]) == 0
    capsys.readouterr()
    before = daemon.status()["counters"]["submitted"]
    assert main(["sweep", "--resume", journal,
                 "--server", daemon.address]) == 0
    assert daemon.status()["counters"]["submitted"] == before + 2
    assert "2 runs: 0 cached, 2 simulated, 0 failed" in capsys.readouterr().out
