"""Profile reports and the ``repro profile`` CLI: shape and substance.

The acceptance tests at the bottom check the paper-facing claims the
profile layer exists to surface: the backed-off-fraction curve is
nonzero only under BOWS, and DDOS flags every true spin-inducing branch
early in the run (well before 20% of total cycles).
"""

from __future__ import annotations

import json

import pytest

from repro.api import simulate
from repro.kernels import build
from repro.obs import (
    BackoffEnter,
    BackoffExit,
    EventBus,
    Observability,
    SIBCleared,
    SIBDetected,
)
from repro.obs.profile import (
    PROFILE_KEYS,
    PROFILE_SCHEMA_VERSION,
    build_profile,
    _build_ddos,
    _build_warp_timelines,
)
from repro.sim.config import GPUConfig

#: Same small ht shape the golden-equivalence matrix uses.
HT = dict(n_threads=128, n_buckets=8, items_per_thread=1, block_dim=64)


def run_ht(bows="adaptive", obs=True):
    config = GPUConfig.preset("fermi", scheduler="gto", bows=bows)
    return simulate("ht", config=config, params=dict(HT), obs=obs)


def recording():
    return Observability(issue_capacity=100_000)


class FakeBus:
    def __init__(self, events):
        self._events = events

    def __iter__(self):
        return iter(self._events)


class FakeObs:
    def __init__(self, events):
        self.bus = FakeBus(events)


# ----------------------------------------------------------------------
# Report shape


def test_profile_json_golden_shape():
    result = run_ht(obs=recording())
    report = build_profile(result, workload="ht",
                           scheduler="gto", engine="fast")
    data = report.to_dict()
    assert tuple(data) == PROFILE_KEYS
    assert data["schema_version"] == PROFILE_SCHEMA_VERSION
    assert data["workload"] == "ht" and data["cycles"] == result.cycles
    assert data["summary"] == result.stats.summary()
    # Everything must survive a JSON round trip unchanged.
    assert json.loads(json.dumps(data)) == data


def test_profile_hotspots_aggregate_the_tracer_window():
    result = run_ht(obs=recording())
    report = build_profile(result)
    assert report.hotspots, "a traced run must produce hot spots"
    assert (sum(h["issues"] for h in report.hotspots)
            == len(result.obs.issues))
    # Sorted by issue count; the lock-try CAS spin must rank as sync.
    issues = [h["issues"] for h in report.hotspots]
    assert issues == sorted(issues, reverse=True)
    assert any(h["sync"] for h in report.hotspots)
    for spot in report.hotspots:
        assert 0 <= spot["avg_lanes"] <= 64


def test_profile_without_tracer_or_obs_still_builds():
    result = run_ht(obs=None)
    report = build_profile(result)
    assert report.hotspots == [] and report.ddos == []
    assert report.warp_timelines == [] and report.series is None
    assert report.events == {}
    assert report.cycles == result.cycles


def test_markdown_report_has_the_expected_sections():
    result = run_ht(obs=recording())
    report = build_profile(result, workload="ht",
                           scheduler="gto", engine="fast")
    text = report.to_markdown()
    assert text.startswith("# Profile: ht")
    for heading in ("## Hot spots", "## DDOS detection",
                    "## Warp back-off timelines", "## Event counts",
                    "## Time series"):
        assert heading in text, heading


# ----------------------------------------------------------------------
# Timeline / DDOS digestion (synthetic events)


def test_warp_timelines_pair_enter_exit_and_close_open_episodes():
    events = [
        BackoffEnter(cycle=100, sm_id=0, warp_slot=1, cta_id=0),
        BackoffExit(cycle=150, sm_id=0, warp_slot=1, cta_id=0,
                    delay_until=200),
        BackoffEnter(cycle=300, sm_id=0, warp_slot=1, cta_id=0),
        # Warp 2 enters and never exits: closed at end-of-run.
        BackoffEnter(cycle=400, sm_id=0, warp_slot=2, cta_id=0),
    ]
    timelines = _build_warp_timelines(FakeObs(events), end_cycle=1000)
    by_slot = {t["warp_slot"]: t for t in timelines}
    assert by_slot[1]["intervals"] == [[100, 150], [300, 1000]]
    assert by_slot[1]["episodes"] == 2
    assert by_slot[1]["backed_off_cycles"] == 50 + 700
    assert by_slot[2]["intervals"] == [[400, 1000]]


def test_orphan_backoff_exit_is_ignored():
    """An exit whose enter was evicted from the ring log must not
    crash or fabricate an interval."""
    events = [BackoffExit(cycle=50, sm_id=0, warp_slot=9, cta_id=0,
                          delay_until=60)]
    assert _build_warp_timelines(FakeObs(events), end_cycle=100) == []


def test_ddos_digest_keeps_first_detection_and_counts_clears():
    events = [
        SIBDetected(cycle=200, sm_id=0, branch=33, confidence=8),
        SIBCleared(cycle=300, sm_id=0, branch=33),
        SIBDetected(cycle=500, sm_id=0, branch=33, confidence=8),
        SIBDetected(cycle=900, sm_id=1, branch=40, confidence=8),
    ]
    rows = _build_ddos(FakeObs(events), total_cycles=1000)
    assert rows == [
        {"branch": 33, "first_flagged": 200, "detect_fraction": 0.2,
         "cleared": 1},
        {"branch": 40, "first_flagged": 900, "detect_fraction": 0.9,
         "cleared": 0},
    ]


# ----------------------------------------------------------------------
# CLI: repro profile


def test_cli_profile_writes_report_json_and_trace(tmp_path, capsys):
    from repro.cli import main

    report_md = tmp_path / "profile.md"
    report_json = tmp_path / "profile.json"
    trace_json = tmp_path / "trace.json"
    code = main([
        "profile", "ht", "--bows", "adaptive",
        "--param", "n_threads=128", "--param", "n_buckets=8",
        "--param", "items_per_thread=1", "--param", "block_dim=64",
        "--sample-interval", "200",
        "--out", str(report_md), "--json", str(report_json),
        "--trace", str(trace_json),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "profiled in" in out

    data = json.loads(report_json.read_text())
    assert tuple(data) == PROFILE_KEYS
    assert data["workload"] == "ht" and data["engine"] == "fast"
    assert data["series"]["rows"], "sampler must produce rows"
    assert data["events"]["total"] > 0
    assert report_md.read_text().startswith("# Profile: ht")

    trace = json.loads(trace_json.read_text())["traceEvents"]
    assert any(e["ph"] == "X" for e in trace)
    assert any(e["ph"] == "C" for e in trace), "counter tracks merged in"


def test_cli_profile_prints_markdown_to_stdout(capsys):
    from repro.cli import main

    code = main([
        "profile", "ht",
        "--param", "n_threads=64", "--param", "n_buckets=8",
        "--param", "items_per_thread=1", "--param", "block_dim=64",
    ])
    assert code == 0
    assert "# Profile: ht" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Acceptance: the profile answers the paper's questions


def test_backed_off_fraction_nonzero_only_under_bows():
    baseline = run_ht(bows=None)
    bows = run_ht(bows="adaptive")
    base_curve = baseline.obs.series.column("backed_off_fraction")
    bows_curve = bows.obs.series.column("backed_off_fraction")
    assert all(v == 0.0 for v in base_curve)
    assert any(v > 0.0 for v in bows_curve)
    assert not baseline.obs.events("backoff_enter")
    assert bows.obs.events("backoff_enter")


def test_ddos_flags_every_true_sib_before_20pct_of_run():
    workload = build("ht", **HT)
    true_sibs = workload.launch.program.true_sibs()
    assert true_sibs, "ht must contain a spin-inducing branch"
    result = run_ht(bows="adaptive")
    report = build_profile(result)
    flagged = {row["branch"] for row in report.ddos}
    assert true_sibs <= flagged
    for row in report.ddos:
        if row["branch"] in true_sibs:
            assert row["detect_fraction"] < 0.2, row
