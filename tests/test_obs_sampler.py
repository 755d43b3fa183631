"""Interval sampler and TimeSeries: delta math, exports, fast-forward."""

from __future__ import annotations

import json

import pytest

from repro.memory.memsys import MemoryStats
from repro.metrics.stats import SimStats
from repro.obs import SERIES_COLUMNS, IntervalSampler, TimeSeries


def make_sampler(interval=100, warp_size=32):
    stats = SimStats()
    mem = MemoryStats()
    return IntervalSampler(stats, mem, interval, warp_size=warp_size), \
        stats, mem


def test_rejects_non_positive_interval():
    stats, mem = SimStats(), MemoryStats()
    with pytest.raises(ValueError):
        IntervalSampler(stats, mem, 0)
    with pytest.raises(ValueError):
        IntervalSampler(stats, mem, -10)


def test_sample_computes_interval_deltas_not_running_totals():
    sampler, stats, mem = make_sampler(interval=100)
    stats.warp_instructions = 50
    stats.thread_instructions = 50 * 16  # active lanes, summed
    stats.resident_warp_cycles = 400
    stats.backed_off_warp_cycles = 100
    stats.locks.lock_success = 6
    stats.locks.inter_warp_fail = 3
    stats.locks.intra_warp_fail = 1
    mem.load_transactions = 20
    sampler.sample(100)
    (row,) = sampler.series.rows
    assert row["cycle"] == 100
    assert row["ipc"] == 0.5
    assert row["simd_efficiency"] == 0.5
    assert row["backed_off_fraction"] == 0.25
    assert row["lock_fail_rate"] == 0.4
    assert row["memory_transactions"] == 20

    # Second interval with no new activity: every rate drops to zero,
    # proving rows are deltas (running totals would repeat the values).
    sampler.sample(200)
    row2 = sampler.series.rows[1]
    assert row2["ipc"] == 0.0
    assert row2["backed_off_fraction"] == 0.0
    assert row2["lock_fail_rate"] == 0.0
    assert row2["memory_transactions"] == 0


def test_zero_denominators_yield_zero_rates():
    sampler, _, _ = make_sampler(interval=100)
    sampler.sample(100)
    (row,) = sampler.series.rows
    assert row["ipc"] == 0.0
    assert row["simd_efficiency"] == 0.0
    assert row["backed_off_fraction"] == 0.0
    assert row["lock_fail_rate"] == 0.0
    assert row["sib_issue_rate"] == 0.0


def test_fast_forward_widens_the_interval_and_keeps_rates_per_cycle():
    """When the GPU loop skips idle cycles, one sample covers the whole
    gap: the row's rates are normalized by the real dt and next_sample
    lands beyond ``now`` again."""
    sampler, stats, _ = make_sampler(interval=100)
    stats.warp_instructions = 100
    sampler.sample(1000)  # 10 intervals elapsed at once
    (row,) = sampler.series.rows
    assert row["cycle"] == 1000
    assert row["ipc"] == 0.1  # 100 instructions / 1000 cycles
    assert sampler.next_sample == 1100


def test_sample_at_same_cycle_is_a_no_op():
    sampler, stats, _ = make_sampler(interval=100)
    stats.warp_instructions = 10
    sampler.sample(100)
    sampler.sample(100)
    assert len(sampler.series) == 1


def test_finish_flushes_partial_interval_once():
    sampler, stats, _ = make_sampler(interval=100)
    stats.warp_instructions = 10
    sampler.sample(100)
    stats.warp_instructions = 15
    series = sampler.finish(130)
    assert [row["cycle"] for row in series.rows] == [100, 130]
    assert series.rows[1]["ipc"] == round(5 / 30, 4)
    # finish at the last sampled cycle adds nothing.
    assert sampler.finish(130) is series
    assert len(series) == 2


def test_series_round_trip_and_column_access(tmp_path):
    sampler, stats, _ = make_sampler(interval=100)
    stats.warp_instructions = 70
    sampler.sample(100)
    series = sampler.series

    data = series.to_dict()
    assert data["columns"] == list(SERIES_COLUMNS)
    rebuilt = TimeSeries.from_dict(data)
    assert rebuilt.rows == series.rows
    assert series.column("ipc") == [0.7]
    with pytest.raises(KeyError):
        series.column("nope")

    json_path = tmp_path / "series.json"
    parsed = json.loads(series.to_json(json_path))
    assert parsed == json.loads(json_path.read_text())

    csv_text = series.to_csv(tmp_path / "series.csv")
    header, line = csv_text.strip().splitlines()
    assert header == ",".join(SERIES_COLUMNS)
    assert line.startswith("100,0.7,")


def test_perfetto_counter_events():
    sampler, stats, _ = make_sampler(interval=100)
    stats.warp_instructions = 70
    sampler.sample(100)
    events = sampler.series.perfetto_events(pid=3)
    # One counter event per non-cycle column per row.
    assert len(events) == len(SERIES_COLUMNS) - 1
    assert {e["ph"] for e in events} == {"C"}
    assert {e["pid"] for e in events} == {3}
    ipc = next(e for e in events if e["name"] == "ipc")
    assert ipc["ts"] == 100 and ipc["args"] == {"ipc": 0.7}
