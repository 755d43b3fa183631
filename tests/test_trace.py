"""The issue stream (``Observability(issue_capacity=N)``): capture,
ring-buffer behaviour, Chrome/Perfetto export."""

from repro.isa import assemble
from repro.memory.memsys import GlobalMemory
from repro.obs import Issue, ObsConfig, Observability
from repro.sim.gpu import GPU, KernelLaunch

SOURCE = """
    mov %r_i, 0
LOOP:
    add %r_i, %r_i, 1
    setp.lt %p1, %r_i, 4
    @%p1 bra LOOP
    exit
"""


def recording(capacity=100_000, sample_interval=0):
    return Observability(ObsConfig(sample_interval=sample_interval),
                         issue_capacity=capacity)


def run_traced(obs, config):
    program = assemble(SOURCE)
    gpu = GPU(config, memory=GlobalMemory(1 << 12), obs=obs)
    gpu.launch(KernelLaunch(program, 1, 32))
    return gpu


def test_tracer_records_every_issue(tiny_config):
    obs = recording()
    run_traced(obs, tiny_config)
    records = obs.issues.events()
    # 1 mov + 4 x (add, setp, bra) + exit = 14 issues.
    assert len(records) == 14
    assert records[0].opcode == "mov"
    assert records[-1].opcode == "exit"


def test_records_carry_warp_identity(tiny_config):
    obs = recording()
    run_traced(obs, tiny_config)
    record = obs.issues.events()[0]
    assert isinstance(record, Issue)
    assert record.sm_id == 0
    assert record.cta_id == 0
    assert record.active_lanes == 32
    assert not record.backed_off


def test_cycles_are_monotonic_per_warp(tiny_config):
    obs = recording()
    run_traced(obs, tiny_config)
    cycles = [r.cycle for r in obs.issues]
    assert cycles == sorted(cycles)


def test_ring_buffer_caps_and_counts_drops(tiny_config):
    obs = recording(capacity=5)
    run_traced(obs, tiny_config)
    assert len(obs.issues) == 5
    assert obs.issues.dropped == 14 - 5
    # The newest records survive, and the ring never touches the
    # decision bus.
    assert obs.issues.events()[-1].opcode == "exit"
    assert not obs.events("issue")


def test_clear(tiny_config):
    obs = recording()
    run_traced(obs, tiny_config)
    obs.issues.clear()
    assert len(obs.issues) == 0 and obs.issues.dropped == 0


def test_record_str_format():
    record = Issue(cycle=12, sm_id=0, warp_slot=3, cta_id=1,
                   pc=7, opcode="add", active_lanes=32, backed_off=True)
    text = str(record)
    assert text == "[      12] SM0 w03 cta1 pc=7    add          lanes=32 B"


def test_export_chrome_trace(tiny_config, tmp_path):
    import json

    obs = recording()
    run_traced(obs, tiny_config)
    path = tmp_path / "trace.json"
    written = obs.export_chrome_trace(path)
    assert written == 14

    payload = json.loads(path.read_text())
    events = payload["traceEvents"]
    issues = [e for e in events if e["ph"] == "X"]
    metadata = [e for e in events if e["ph"] == "M"]
    assert len(issues) == 14
    # One process track per SM, one thread track per warp slot.
    assert {e["args"]["name"] for e in metadata
            if e["name"] == "process_name"} == {"SM0"}
    assert any(e["name"] == "thread_name" for e in metadata)
    first = issues[0]
    assert first["name"] == "mov"
    assert first["pid"] == 0 and first["dur"] == 1
    assert first["args"]["active_lanes"] == 32
    assert payload["otherData"]["dropped_records"] == 0
    # Timestamps are the issue cycles, so the timeline is monotonic.
    assert [e["ts"] for e in issues] == sorted(e["ts"] for e in issues)


def test_export_chrome_trace_marks_backed_off_issues(tmp_path):
    import json

    from repro.kernels import build
    from repro.sim.config import GPUConfig

    obs = recording()
    workload = build("ht", n_threads=64, n_buckets=8, items_per_thread=1,
                     block_dim=64)
    gpu = GPU(GPUConfig.preset("fermi", bows=1000, num_sms=1,
                               max_warps_per_sm=8),
              memory=workload.memory, obs=obs)
    gpu.launch(workload.launch)
    path = tmp_path / "trace.json"
    obs.export_chrome_trace(path)
    events = json.loads(path.read_text())["traceEvents"]
    backed_off = [e for e in events if e.get("cat") == "backed-off"]
    assert backed_off, "BOWS run should issue from backed-off warps"
    assert all(e["name"].endswith("[backed-off]") for e in backed_off)
    assert all(e["args"]["backed_off"] for e in backed_off)


def test_rejects_non_positive_capacity():
    import pytest

    with pytest.raises(ValueError):
        Observability(issue_capacity=0)
    with pytest.raises(ValueError):
        Observability(issue_capacity=-1)


def test_export_thread_names_carry_cta_and_sort_index(tmp_path):
    import json

    from repro.kernels import build
    from repro.sim.config import GPUConfig

    obs = recording()
    # Two CTAs on one SM so distinct warp slots map to distinct CTAs.
    workload = build("ht", n_threads=128, n_buckets=8, items_per_thread=1,
                     block_dim=64)
    gpu = GPU(GPUConfig.preset("fermi", num_sms=1, max_warps_per_sm=8),
              memory=workload.memory, obs=obs)
    gpu.launch(workload.launch)
    path = tmp_path / "trace.json"
    obs.export_chrome_trace(path)
    events = json.loads(path.read_text())["traceEvents"]

    names = {e["tid"]: e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "thread_name"}
    ctas = {r.warp_slot: r.cta_id for r in obs.issues}
    assert names, "thread_name metadata must be present"
    for slot, label in names.items():
        assert label == f"warp {slot:02d} (cta {ctas[slot]})"
    assert len({label.split("(cta ")[1] for label in names.values()}) > 1

    sort = {e["tid"]: e["args"]["sort_index"] for e in events
            if e["ph"] == "M" and e["name"] == "thread_sort_index"}
    assert sort == {slot: slot for slot in names}


def test_export_reports_accurate_drop_count(tiny_config, tmp_path):
    import json

    obs = recording(capacity=5)
    run_traced(obs, tiny_config)
    run_traced(obs, tiny_config)  # 28 issues through a 5-slot ring
    path = tmp_path / "trace.json"
    written = obs.export_chrome_trace(path)
    assert written == 5
    payload = json.loads(path.read_text())
    assert payload["otherData"]["dropped_records"] == 28 - 5
    assert obs.issues.dropped + len(obs.issues) == 28


def test_export_event_args_round_trip_json(tiny_config, tmp_path):
    import json

    obs = recording()
    run_traced(obs, tiny_config)
    path = tmp_path / "trace.json"
    obs.export_chrome_trace(path)
    issues = [e for e in json.loads(path.read_text())["traceEvents"]
              if e["ph"] == "X"]
    records = obs.issues.events()
    assert len(issues) == len(records)
    for event, record in zip(issues, records):
        assert event["args"] == {
            "pc": record.pc,
            "cta": record.cta_id,
            "active_lanes": record.active_lanes,
            "backed_off": record.backed_off,
        }


def test_export_merges_sampled_counter_tracks(tiny_config, tmp_path):
    import json

    from repro.obs import SERIES_COLUMNS

    obs = recording(sample_interval=5)
    run_traced(obs, tiny_config)
    assert obs.series.rows, "the sampler must have produced rows"
    path = tmp_path / "trace.json"
    written = obs.export_chrome_trace(path)
    assert written == 14  # counter events are not issue events
    events = json.loads(path.read_text())["traceEvents"]
    counters = [e for e in events if e["ph"] == "C"]
    assert len(counters) == len(obs.series.rows) * (len(SERIES_COLUMNS) - 1)
    assert {e["name"] for e in counters} == set(SERIES_COLUMNS) - {"cycle"}
