"""Directed probes at the cycles the cycle loop does not visit.

The loop steps an SM only once its ``wake`` has come and, when no SM
wakes on the cycle after an issue, keeps that cycle *as its issue-slot
charge only* — unless a sample boundary (``watch``), a ``run_until`` /
checkpoint stop (``stop``), the deadlock report (no wake left) or CAWA's
per-visit stall charge (``every``) falls on it.  Each test here names
the condition of ``Simulation._advance`` it fails without, and holds the
run to the answer the oracle froze: each probe is a way of the
equivalence matrix (``test_golden_fixtures.py``).
"""

from __future__ import annotations

import pytest

from repro.harness.params import QUICK_PARAMS
from repro.kernels import build
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPU
from test_golden_fixtures import (begin, check, checkpoint_bytes_roundtrip,
                                  expect, observe, oracle)


@pytest.mark.parametrize("bows", [None, "adaptive"])
@pytest.mark.parametrize("scheduler", ["lrr", "gto", "cawa"])
@pytest.mark.parametrize("kernel", ["ht", "reduction"])  # spin, barrier
def test_issue_slots_are_charged_for_unvisited_cycles(kernel, scheduler,
                                                      bows):
    """``issue_slots`` counts every cycle after an issue, the ones the
    loop only charges included.  Under CAWA no cycle may be skipped and
    no SM left unstepped (``every``): its stall charge reads readiness on
    each visit, and criticality steers the schedule."""
    workload = "ht-small" if kernel == "ht" else kernel
    label = (scheduler if bows is None
             else "bows" if scheduler == "gto" else f"{scheduler}-bows")
    check("direct", f"{workload}-{label}")


def test_cawa_stall_charges_match_on_every_visit():
    """The CAWA counters themselves, read off the live warps at seven
    stops: a merged charge interval (an SM not stepped on a visited
    cycle, or a cycle not visited) moves ``cawa_nstall`` before it moves
    the schedule."""
    check("cawa-stops", "ht-small-cawa")


@pytest.mark.parametrize("interval", [1, 7])
def test_time_series_rows_carry_the_same_cycle_stamps(interval):
    """A sample boundary that lands on the empty cycle after an issue is
    sampled *on* it (``watch``), not on the next wake: every row — its
    ``cycle`` stamp and the deltas closed at it — matches."""
    check(f"series-every-{interval}", "ht-small-bows")


@pytest.mark.parametrize("epoch", [1, 5])
def test_progress_monitor_samples_at_the_same_cycles(epoch):
    """The monitor's next threshold is ``now + epoch`` from the cycle it
    was sampled at, so one sample taken late (``watch`` dropped) shifts
    every later one and the cycle the hang is reported at."""
    row = f"naive-spin-guard-epoch{epoch}"
    assert oracle()[row]["hang"]["samples"] > 10
    check("hang", row)


def test_deadlock_report_names_the_same_cycle():
    """A barrier unit that never releases: the last arrival issues at
    ``t`` and nothing can ever wake again, which is found — and
    reported — on the cycle after.  The loop must visit that cycle for
    real rather than jump to a wake that does not exist."""
    hang = oracle()["barrier-1sm-unguarded"]["hang"]
    assert hang["error"] == "SimulationDeadlock"
    assert hang["at"] == hang["cycle"] < 100
    check("hang", "barrier-1sm-unguarded")


def test_run_until_stops_on_a_cycle_the_loop_would_skip():
    """``run_until(c)`` returns at the same ``now`` when ``c`` is the
    empty cycle after an issue (``stop``) — as the ``walk`` way found
    them, read from the oracle — and a checkpoint taken there resumes
    bit-identically."""
    golden = oracle()["ht-small-bows"]
    empties = golden["empty_cycles_after_issue"]
    assert len(empties) > 20

    sim = begin("ht-small-bows")
    restored = None
    for cycle in empties:
        assert not sim.run_until(cycle)
        assert sim.now == cycle
        if restored is None and cycle >= golden["summary"]["cycles"] // 2:
            restored = checkpoint_bytes_roundtrip(sim)
    for result in (sim.run(), restored.run()):
        expect("ht-small-bows", observe(result))


def test_the_loop_steps_only_where_a_warp_can_act():
    """The count guard.  ``sm.step`` / ``sm.next_event`` are wrapped on
    the instances after ``GPU.begin`` hands them back, as the ledger's
    tracer does: the loop steps an SM about once per instruction it
    issues, not once per visited cycle, and never polls ``next_event``."""
    config = GPUConfig.preset("fermi", scheduler="gto")
    workload = build("ht", **QUICK_PARAMS["ht"])
    sim = GPU(config, memory=workload.memory).begin(workload.launch)
    calls = {"step": 0, "next_event": 0}

    def counted(name, method):
        def call(now):
            calls[name] += 1
            return method(now)
        return call

    for sm in sim.sms:
        sm.step = counted("step", sm.step)
        sm.next_event = counted("next_event", sm.next_event)
    result = sim.run()
    workload.validate(result.memory)
    assert calls["next_event"] == 0
    assert 0 < calls["step"] <= 1.05 * result.stats.warp_instructions
