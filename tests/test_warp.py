"""Warp state container: masks, special registers, exec masks."""

import numpy as np
import pytest

from repro.isa import assemble
from repro.sim.config import fermi_config
from repro.sim.executor import decode_program
from repro.sim.warp import Warp

PROGRAM = assemble(
    """
    setp.lt %p1, %tid, 8
    @%p1 mov %r1, 1
    @!%p1 mov %r1, 2
    exit
    """
)


def make_warp(cta_dim=64, warp_in_cta=0, cta_id=0, grid_dim=2):
    return Warp(
        program=PROGRAM, warp_slot=3, sm_id=1, cta_id=cta_id,
        warp_in_cta=warp_in_cta, cta_dim=cta_dim, grid_dim=grid_dim,
        warp_size=32, age=7,
    )


def test_special_register_values():
    warp = make_warp(cta_id=1, warp_in_cta=1)
    assert warp.sregs["tid"].tolist() == list(range(32, 64))
    assert (warp.sregs["ctaid"] == 1).all()
    assert (warp.sregs["ntid"] == 64).all()
    assert (warp.sregs["nctaid"] == 2).all()
    assert warp.sregs["laneid"].tolist() == list(range(32))
    assert warp.sregs["gtid"].tolist() == list(range(96, 128))


def test_partial_warp_mask():
    warp = make_warp(cta_dim=40, warp_in_cta=1)
    # Threads 32..39 valid; lanes 8..31 dead from the start.
    assert int(warp.stack.active_mask.sum()) == 8


def exec_mask(warp, pc):
    """The lanes that execute the op at ``pc``, as the SM's issue
    prologue computes them: the active mask, combined with the guard
    predicate by the decoded op's ``guard_op``."""
    dop = decode_program(PROGRAM, fermi_config(), {}).ops[pc]
    active = warp.stack.active_mask
    if dop.guard is None:
        return active
    return dop.guard_op(active, warp.regs.pred_values[dop.guard])


def test_exec_mask_unguarded():
    warp = make_warp()
    assert (exec_mask(warp, 0) == warp.stack.active_mask).all()


def test_exec_mask_guarded():
    warp = make_warp()
    warp.regs.write_pred(
        "p1", np.arange(32) < 8, np.ones(32, dtype=bool)
    )
    positive = exec_mask(warp, 1)
    negative = exec_mask(warp, 2)
    assert int(positive.sum()) == 8
    assert int(negative.sum()) == 24
    assert not np.logical_and(positive, negative).any()


def test_profiled_lane_tracks_exits():
    warp = make_warp()
    assert warp.profiled_lane == 0
    mask = np.zeros(32, dtype=bool)
    mask[:4] = True
    warp.stack.exit_lanes(mask)
    warp.refresh_profiled_lane()
    assert warp.profiled_lane == 4


def test_profiled_lane_stable_if_still_live():
    warp = make_warp()
    mask = np.zeros(32, dtype=bool)
    mask[10:20] = True
    warp.stack.exit_lanes(mask)
    warp.refresh_profiled_lane()
    assert warp.profiled_lane == 0


def test_finished_after_all_exit():
    warp = make_warp()
    warp.stack.exit_lanes(np.ones(32, dtype=bool))
    assert warp.finished
    warp.refresh_profiled_lane()
    assert warp.profiled_lane == -1


def test_initial_scheduling_state():
    warp = make_warp()
    assert not warp.backed_off
    assert warp.pending_delay_until == 0
    assert not warp.at_barrier
    assert warp.age == 7


def test_repr():
    warp = make_warp()
    assert "slot=3" in repr(warp)
