"""Register-write semantics and scoreboard hazards, as the decoded
handlers and the SM's issue path apply them.

A register write wraps to signed 32-bit, lands only in the exec mask's
lanes and may read its own destination; a warp issues an instruction
only once every one of its hazard keys is released (``Warp.pending``).
"""

import numpy as np
from hypothesis import given, strategies as st

from conftest import LANE_EXAMPLES, issue, one_warp, run_warp
from repro.memory.memsys import GlobalMemory

# ---------------------------------------------------------------- wrap


def wrapped(x: int) -> int:
    return ((x + 2**31) % 2**32) - 2**31


def test_wrap_positive_in_range():
    warp = run_warp("""
        mov %r_a, 0
        mov %r_b, 1
        add %r_c, %laneid, 2147483616
        exit
    """)
    values = warp.regs.values
    assert (values["r_a"] == 0).all() and (values["r_b"] == 1).all()
    assert values["r_c"].tolist() == list(range(2**31 - 32, 2**31))


def test_wrap_overflow():
    warp = run_warp("""
        mov %r_a, 0x80000000
        mov %r_b, 0xffffffff
        mov %r_c, 0x100000000
        add %r_d, %laneid, 2147483647
        exit
    """)
    values = warp.regs.values
    assert [int(values[r][0]) for r in ("r_a", "r_b", "r_c")] == [
        -(2**31), -1, 0]
    assert values["r_d"].tolist() == [2**31 - 1] + [
        lane - 2**31 - 1 for lane in range(1, 32)]


def test_wrap_negative():
    warp = run_warp("""
        mov %r_a, -1
        mov %r_b, -2147483648
        sub %r_c, -2147483648, %laneid
        exit
    """)
    values = warp.regs.values
    assert (values["r_a"] == -1).all()
    assert (values["r_b"] == -(2**31)).all()
    assert values["r_c"].tolist() == [-(2**31)] + [
        2**31 - lane for lane in range(1, 32)]


def load_lanes(values, body):
    """Run ``body`` with ``%r_in`` loaded per lane from ``values``."""
    memory = GlobalMemory(1 << 10)
    base = memory.alloc(32)
    memory.store_array(base, values)
    return run_warp(f"""
        ld.param %r_at, [base]
        shl %r_off, %laneid, 2
        add %r_at, %r_at, %r_off
        ld.global %r_in, [%r_at]
        {body}
        exit
    """, params={"base": base}, memory=memory)


@LANE_EXAMPLES
@given(st.lists(st.integers(-(2**62), 2**62), min_size=32, max_size=32))
def test_wrap_matches_python_two_complement(values):
    """The load's write and the ALU's write wrap the same way."""
    warp = load_lanes(values, "mul %r_sq, %r_in, %r_in")
    loaded = [wrapped(v) for v in values]
    assert warp.regs.values["r_in"].tolist() == loaded
    assert warp.regs.values["r_sq"].tolist() == [
        wrapped(v * v) for v in loaded]


@LANE_EXAMPLES
@given(st.lists(st.integers(-(2**31), 2**31 - 1), min_size=32, max_size=32))
def test_wrap_is_idempotent(values):
    warp = load_lanes(values, "mov %r_b, %r_in\nadd %r_c, %r_b, 0")
    for name in ("r_in", "r_b", "r_c"):
        assert warp.regs.values[name].tolist() == values


# ---------------------------------------------------------- register file


def test_register_masked_write():
    warp = run_warp("""
        and %r_odd, %laneid, 1
        setp.eq %p_even, %r_odd, 0
        @%p_even add %r1, %laneid, 5
        exit
    """)
    assert warp.regs.values["r1"].tolist() == [
        0 if lane % 2 else lane + 5 for lane in range(32)]


def test_predicate_masked_write():
    warp = run_warp("""
        and %r_odd, %laneid, 1
        setp.eq %p_even, %r_odd, 0
        @%p_even setp.lt %p1, %laneid, 8
        @!%p_even setp.ge %p2, %laneid, 24
        exit
    """)
    preds = warp.regs.pred_values
    assert preds["p1"].tolist() == [
        lane % 2 == 0 and lane < 8 for lane in range(32)]
    assert preds["p2"].tolist() == [
        lane % 2 == 1 and lane >= 24 for lane in range(32)]


def test_register_write_wraps():
    warp = run_warp("""
        mov %r_max, 2147483647
        add %r1, %r_max, 1
        sub %r2, %r1, 1
        mul %r3, %r_max, %r_max
        exit
    """)
    values = warp.regs.values
    assert (values["r1"] == -(2**31)).all()
    assert (values["r2"] == 2**31 - 1).all()
    assert (values["r3"] == 1).all()


def test_register_write_may_alias_its_source():
    """``mov r1, r1`` and friends: the write reads its destination."""
    warp = run_warp("""
        mov %r1, %laneid
        mov %r1, %r1
        add %r2, %laneid, 0
        add %r2, %r2, %r2
        setp.lt %p1, %laneid, 4
        @%p1 mov %r3, %laneid
        @%p1 mad %r3, %r3, %r3, %r3
        exit
    """)
    lanes = np.arange(32)
    assert (warp.regs.values["r1"] == lanes).all()
    assert (warp.regs.values["r2"] == 2 * lanes).all()
    assert (warp.regs.values["r3"] == np.where(
        lanes < 4, lanes * lanes + lanes, 0)).all()


def test_predicate_reads_as_zero_or_one():
    """A predicate source is cast to 0/1 lanes, and a compare's boolean
    lanes land in a predicate register."""
    warp = run_warp("""
        setp.lt %p1, %laneid, 8
        mov %r1, %p1
        add %r2, %p1, %p1
        selp %r3, 10, 20, %p1
        exit
    """)
    below = [lane < 8 for lane in range(32)]
    values = warp.regs.values
    assert warp.regs.pred_values["p1"].tolist() == below
    assert values["r1"].tolist() == [int(b) for b in below]
    assert values["r2"].tolist() == [2 * b for b in below]
    assert values["r3"].tolist() == [10 if b else 20 for b in below]


# -------------------------------------------------------------- scoreboard

#: The ``add`` reads ``r:r_a`` and ``r:r_b`` and writes ``r:r_d``;
#: ``r:r_x`` is no hazard of it.  The ``nop`` issues first, so
#: ``pending`` seeded after launch decides when the ``add`` may issue.
NOP_ADD = "nop\nadd %r_d, %r_a, %r_b\nadd %r_x, %r_x, 1\nexit"
HAZARDS = ("r:r_a", "r:r_b", "r:r_d")


def add_issue_cycle(pending):
    """Seed ``pending`` after the launch and return the add's
    ``_ready_from`` and the cycle it issues on."""
    sm, warp = one_warp(NOP_ADD)
    warp.pending.update(pending)
    assert sm.step(0) == 1  # the nop
    ready_from = warp._ready_from
    return ready_from, issue(sm, 1) - 1


def test_scoreboard_empty_is_ready():
    assert add_issue_cycle({}) == (0, 1)


def test_scoreboard_blocks_until_release():
    assert add_issue_cycle({"r:r_a": 10}) == (10, 10)
    assert add_issue_cycle({"r:r_d": 10}) == (10, 10)  # WAW
    assert add_issue_cycle({"r:r_x": 10}) == (0, 1)  # no hazard of it


def test_scoreboard_keeps_latest_release():
    """Retiring a write raises its key's release, never lowers it."""
    sm, warp = one_warp(NOP_ADD)
    alu = sm.config.alu_latency
    issue(sm, issue(sm, 0))  # nop at 0, add at 1
    assert warp.pending["r:r_d"] == 1 + alu
    dop = sm._ops[2]  # add %r_x, %r_x, 1, run by hand at cycle 5
    warp.pending["r:r_x"] = 1000
    dop.handler(sm, warp, dop, warp.stack.frames[-1].mask, 32, 5)
    assert warp.pending["r:r_x"] == 1000


def test_next_release():
    """The warp waits for the latest release among its hazard keys."""
    assert add_issue_cycle({"r:r_a": 10, "r:r_b": 30}) == (30, 30)
    assert add_issue_cycle({"r:r_a": 30, "r:r_x": 99}) == (30, 30)
    assert add_issue_cycle({"r:r_a": 1, "r:r_b": 0}) == (1, 1)


@given(
    reservations=st.dictionaries(
        st.sampled_from([*HAZARDS, "r:r_x"]), st.integers(0, 100)),
)
def test_scoreboard_ready_iff_all_released(reservations):
    ready_from, issued_at = add_issue_cycle(reservations)
    latest = max((reservations.get(key, 0) for key in HAZARDS), default=0)
    assert ready_from == latest
    assert issued_at == max(latest, 1)
