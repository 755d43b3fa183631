"""SIMT reconvergence stack: divergence, reconvergence, lane exit."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.isa.program import RECONVERGE_AT_EXIT
from repro.sim.simt_stack import SIMTStack


def mask(*lanes, size=8):
    m = np.zeros(size, dtype=bool)
    for lane in lanes:
        m[lane] = True
    return m


def full(size=8):
    return np.ones(size, dtype=bool)


def test_initial_state():
    stack = SIMTStack(8, start_pc=3)
    assert stack.pc == 3
    assert stack.active_mask.all()
    assert stack.depth == 1
    assert not stack.finished


def test_partial_initial_mask():
    stack = SIMTStack(8, initial_mask=mask(0, 1, 2))
    assert int(stack.active_mask.sum()) == 3


def test_advance():
    stack = SIMTStack(8)
    stack.advance()
    assert stack.pc == 1


def test_uniform_taken_branch():
    stack = SIMTStack(8, start_pc=5)
    diverged = stack.branch(full(), target=2, rpc=10)
    assert not diverged
    assert stack.pc == 2
    assert stack.depth == 1


def test_uniform_not_taken_branch():
    stack = SIMTStack(8, start_pc=5)
    diverged = stack.branch(np.zeros(8, dtype=bool), target=2, rpc=10)
    assert not diverged
    assert stack.pc == 6


def test_divergence_executes_taken_path_first():
    stack = SIMTStack(8, start_pc=5)
    taken = mask(0, 1, 2)
    diverged = stack.branch(taken, target=20, rpc=30)
    assert diverged
    assert stack.depth == 3
    assert stack.pc == 20
    assert (stack.active_mask == taken).all()


def test_reconvergence_restores_full_mask():
    stack = SIMTStack(8, start_pc=5)
    taken = mask(0, 1)
    stack.branch(taken, target=20, rpc=30)
    # Taken path runs 20..29 then pops at the reconvergence point.
    for pc in range(20, 30):
        assert stack.pc == pc
        stack.advance()
    # Fall-through path now runs from 6.
    assert stack.pc == 6
    assert (stack.active_mask == ~taken).all()
    for _ in range(6, 30):
        stack.advance()
    # Reconverged: full mask at the RPC.
    assert stack.pc == 30
    assert stack.active_mask.all()
    assert stack.depth == 1


def test_branch_to_reconvergence_point_not_pushed():
    """Lanes branching straight to the RPC wait there, no stack entry."""
    stack = SIMTStack(8, start_pc=5)
    taken = mask(0, 1)
    # Taken target IS the reconvergence point (break-style branch).
    stack.branch(taken, target=30, rpc=30)
    assert stack.depth == 2
    assert stack.pc == 6  # fall-through runs first; taken waits at RPC
    assert (stack.active_mask == ~taken).all()


def test_loop_back_branch_keeps_loopers_active():
    stack = SIMTStack(8, start_pc=9)
    loopers = mask(2, 3)
    stack.branch(loopers, target=4, rpc=10)
    assert stack.pc == 4
    assert (stack.active_mask == loopers).all()


def test_exit_all_lanes_finishes():
    stack = SIMTStack(8)
    stack.exit_lanes(full())
    assert stack.finished


def test_exit_partial_lanes():
    stack = SIMTStack(8)
    stack.exit_lanes(mask(0, 1, 2))
    assert not stack.finished
    assert int(stack.active_mask.sum()) == 5


def test_exit_clears_lanes_from_all_entries():
    stack = SIMTStack(8, start_pc=5)
    stack.branch(mask(0, 1, 2, 3), target=20, rpc=30)
    stack.exit_lanes(mask(0, 1, 2, 3))  # entire taken path exits
    # The taken entry vanished; fall-through is now on top.
    assert stack.pc == 6
    assert int(stack.active_mask.sum()) == 4


def test_divergence_at_exit_reconvergence():
    from repro.isa.program import RECONVERGE_AT_EXIT

    stack = SIMTStack(8, start_pc=5)
    stack.branch(mask(0), target=20, rpc=RECONVERGE_AT_EXIT)
    assert stack.pc == 20
    stack.exit_lanes(mask(0))
    assert stack.pc == 6
    stack.exit_lanes(mask(1, 2, 3, 4, 5, 6, 7))
    assert stack.finished


def test_nested_divergence():
    stack = SIMTStack(8, start_pc=0)
    stack.branch(mask(0, 1, 2, 3), target=10, rpc=50)  # outer
    assert stack.pc == 10
    stack.branch(mask(0, 1), target=20, rpc=40)        # inner, on taken path
    assert stack.pc == 20
    assert stack.depth == 5
    # Run inner-taken to its RPC.
    for _ in range(20, 40):
        stack.advance()
    assert stack.pc == 11  # inner fall-through
    assert (stack.active_mask == mask(2, 3)).all()


@given(
    taken_lanes=st.lists(st.integers(0, 7), max_size=8),
    target=st.integers(0, 9),
)
def test_branch_preserves_lane_partition(taken_lanes, target):
    """After any branch, pushed masks partition the parent mask."""
    stack = SIMTStack(8, start_pc=5)
    taken = mask(*taken_lanes) if taken_lanes else np.zeros(8, dtype=bool)
    stack.branch(taken, target=target, rpc=12)
    entries = stack.entries()
    union = np.zeros(8, dtype=bool)
    for entry in entries[1:] if len(entries) > 1 else entries:
        overlap = np.logical_and(union, entry.mask)
        assert not overlap.any(), "pushed masks overlap"
        union |= entry.mask
    # Whatever is on top is a subset of the original full mask.
    assert int(stack.active_mask.sum()) <= 8
    assert stack.active_mask.any()


@given(st.data())
def test_random_walks_never_corrupt_masks(data):
    """Random branch/advance/exit sequences keep invariants."""
    stack = SIMTStack(8, start_pc=0)
    for _ in range(data.draw(st.integers(1, 30))):
        if stack.finished:
            break
        action = data.draw(st.sampled_from(["advance", "branch", "exit"]))
        if action == "advance":
            stack.advance()
        elif action == "branch":
            lanes = data.draw(st.lists(st.integers(0, 7), max_size=8))
            taken = mask(*lanes) if lanes else np.zeros(8, dtype=bool)
            pc = stack.pc
            stack.branch(taken, target=max(pc - 3, 0), rpc=pc + 4)
        else:
            lanes = data.draw(
                st.lists(st.integers(0, 7), min_size=1, max_size=8)
            )
            stack.exit_lanes(mask(*lanes))
        if not stack.finished:
            # TOS mask is never empty and depth is bounded.
            assert stack.active_mask.any()
            # Each divergence adds at most two entries.
            assert stack.depth <= 64


def assert_lane_counts(stack):
    """Every entry's cached ``n`` is its mask's lane count, a plain int."""
    for entry in stack.frames:
        assert type(entry.n) is int
        assert entry.n == np.count_nonzero(entry.mask) > 0


@given(st.data())
def test_lane_counts_never_drift(data):
    """``StackEntry.n`` rides beside the mask through every update, a
    copy and a pickle round-trip: the issue path reads it instead of
    counting, so a drifted count is a wrong ``thread_instructions``."""
    import pickle

    stack = SIMTStack(8, start_pc=0)
    assert_lane_counts(stack)
    for _ in range(data.draw(st.integers(1, 40))):
        if stack.finished:
            break
        active = np.flatnonzero(stack.active_mask).tolist()
        lanes = data.draw(st.lists(st.sampled_from(active), unique=True))
        pc = stack.pc
        action = data.draw(st.sampled_from(
            ["advance", "branch", "diverge", "uniform_jump", "exit_lanes"]))
        if action == "advance":
            stack.advance()
        elif action == "branch":
            # Lanes outside the TOS mask too: branch() intersects.
            extra = data.draw(st.lists(st.integers(0, 7), max_size=8))
            stack.branch(mask(*lanes, *extra), target=max(pc - 3, 0),
                         rpc=pc + 4)
        elif action == "diverge" and 0 < len(lanes) < len(active):
            stack.diverge(mask(*lanes), len(lanes), target=pc + 2,
                          rpc=data.draw(st.sampled_from(
                              [pc + 4, RECONVERGE_AT_EXIT])))
        elif action == "uniform_jump":
            stack.uniform_jump(max(pc - 2, 0))
        elif lanes:
            stack.exit_lanes(mask(*lanes))
        assert_lane_counts(stack)
        counts = [e.n for e in stack.frames]
        restored = pickle.loads(pickle.dumps(stack))
        assert_lane_counts(restored)
        assert [e.n for e in restored.frames] == counts
        assert [e.clone().n for e in stack.frames] == counts
