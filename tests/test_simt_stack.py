"""SIMT reconvergence: divergence, reconvergence, lane exit.

Branch outcomes are decided by the branch handler the simulator runs:
each case is a small program stepped on an SM, one CTA of eight
threads, with the guard predicate ``%p1`` set in place before the
branch issues.  The random walks drive :class:`SIMTStack`'s update
methods directly, the way the handlers call them.
"""

import numpy as np
from hypothesis import given, strategies as st

from conftest import issue, one_warp
from repro.isa.program import RECONVERGE_AT_EXIT
from repro.sim.simt_stack import SIMTStack


def mask(*lanes, size=8):
    m = np.zeros(size, dtype=bool)
    for lane in lanes:
        m[lane] = True
    return m


def full(size=8):
    return np.ones(size, dtype=bool)


def tos(stack):
    """The lanes of the TOS entry, as eight lanes."""
    return stack.frames[-1].mask[:8]


#: Every shape below starts with its guarded branch at pc 0.

#: if/else: taken runs pc 3, fall-through 1-2, both meet at 4.
IF_ELSE = """
    @%p1 bra T
    nop
    bra J
T:
    nop
J:
    exit
"""

#: break-style: the target is the branch's reconvergence point.
BREAK = """
    @%p1 bra J
    nop
J:
    exit
"""

#: Paths that only meet at exit.
EXIT_ONLY = """
    @%p1 bra T
    exit
T:
    exit
"""


def branch(source, issues=1, **preds):
    """Step ``source`` until its warp has issued ``issues``
    instructions, with the predicates ``preds`` set in place first."""
    sm, warp = one_warp(source, block_dim=8)
    for name, lanes in preds.items():
        warp.regs.pred_values[name][:8] = lanes
    now = 0
    for _ in range(issues):
        now = issue(sm, now)
    return sm, warp, now


def test_initial_state():
    stack = SIMTStack(8, start_pc=3)
    assert stack.pc == 3
    assert stack.frames[-1].mask.all()
    assert stack.depth == 1
    assert not stack.finished


def test_partial_initial_mask():
    stack = SIMTStack(8, initial_mask=mask(0, 1, 2))
    assert stack.frames[-1].n == 3


def test_advance():
    stack = SIMTStack(8)
    stack.advance()
    assert stack.pc == 1


def test_uniform_taken_branch():
    _, warp, _ = branch(IF_ELSE, p1=full())
    assert warp.pc == 3
    assert warp.stack.depth == 1
    _, warp, _ = branch("bra J\nnop\nJ: exit")  # unguarded
    assert (warp.pc, warp.stack.depth) == (2, 1)


def test_uniform_not_taken_branch():
    _, warp, _ = branch(IF_ELSE, p1=mask())
    assert warp.pc == 1
    assert warp.stack.depth == 1


def test_divergence_executes_taken_path_first():
    taken = mask(0, 1, 2)
    _, warp, _ = branch(IF_ELSE, p1=taken)
    assert warp.stack.depth == 3
    assert warp.pc == 3
    assert (tos(warp.stack) == taken).all()


def test_reconvergence_restores_full_mask():
    taken = mask(0, 1)
    sm, warp, now = branch(IF_ELSE, p1=taken)
    stack = warp.stack
    now = issue(sm, now)  # the taken path's nop: it reaches the RPC
    # The fall-through path now runs from 1.
    assert stack.pc == 1
    assert (tos(stack) == ~taken).all()
    now = issue(sm, issue(sm, now))  # nop, bra J
    # Reconverged: full mask at the RPC.
    assert stack.pc == 4
    assert tos(stack).all()
    assert stack.depth == 1


def test_branch_to_reconvergence_point_not_pushed():
    """Lanes branching straight to the RPC wait there, no stack entry."""
    taken = mask(0, 1)
    _, warp, _ = branch(BREAK, p1=taken)
    assert warp.stack.depth == 2
    assert warp.pc == 1  # fall-through runs first; taken waits at RPC
    assert (tos(warp.stack) == ~taken).all()


def test_loop_back_branch_keeps_loopers_active():
    loopers = mask(2, 3)
    _, warp, _ = branch("L: nop\n@%p1 bra L\nexit", issues=2, p1=loopers)
    assert warp.pc == 0
    assert (tos(warp.stack) == loopers).all()


def test_exit_all_lanes_finishes():
    stack = SIMTStack(8)
    stack.exit_lanes(full())
    assert stack.finished


def test_exit_partial_lanes():
    stack = SIMTStack(8)
    stack.exit_lanes(mask(0, 1, 2))
    assert not stack.finished
    assert stack.frames[-1].n == 5


def test_exit_clears_lanes_from_all_entries():
    # The entire taken path exits at pc 3.
    _, warp, _ = branch(IF_ELSE.replace("T:\n    nop", "T:\n    exit"),
                        issues=2, p1=mask(0, 1, 2, 3))
    # The taken entry vanished; fall-through is now on top.
    assert warp.pc == 1
    assert warp.stack.frames[-1].n == 4
    assert warp.stack.live_mask()[:8].tolist() == [False] * 4 + [True] * 4


def test_divergence_at_exit_reconvergence():
    sm, warp, now = branch(EXIT_ONLY, p1=mask(0))
    assert warp.program.reconvergence_point(0) == RECONVERGE_AT_EXIT
    assert warp.pc == 2
    now = issue(sm, now)  # lane 0 exits
    assert warp.pc == 1
    issue(sm, now)  # the rest exit
    assert warp.finished


#: Nested if: the inner branch at pc 3 runs on the outer taken path.
NESTED = """
    @%p1 bra A
    nop
    bra J
A:
    @%p2 bra B
    nop
    bra K
B:
    nop
K:
    nop
J:
    exit
"""


def test_nested_divergence():
    sm, warp, now = branch(NESTED, issues=2, p1=mask(0, 1, 2, 3),
                           p2=mask(0, 1))
    assert warp.pc == 6
    assert warp.stack.depth == 5
    issue(sm, now)  # inner taken path reaches its RPC
    assert warp.pc == 4  # inner fall-through
    assert (tos(warp.stack) == mask(2, 3)).all()


@given(
    taken_lanes=st.lists(st.integers(0, 7), max_size=8),
    source=st.sampled_from([IF_ELSE, BREAK, EXIT_ONLY, NESTED]),
)
def test_branch_preserves_lane_partition(taken_lanes, source):
    """After any branch, pushed masks partition the parent mask."""
    _, warp, _ = branch(source, p1=mask(*taken_lanes))
    entries = warp.stack.frames
    union = np.zeros(32, dtype=bool)
    for entry in entries[1:]:
        assert not (union & entry.mask).any(), "pushed masks overlap"
        union |= entry.mask
    base = entries[0].mask
    assert not (union & ~base).any()
    if len(entries) > 1 and source != BREAK:  # BREAK's taken lanes wait
        assert (union == base).all()
    assert tos(warp.stack).any()
    assert len(entries) in (1, 2, 3)


def walk_step(stack, data):
    """One random update of ``stack`` the way a handler makes it:
    ``diverge`` only on a non-empty proper subset of the TOS mask."""
    active = np.flatnonzero(stack.frames[-1].mask).tolist()
    lanes = data.draw(st.lists(st.sampled_from(active), unique=True))
    pc = stack.pc
    action = data.draw(st.sampled_from(
        ["advance", "diverge", "uniform_jump", "exit_lanes"]))
    if action == "advance":
        stack.advance()
    elif action == "diverge":
        if 0 < len(lanes) < len(active):
            stack.diverge(mask(*lanes), len(lanes), target=max(pc - 3, 0),
                          rpc=data.draw(st.sampled_from(
                              [pc + 4, RECONVERGE_AT_EXIT])))
    elif action == "uniform_jump":
        stack.uniform_jump(max(pc - 2, 0))
    elif lanes:
        stack.exit_lanes(mask(*lanes))


@given(st.data())
def test_random_walks_never_corrupt_masks(data):
    """Random diverge/advance/jump/exit sequences keep invariants."""
    stack = SIMTStack(8, start_pc=0)
    for _ in range(data.draw(st.integers(1, 30))):
        if stack.finished:
            break
        walk_step(stack, data)
        if not stack.finished:
            # TOS mask is never empty and depth is bounded.
            assert stack.frames[-1].mask.any()
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
        walk_step(stack, data)
        assert_lane_counts(stack)
        counts = [e.n for e in stack.frames]
        restored = pickle.loads(pickle.dumps(stack))
        assert_lane_counts(restored)
        assert [e.n for e in restored.frames] == counts
        assert [e.clone().n for e in stack.frames] == counts
