"""Program analysis: basic blocks, CFG, reconvergence points."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.harness.params import params_for, sync_free_params, sync_params
from repro.isa import assemble
from repro.isa.program import RECONVERGE_AT_EXIT, immediate_dominators
from repro.kernels import build

IF_ELSE = """
    setp.eq %p1, %r1, 0
    @%p1 bra THEN
    mov %r2, 1
    bra JOIN
THEN:
    mov %r2, 2
JOIN:
    add %r3, %r2, 1
    exit
"""


def test_if_else_blocks():
    program = assemble(IF_ELSE)
    starts = [b.start for b in program.blocks]
    assert starts == [0, 2, 4, 5]


def test_if_else_reconvergence_is_join():
    program = assemble(IF_ELSE)
    # The conditional branch at index 1 reconverges at JOIN (index 5).
    assert program.reconvergence_point(1) == 5


def test_successors():
    program = assemble(IF_ELSE)
    entry = program.blocks[0]
    # Conditional branch: taken target + fall-through.
    assert set(entry.successors) == {1, 2}


LOOP = """
    mov %r_i, 0
LOOP:
    add %r_i, %r_i, 1
    setp.lt %p1, %r_i, 10
    @%p1 bra LOOP
    exit
"""


def test_loop_reconvergence_is_exit_block():
    program = assemble(LOOP)
    # Backward branch at 3; loop exit (index 4) post-dominates it.
    assert program.reconvergence_point(3) == 4
    assert program[3].is_backward_branch


def test_backward_branches_detected():
    program = assemble(LOOP)
    assert program.backward_branches() == {3}


NESTED = """
    setp.eq %p1, %r1, 0
    @%p1 bra OUTER_THEN
    mov %r2, 1
    bra OUTER_JOIN
OUTER_THEN:
    setp.eq %p2, %r3, 0
    @%p2 bra INNER_THEN
    mov %r2, 2
    bra INNER_JOIN
INNER_THEN:
    mov %r2, 3
INNER_JOIN:
    add %r2, %r2, 10
OUTER_JOIN:
    exit
"""


def test_nested_if_reconvergence():
    program = assemble(NESTED)
    outer_branch = 1
    inner_branch = 5
    labels = program.labels
    assert program.reconvergence_point(outer_branch) == labels["OUTER_JOIN"]
    assert program.reconvergence_point(inner_branch) == labels["INNER_JOIN"]


DIVERGENT_EXIT = """
    setp.eq %p1, %r1, 0
    @%p1 bra DONE
    mov %r2, 1
    exit
DONE:
    mov %r2, 2
    exit
"""


def test_paths_that_only_meet_at_exit():
    program = assemble(DIVERGENT_EXIT)
    assert program.reconvergence_point(1) == RECONVERGE_AT_EXIT


GUARDED_EXIT = """
    setp.eq %p1, %r1, 0
    @%p1 exit
    mov %r2, 1
    exit
"""

LOOP_AFTER_GUARDED_EXIT = """
    setp.eq %p1, %r1, 0
    @%p1 exit
    mov %r_i, 0
LOOP:
    add %r_i, %r_i, 1
    bra BODY
BODY:
    setp.lt %p2, %r_i, 10
    @%p2 bra LOOP
    exit
"""

BRANCH_BEFORE_GUARDED_EXIT = """
    setp.eq %p0, %r1, 0
    @%p0 bra J
    setp.eq %p1, %r2, 0
    @%p1 exit
    mov %r3, 1
J:
    mov %r4, 2
    exit
"""


def _blocks(program):
    return [(b.start, b.end, b.successors) for b in program.blocks]


def test_guarded_exit_falls_through():
    # The lanes whose guard is false run on: block 0 reaches block 1.
    program = assemble(GUARDED_EXIT)
    assert _blocks(program) == [(0, 1, (1,)), (2, 3, ())]


def test_loop_after_a_guarded_exit_is_a_loop():
    program = assemble(LOOP_AFTER_GUARDED_EXIT)
    assert _blocks(program) == [(0, 1, (1,)), (2, 2, (2,)), (3, 4, (3,)),
                                (5, 6, (2, 4)), (7, 7, ())]
    assert program.back_edges() == {(3, 2)}
    assert program.loop_back_branches() == program.backward_branches() == {6}
    assert program.reconvergence == {6: 7}


def test_branch_before_a_guarded_exit_reconverges_at_exit():
    # The guarded exit block now falls through to ``mov %r3`` and keeps
    # its edge to the virtual exit.  Lanes that exit there never reach
    # J, so J does not post-dominate the branch: the two paths of the
    # branch meet only at the exit, with the fall-through edge or
    # without it.
    program = assemble(BRANCH_BEFORE_GUARDED_EXIT)
    assert _blocks(program) == [(0, 1, (3, 1)), (2, 3, (2,)), (4, 4, (3,)),
                                (5, 6, ())]
    assert program.reconvergence_point(1) == RECONVERGE_AT_EXIT
    assert program.back_edges() == set()


def test_true_sibs_from_annotation():
    program = assemble(
        """
    SPIN:
        atom.cas %r1, [%r2], 0, 1 !lock_try
        setp.ne %p1, %r1, 0
        @%p1 bra SPIN !sib
        exit
        """
    )
    assert program.true_sibs() == {2}


def test_registers_and_predicates_enumeration():
    program = assemble(IF_ELSE)
    assert program.registers() == {"r1", "r2", "r3"}
    assert program.predicates() == {"p1"}


def test_block_of():
    program = assemble(IF_ELSE)
    assert program.block_of(0).index == 0
    assert program.block_of(4).start == 4
    with pytest.raises(IndexError):
        program.block_of(99)


def test_hazard_keys_precomputed():
    program = assemble(IF_ELSE)
    setp = program[0]
    assert set(setp.hazard_keys) == {"r:r1", "p:p1"}
    assert setp.dst_key == "p:p1"
    branch = program[1]
    assert "p:p1" in branch.hazard_keys
    assert branch.dst_key is None


def test_hazard_keys_for_memory_ops():
    program = assemble(
        """
        ld.global %r1, [%r2+4]
        st.global [%r3], %r1
        exit
        """
    )
    load = program[0]
    assert set(load.hazard_keys) == {"r:r1", "r:r2"}
    store = program[1]
    assert set(store.hazard_keys) == {"r:r1", "r:r3"}
    assert store.dst_key is None  # stores do not write registers


def test_instruction_addresses_are_8_bytes_apart():
    program = assemble(IF_ELSE)
    addresses = [instr.address for instr in program.instructions]
    assert addresses == [8 * i for i in range(len(program))]


def test_static_size():
    assert assemble(LOOP).static_size == 5


SELF_LOOP_COND = """
    mov %r_i, 0
SPIN:
    add %r_i, %r_i, 1
    setp.lt %p1, %r_i, 10
    @%p1 bra SPIN
    exit
"""

SELF_LOOP_UNCOND = """
    mov %r1, 0
SPIN:
    bra SPIN
    exit
"""


def test_single_block_self_loop_back_edge_conditional():
    # Regression: the dominance-based CFG view used to disagree with the
    # instruction-level backward_branches() on single-block self-loops.
    program = assemble(SELF_LOOP_COND)
    spin = program.block_of(1).index
    assert (spin, spin) in program.back_edges()
    assert program.loop_back_branches() == program.backward_branches() == {3}
    assert program.natural_loop(spin, spin) == {spin}


def test_single_block_self_loop_back_edge_unconditional():
    program = assemble(SELF_LOOP_UNCOND)
    spin = program.block_of(1).index
    assert (spin, spin) in program.back_edges()
    assert 1 in program.loop_back_branches()
    assert program.natural_loop(spin, spin) == {spin}


def test_loop_back_branches_subset_of_backward_on_all_kernels():
    from repro.kernels import build, kernel_names

    for name in kernel_names():
        program = build(name).launch.program
        loop_branches = program.loop_back_branches()
        assert loop_branches <= program.backward_branches(), name
        # Every natural loop's head must be a member of its own body.
        for (tail, head), body in program.natural_loops().items():
            assert head in body and tail in body, (name, tail, head)


#: Each shipped kernel's branch analysis at both parameter scales, as
#: ``(reconvergence, back_edges(), loop_back_branches())``.  Pinned from
#: networkx's ``immediate_dominators``, which the in-repo pass replaced.
PINNED_BRANCHES = {
    ("atm", "quick"): ({26: 43, 30: 43, 44: 45, 47: 48},
                       {(7, 2), (8, 1)}, {44, 47}),
    ("ds", "quick"): ({27: 44, 31: 44, 45: 46, 48: 49},
                      {(7, 2), (8, 1)}, {45, 48}),
    ("histogram", "quick"): ({15: 16}, {(1, 1)}, {15}),
    ("hl", "quick"): ({12: 13}, {(1, 1)}, {12}),
    ("ht", "quick"): ({20: 32, 33: 34, 36: 37}, {(5, 2), (6, 1)}, {33, 36}),
    ("kmeans", "quick"): ({14: 15}, {(1, 1)}, {14}),
    ("ms", "quick"): ({18: 19}, {(1, 1)}, {18}),
    ("nw1", "quick"): ({22: 23, 61: 71, 65: 66, 73: 74},
                       {(2, 2), (5, 5), (7, 1)}, {22, 65, 73}),
    ("nw2", "quick"): ({22: 23, 61: 71, 65: 66, 73: 74},
                       {(2, 2), (5, 5), (7, 1)}, {22, 65, 73}),
    ("reduction", "quick"): ({9: 16, 19: 20, 21: 26}, {(3, 1)}, {19}),
    ("st", "quick"): ({6: 47, 11: 46, 34: 45, 42: 45}, {(7, 1)}, {46}),
    ("stencil", "quick"): ({17: 18}, {(1, 1)}, {17}),
    ("tb", "quick"): ({21: 34, 35: 36, 38: 39}, {(5, 2), (6, 1)}, {35, 38}),
    ("tsp", "quick"): ({17: 18, 20: 31, 23: 24, 26: 29, 33: 34},
                       {(1, 1), (4, 4), (8, 3)}, {17, 23, 33}),
    ("vecadd", "quick"): ({16: 17}, {(1, 1)}, {16}),
    ("atm", "full"): ({26: 43, 30: 43, 44: 45, 47: 48},
                      {(7, 2), (8, 1)}, {44, 47}),
    ("ds", "full"): ({27: 44, 31: 44, 45: 46, 48: 49},
                     {(7, 2), (8, 1)}, {45, 48}),
    ("histogram", "full"): ({15: 16}, {(1, 1)}, {15}),
    ("hl", "full"): ({12: 13}, {(1, 1)}, {12}),
    ("ht", "full"): ({20: 32, 33: 34, 36: 37}, {(5, 2), (6, 1)}, {33, 36}),
    ("kmeans", "full"): ({14: 15}, {(1, 1)}, {14}),
    ("ms", "full"): ({18: 19}, {(1, 1)}, {18}),
    ("nw1", "full"): ({22: 23, 109: 119, 113: 114, 121: 122},
                      {(2, 2), (5, 5), (7, 1)}, {22, 113, 121}),
    ("nw2", "full"): ({22: 23, 109: 119, 113: 114, 121: 122},
                      {(2, 2), (5, 5), (7, 1)}, {22, 113, 121}),
    ("reduction", "full"): ({9: 16, 19: 20, 21: 26}, {(3, 1)}, {19}),
    ("st", "full"): ({6: 55, 11: 54, 42: 53, 50: 53}, {(7, 1)}, {54}),
    ("stencil", "full"): ({17: 18}, {(1, 1)}, {17}),
    ("tb", "full"): ({21: 34, 35: 36, 38: 39}, {(5, 2), (6, 1)}, {35, 38}),
    ("tsp", "full"): ({17: 18, 20: 31, 23: 24, 26: 29, 33: 34},
                      {(1, 1), (4, 4), (8, 3)}, {17, 23, 33}),
    ("vecadd", "full"): ({16: 17}, {(1, 1)}, {16}),
}


@pytest.mark.parametrize("scale", ["full", "quick"])
@pytest.mark.parametrize("kernel",
                         sorted({*sync_params(), *sync_free_params()}))
def test_shipped_kernel_branch_analysis_is_pinned(kernel, scale):
    program = build(kernel, **params_for(kernel, scale)).launch.program
    assert (program.reconvergence, program.back_edges(),
            program.loop_back_branches()) == PINNED_BRANCHES[kernel, scale]


@st.composite
def graphs(draw):
    """A random digraph of at most 16 nodes and a root: self-loops,
    unreachable nodes, several exits and a root with predecessors all
    occur."""
    n = draw(st.integers(1, 16))
    node = st.integers(0, n - 1)
    succ = {v: [] for v in range(n)}
    for tail, head in draw(st.lists(st.tuples(node, node), max_size=3 * n)):
        succ[tail].append(head)
    return succ, draw(node)


def _reachable(succ, root, removed=None):
    seen, stack = {root}, [root]
    while stack:
        for nxt in succ[stack.pop()]:
            if nxt not in seen and nxt != removed:
                seen.add(nxt)
                stack.append(nxt)
    return seen


@settings(max_examples=500, deadline=None)
@given(graphs())
@example(({0: [1, 2], 1: [1, 3], 2: [0, 4], 3: [], 4: [], 5: [3]}, 0))
def test_immediate_dominators_match_the_definition(graph):
    # d dominates n iff n is unreachable from the root once d is removed;
    # walking n's idom chain up to the root must visit exactly those d.
    succ, root = graph
    reach = _reachable(succ, root)
    idom = immediate_dominators(succ, root)
    assert set(idom) == reach - {root}
    for node in reach - {root}:
        chain, up = set(), node
        while up != root:
            up = idom[up]
            assert up not in chain, "the idom map has a cycle"
            chain.add(up)
        assert chain == {root} | {
            d for d in reach - {root, node}
            if node not in _reachable(succ, root, removed=d)}
