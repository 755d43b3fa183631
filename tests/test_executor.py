"""ALU and compare semantics, run through the decoded handlers.

Each property draws 32 operand rows and runs them as one warp, one row
per lane.  Every opcode is checked under each way decoding binds a
source, and each binding must give the reference's lanes:

* ``REG`` — a register, loaded per lane with ``ld.global``;
* ``IMM`` — an immediate, one instruction per row: all-constant sources
  are folded at decode, and a constant ``shl``/``shr`` amount is
  clipped there;
* ``LANEID`` — the ``%laneid`` special register (the row's value is
  replaced by the lane id);
* ``PRED`` — a predicate register set from the row, read as 0/1 lanes
  (``selp``).
"""

import operator

import pytest
from hypothesis import given, strategies as st

from conftest import LANE_EXAMPLES, run_warp
from repro.isa import AssemblyError, assemble
from repro.isa.instructions import ALU_OPCODES, CMP_OPS, Opcode
from repro.memory.memsys import GlobalMemory
from repro.sim import executor
from repro.sim.config import fermi_config
from repro.sim.executor import decode_program

I32 = st.integers(-(2**31), 2**31 - 1)
REG, IMM, LANEID, PRED = "reg", "imm", "laneid", "pred"
LANES = 32



def rows(*columns):
    """One example: 32 lanes' operand rows."""
    return st.lists(st.tuples(*columns), min_size=LANES, max_size=LANES)


def wrap(x: int) -> int:
    return ((x + 2**31) % 2**32) - 2**31


def trunc_div(a: int, b: int) -> int:
    """C's ``a / b``: the quotient rounded toward zero."""
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def run_op(op, rows, kinds, dst="%r_out"):
    """The lanes ``op`` writes to ``dst``: lane ``k`` computes on
    ``rows[k]``, source ``i`` bound as ``kinds[i]``."""
    memory = GlobalMemory(1 << 10)
    io = memory.alloc(LANES * len(kinds))
    lines = ["ld.param %r_io, [io]", "shl %r_at, %laneid, 2",
             "add %r_at, %r_io, %r_at"]
    srcs = []
    for i, kind in enumerate(kinds):
        if kind in (REG, PRED):
            memory.store_array(io + 4 * LANES * i, [row[i] for row in rows])
            lines.append(f"ld.global %r_s{i}, [%r_at + {4 * LANES * i}]")
        if kind == PRED:
            lines.append(f"setp.ne %p_s{i}, %r_s{i}, 0")
        srcs.append({REG: f"%r_s{i}", PRED: f"%p_s{i}",
                     LANEID: "%laneid"}.get(kind))
    per_row = IMM in kinds
    for k, row in enumerate(rows if per_row else rows[:1]):
        operands = [str(row[i]) if kind == IMM else src
                    for i, (kind, src) in enumerate(zip(kinds, srcs))]
        lines.append(f"{op} {dst}{k if per_row else ''}, "
                     + ", ".join(operands))
    lines.append("exit")
    warp = run_warp("\n".join(lines), params={"io": io}, memory=memory)
    regs = (warp.regs.pred_values if dst.startswith("%p")
            else warp.regs.values)
    if per_row:
        return [int(regs[f"{dst[1:]}{k}"][k]) for k in range(LANES)]
    return [int(v) for v in regs[dst[1:]]]


#: The bindings every opcode of an arity runs under.
BINDINGS = {
    1: [(REG,), (IMM,), (LANEID,)],
    2: [(REG, REG), (IMM, IMM), (LANEID, REG), (REG, IMM)],
    3: [(REG, REG, REG), (IMM, IMM, IMM), (REG, LANEID, IMM)],
}


def check(op, reference, rows, bindings=None, dst="%r_out"):
    """``op`` gives ``reference``'s lanes under every binding."""
    for kinds in bindings or BINDINGS[len(rows[0])]:
        used = [tuple(lane if kind == LANEID else value
                      for kind, value in zip(kinds, row))
                for lane, row in enumerate(rows)]
        expected = [int(reference(*row)) for row in used]
        assert run_op(op, used, kinds, dst) == expected, (op, kinds)


@LANE_EXAMPLES
@given(rows(I32, I32))
def test_add_sub_mul(pairs):
    check("add", lambda a, b: wrap(a + b), pairs)
    check("sub", lambda a, b: wrap(a - b), pairs)
    check("mul", lambda a, b: wrap(a * b), pairs)


@LANE_EXAMPLES
@given(rows(I32, I32, I32))
def test_mad(triples):
    check("mad", lambda a, b, c: wrap(a * b + c), triples)


@LANE_EXAMPLES
@given(rows(I32, I32.filter(lambda v: v != 0)))
def test_div_truncates_toward_zero(pairs):
    check("div", lambda a, b: wrap(trunc_div(a, b)), pairs)


@LANE_EXAMPLES
@given(rows(I32, I32.filter(lambda v: v != 0)))
def test_rem_matches_c_semantics(pairs):
    check("rem", lambda a, b: wrap(a - trunc_div(a, b) * b), pairs)


def test_div_rem_by_zero_do_not_crash():
    pairs = [(7 * lane - 100, 0) for lane in range(LANES)]
    check("div", lambda a, b: 0, pairs)
    check("rem", lambda a, b: a, pairs)


@LANE_EXAMPLES
@given(rows(I32, I32))
def test_bitwise(pairs):
    check("and", lambda a, b: wrap(a & b), pairs)
    check("or", lambda a, b: wrap(a | b), pairs)
    check("xor", lambda a, b: wrap(a ^ b), pairs)


@LANE_EXAMPLES
@given(rows(I32))
def test_not(singles):
    check("not", lambda a: wrap(~a), singles)


def clip(s: int) -> int:
    return min(max(s, 0), 31)


@LANE_EXAMPLES
@given(rows(I32, st.one_of(st.integers(0, 31), I32)))
def test_shifts(pairs):
    """Shift amounts are clipped to [0, 31], per lane or at decode."""
    check("shl", lambda a, s: wrap(a << clip(s)), pairs)
    check("shr", lambda a, s: a >> clip(s), pairs)


def test_shift_amount_clamped():
    pairs = [(1, 40), (1, 32), (3, -5), (1, 2**31 - 1)] * (LANES // 4)
    check("shl", lambda a, s: wrap(a << clip(s)), pairs)
    assert run_op("shl", pairs, (REG, IMM))[:4] == [-(2**31), -(2**31), 3,
                                                    -(2**31)]


@LANE_EXAMPLES
@given(rows(I32, I32))
def test_min_max(pairs):
    check("min", min, pairs)
    check("max", max, pairs)


def test_mov_passthrough():
    singles = [(v,) for v in range(-16, 16)]
    check("mov", lambda a: a, singles)


@LANE_EXAMPLES
@given(rows(I32, I32, st.sampled_from([0, 1, -7])))
def test_selp_reads_its_predicate(triples):
    """``selp``'s third source is a predicate, read as 0/1 lanes."""
    check("selp", lambda a, b, p: a if p else b, triples,
          [(REG, REG, PRED), (IMM, IMM, PRED), (LANEID, IMM, PRED)])


def test_unknown_opcode_rejected():
    with pytest.raises(ValueError, match="not an ALU opcode"):
        executor._alu_op(Opcode.BRA)


@LANE_EXAMPLES
@given(rows(I32, I32))
def test_compare_operators(pairs):
    for cmp in CMP_OPS:
        check(f"setp.{cmp}", getattr(operator, cmp), pairs, dst="%p_out")


def test_unknown_comparison_rejected():
    """The assembler refuses an unknown comparison, and the handlers'
    table covers every comparison it accepts."""
    with pytest.raises(AssemblyError, match="unknown setp comparison"):
        assemble("setp.zz %p1, %r1, %r2\nexit")
    assert set(executor._CMP_OPS) == set(CMP_OPS)


EVERY_OPCODE = """
    mov %r1, %r2
    add %r1, %r2, %r3
    sub %r1, %r2, %r3
    mul %r1, %r2, %r3
    mad %r1, %r2, %r3, %r4
    div %r1, %r2, %r3
    rem %r1, %r2, %r3
    and %r1, %r2, %r3
    or %r1, %r2, %r3
    xor %r1, %r2, %r3
    not %r1, %r2
    shl %r1, %r2, %r3
    shr %r1, %r2, %r3
    min %r1, %r2, %r3
    max %r1, %r2, %r3
    selp %r1, %r2, %r3, %p1
    setp.eq %p1, %r1, %r2
L:
    @%p1 bra L
    ld.global %r1, [%r2]
    ld.global.cg %r1, [%r2]
    st.global [%r2], %r1
    ld.param %r1, [x]
    atom.cas %r1, [%r2], 0, 1
    atom.exch %r1, [%r2], %r3
    atom.add %r1, [%r2], %r3
    atom.min %r1, [%r2], %r3
    atom.max %r1, [%r2], %r3
    bar.sync
    membar
    clock %r1
    nop
    exit
"""


def test_every_opcode_decodes_to_a_handler():
    """Decoding dispatches every opcode: none reaches ``_alu_op``'s
    refusal, which only a non-ALU opcode could."""
    program = assemble(EVERY_OPCODE)
    assert {instr.opcode for instr in program.instructions} == set(Opcode)
    ops = decode_program(program, fermi_config(), {"x": 3}).ops
    assert len(ops) == len(program) and all(callable(d.handler) for d in ops)
    assert set(executor._ALU_OPS) == ALU_OPCODES
