"""Instruction execution: opcode semantics and the decoded program.

:func:`eval_alu` / :func:`eval_cmp` are pure: they read operand
lane-vectors and produce result lane-vectors.

A :class:`DecodedProgram` pre-resolves every instruction once per
(program, machine, params) combination into a :class:`DecodedOp` — a
record of closure-bound operand readers and a specialized execute
handler — so the per-issue hot path in :meth:`repro.sim.sm.SM.step`
never touches ``isinstance`` dispatch or opcode if-chains.  The
equivalence matrix (``tests/test_golden_fixtures.py``) holds every way
of running them to one frozen oracle.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.isa.instructions import Imm, Opcode, Operand, Param, Pred, Reg, Sreg
from repro.isa.program import Program
from repro.memory.memsys import OUT_OF_BOUNDS, WORD_BYTES
from repro.sim.config import GPUConfig
from repro.sim.registers import copyto, wrap_i32
from repro.sim.warp import Warp


# ``np.trunc`` is ``np.fix`` on floats without its Python wrapper.
def _div(a, b):
    divisor = np.where(b == 0, 1, b)
    return np.where(b == 0, 0, np.trunc(a / divisor).astype(np.int64))


def _rem(a, b):
    divisor = np.where(b == 0, 1, b)
    quotient = np.trunc(a / divisor).astype(np.int64)
    return np.where(b == 0, a, a - quotient * divisor)


def _shift_amount(amount):
    # clip(amount, 0, 31) as two ufunc calls: ``np.clip`` itself spends
    # ten times the arithmetic in its Python wrapper on a 32-lane vector.
    return np.minimum(np.maximum(amount, 0), 31)


#: Raw (pre-wrap) lane-vector computation per ALU opcode, taking the
#: source vectors positionally — the one statement of every opcode's
#: arithmetic: :func:`eval_alu` looks it up per call, decoding binds it
#: once per op.
_ALU_OPS = {
    Opcode.MOV: lambda a: a,
    Opcode.ADD: np.add,
    Opcode.SUB: np.subtract,
    Opcode.MUL: np.multiply,
    Opcode.MAD: lambda a, b, c: a * b + c,
    Opcode.DIV: _div,
    Opcode.REM: _rem,
    Opcode.AND: np.bitwise_and,
    Opcode.OR: np.bitwise_or,
    Opcode.XOR: np.bitwise_xor,
    Opcode.NOT: np.bitwise_not,
    Opcode.SHL: lambda a, b: np.left_shift(a, _shift_amount(b)),
    Opcode.SHR: lambda a, b: np.right_shift(a, _shift_amount(b)),
    Opcode.MIN: np.minimum,
    Opcode.MAX: np.maximum,
}


def _alu_op(opcode: Opcode):
    try:
        return _ALU_OPS[opcode]
    except KeyError:
        raise ValueError(f"not an ALU opcode: {opcode}") from None


def eval_alu(opcode: Opcode, srcs: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate an ALU opcode over lane vectors (32-bit wrapped)."""
    result = _alu_op(opcode)(*srcs)
    return wrap_i32(np.asarray(result, dtype=np.int64))


#: ``setp`` comparison -> the ufunc that evaluates it over lane vectors.
_CMP_OPS = {
    "eq": np.equal,
    "ne": np.not_equal,
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
}


def eval_cmp(cmp: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Evaluate a ``setp`` comparison, producing a boolean lane vector."""
    try:
        cmp_op = _CMP_OPS[cmp]
    except KeyError:
        raise ValueError(f"unknown comparison {cmp!r}") from None
    return cmp_op(a, b)


# ---------------------------------------------------------------------------
# Pre-decoded execution records.

#: Reads one operand's lane vector from a warp.
OperandReader = Callable[[Warp], np.ndarray]

#: Latency class of an ALU opcode serviced by the SFU pipe.
_SFU_OPCODES = (Opcode.MUL, Opcode.MAD, Opcode.DIV, Opcode.REM)


def _frozen(vector: np.ndarray) -> np.ndarray:
    """Mark a shared constant lane vector read-only (safety net)."""
    vector.setflags(write=False)
    return vector


def _make_reader(operand: Operand, warp_size: int,
                 params: Dict[str, int]) -> OperandReader:
    """Closure that reads ``operand``'s lane vector from a warp."""
    if isinstance(operand, Reg):
        name = operand.name
        return lambda warp: warp.regs.values[name]
    if isinstance(operand, Imm):
        vector = _frozen(np.full(warp_size, operand.value, dtype=np.int64))
        return lambda warp: vector
    if isinstance(operand, Sreg):
        name = operand.name
        return lambda warp: warp.sregs[name]
    if isinstance(operand, Pred):
        name = operand.name
        return lambda warp: warp.regs.pred_values[name].astype(np.int64)
    if isinstance(operand, Param):
        vector = _frozen(
            np.full(warp_size, params[operand.name], dtype=np.int64)
        )
        return lambda warp: vector
    raise TypeError(f"cannot read operand {operand!r}")


class DecodedOp:
    """One decoded instruction.

    Everything the issue path needs is precomputed: the guard
    predicate, scoreboard keys, instruction-class flags, and a
    specialized ``handler(sm, warp, dop, exec_mask, n_exec, now)``
    (``n_exec`` = lanes set in ``exec_mask``, counted once by the issue
    prologue) that executes this opcode.

    ``exec_mask`` is ``guard_op(active, pred)`` for a guarded
    instruction and the TOS mask *itself*, not a copy, for an unguarded
    one: no handler mutates its ``exec_mask`` and :class:`SIMTStack`
    replaces masks rather than updating them in place
    (``tests/test_exec_semantics.py`` holds both to it).

    The handler is a closure, so the op pickles as what it is — op
    ``index`` of its :class:`DecodedProgram` — and a checkpoint restores
    it from the restored program's decoding.
    """

    __slots__ = (
        "decoded", "instr", "index", "guard", "guard_op", "handler",
        "hazard_keys", "is_branch", "is_sync", "is_store", "static_sib",
    )

    def __init__(self, decoded: "DecodedProgram", instr, handler,
                 static_sib: bool) -> None:
        self.decoded = decoded
        self.instr = instr
        self.index = instr.index
        #: Guard predicate name (None = unguarded) and the ufunc that
        #: combines the active mask with it: over booleans
        #: ``active > pred`` is ``active AND NOT pred`` in one call.
        self.guard = instr.guard.name if instr.guard is not None else None
        self.guard_op = (
            np.greater if instr.guard_negated else np.logical_and
        )
        self.handler = handler
        self.hazard_keys = instr.hazard_keys
        self.is_branch = instr.is_branch
        self.is_sync = instr.has_role("sync")
        self.is_store = instr.opcode is Opcode.ST_GLOBAL
        self.static_sib = static_sib

    def __reduce__(self):
        return _op_at, (self.decoded, self.index)


def _op_at(decoded: "DecodedProgram", index: int) -> DecodedOp:
    return decoded.ops[index]


def _retire(warp, dst_key, release) -> None:
    """The tail every register-writing handler ends in.

    ``Scoreboard.reserve`` of the one destination key, then
    ``SIMTStack.advance``, both inline: a handler that has written its
    result straight into the warp's register arrays finishes the
    instruction with this one call.

    Handlers write the way ``RegisterFile.write`` does — in place,
    ``copyto(dst, values.astype(np.int32), where=exec_mask)``: the
    int32 cast is the one 32-bit wrap and it copies, so ``values`` may
    alias the destination (``mov r1, r1``).
    """
    pending = warp.scoreboard.pending
    if release > pending.get(dst_key, 0):
        pending[dst_key] = release
    top = warp.stack.frames[-1]
    pc = top.pc + 1
    top.pc = pc
    if pc == top.rpc:
        warp.stack.pop_reconverged()


def _make_alu_handler(instr, warp_size, params, alu_latency, sfu_latency):
    opcode = instr.opcode
    dst_name = instr.dst.name
    dst_key = instr.dst_key
    latency = sfu_latency if opcode in _SFU_OPCODES else alu_latency
    if opcode is Opcode.SELP:
        read_a = _make_reader(instr.srcs[0], warp_size, params)
        read_b = _make_reader(instr.srcs[1], warp_size, params)
        pred_name = instr.srcs[2].name

        def handler(sm, warp, dop, exec_mask, n_exec, now):
            regs = warp.regs
            result = np.where(
                regs.pred_values[pred_name], read_a(warp), read_b(warp)
            )
            copyto(regs.values[dst_name], result.astype(np.int32),
                   where=exec_mask)
            _retire(warp, dst_key, now + latency)

        return handler

    readers = tuple(
        _make_reader(src, warp_size, params) for src in instr.srcs
    )
    alu_op = _alu_op(opcode)

    def handler(sm, warp, dop, exec_mask, n_exec, now):
        result = alu_op(*[read(warp) for read in readers])
        copyto(warp.regs.values[dst_name], result.astype(np.int32),
               where=exec_mask)
        _retire(warp, dst_key, now + latency)

    return handler


def _make_setp_handler(instr, warp_size, params, alu_latency):
    read_a = _make_reader(instr.srcs[0], warp_size, params)
    read_b = _make_reader(instr.srcs[1], warp_size, params)
    cmp_op = _CMP_OPS[instr.cmp]
    dst_name = instr.dst.name
    dst_key = instr.dst_key

    def handler(sm, warp, dop, exec_mask, n_exec, now):
        a = read_a(warp)
        b = read_b(warp)
        copyto(warp.regs.pred_values[dst_name], cmp_op(a, b),
               where=exec_mask)
        # DDOS profiles one fixed thread per warp (the first live lane).
        lane = warp.profiled_lane
        ddos = sm.ddos
        if ddos is not None and lane >= 0 and exec_mask.item(lane):
            ddos.on_setp(warp.warp_slot, instr, a.item(lane), b.item(lane),
                         now)
        _retire(warp, dst_key, now + alu_latency)

    return handler


def _make_branch_handler(instr, program: Program):
    target = instr.target_index
    assert target is not None
    guarded = instr.guard is not None
    rpc = program.reconvergence_point(instr.index) if guarded else None
    wait_branch = instr.has_role("wait_branch")
    is_backward = instr.is_backward_branch
    index = instr.index

    def handler(sm, warp, dop, exec_mask, n_exec, now):
        # A branch's exec mask (active AND guard) *is* its taken mask,
        # so the issue prologue's ``n_exec`` and the TOS entry's lane
        # count already decide uniform taken / uniform fall-through /
        # divergent for the stack.
        stack = warp.stack
        n_not_taken = 0
        if not guarded:
            stack.uniform_jump(target)
        else:
            n_not_taken = stack.frames[-1].n - n_exec
            if n_exec == 0:
                stack.advance()
            elif n_not_taken == 0:
                stack.uniform_jump(target)
            else:
                # exec_mask is a fresh array here (guarded), so the
                # stack may keep it as the taken entry's mask.
                stack.diverge(exec_mask, n_exec, target, rpc)
        taken_any = n_exec > 0

        if wait_branch:
            # Backward branch of a wait/signal loop: lanes that take it
            # failed to observe the signal this iteration.
            locks = sm.stats.locks
            locks.wait_exit_fail += n_exec
            locks.wait_exit_success += n_not_taken

        ddos = sm.ddos
        if is_backward and ddos is not None:
            ddos.on_backward_branch(warp.warp_slot, instr, taken_any, now)
        if sm.cawa is not None:
            sm.cawa.on_branch(warp, instr, taken_any)
        # Re-query SIB status: the backward-branch hook above may have
        # just trained DDOS past its confidence threshold, so this read
        # can differ from the issue prologue's.
        if taken_any and sm.bows is not None and (
                ddos.is_sib(index) if ddos is not None
                else dop.static_sib):
            sm.bows.on_sib_executed(warp, now)

    return handler


def _make_exit_handler(instr):
    index = instr.index

    def handler(sm, warp, dop, exec_mask, n_exec, now):
        stack = warp.stack
        if n_exec:
            stack.exit_lanes(exec_mask)
            warp.refresh_profiled_lane()
        frames = stack.frames
        if frames and frames[-1].pc == index:
            # Guarded exit: surviving lanes continue past it.
            stack.advance()

    return handler


def _bar_handler(sm, warp, dop, exec_mask, n_exec, now):
    warp.stack.advance()
    warp.at_barrier = True
    sm.stats.barrier_waits += 1
    sm._emit_bar_arrive(
        cycle=now, sm_id=sm.sm_id, cta_id=warp.cta_id,
        warp_slot=warp.warp_slot,
    )
    if sm.san is not None:
        sm.san.note_barrier(
            sm.sm_id, warp.cta_id, warp.warp_in_cta, dop.index, now,
            warp.stack.depth,
        )
    sm._barrier_arrive(warp.cta_id, now=now, skip_slot=warp.warp_slot)


def _membar_handler(sm, warp, dop, exec_mask, n_exec, now):
    warp.membar_until = max(now + 1, warp.last_store_completion)
    warp.stack.advance()


def _nop_handler(sm, warp, dop, exec_mask, n_exec, now):
    warp.stack.advance()


def _make_clock_handler(instr, warp_size, alu_latency):
    dst_name = instr.dst.name
    dst_key = instr.dst_key

    def handler(sm, warp, dop, exec_mask, n_exec, now):
        values = np.full(warp_size, now, dtype=np.int64)
        copyto(warp.regs.values[dst_name], values.astype(np.int32),
               where=exec_mask)
        _retire(warp, dst_key, now + alu_latency)

    return handler


def _make_ld_param_handler(instr, warp_size, params, alu_latency):
    # Wrapped once, at decode time.
    values = _frozen(np.full(
        warp_size, params[instr.srcs[0].name], dtype=np.int64
    ).astype(np.int32))
    dst_name = instr.dst.name
    dst_key = instr.dst_key

    def handler(sm, warp, dop, exec_mask, n_exec, now):
        copyto(warp.regs.values[dst_name], values, where=exec_mask)
        _retire(warp, dst_key, now + alu_latency)

    return handler


def _make_load_handler(instr):
    mem_op = instr.srcs[0]
    base_name = mem_op.base.name
    offset = np.int64(mem_op.offset)
    dst_name = instr.dst.name
    dst_key = instr.dst_key
    bypass = instr.opcode is Opcode.LD_GLOBAL_CG
    sync = instr.has_role("sync")
    index = instr.index

    def handler(sm, warp, dop, exec_mask, n_exec, now):
        values = warp.regs.values
        active_addrs = (values[base_name] + offset)[exec_mask]
        if n_exec:
            values[dst_name][exec_mask] = (
                sm.memory.read(active_addrs).astype(np.int32)
            )
        if sm.san is not None:
            sm.san.note_load(
                sm.sm_id, warp.cta_id, warp.warp_in_cta,
                np.nonzero(exec_mask)[0], active_addrs, index, now,
            )
        completion = sm.memsys.load(sm.sm_id, active_addrs, now,
                                    bypass_l1=bypass, sync=sync)
        _retire(warp, dst_key, completion)

    return handler


def _make_store_handler(instr, warp_size, params):
    mem_op = instr.dst
    base_name = mem_op.base.name
    offset = np.int64(mem_op.offset)
    read_src = _make_reader(instr.srcs[0], warp_size, params)
    sync = instr.has_role("sync")
    lock_release = instr.has_role("lock_release")
    index = instr.index

    def handler(sm, warp, dop, exec_mask, n_exec, now):
        active_addrs = (warp.regs.values[base_name] + offset)[exec_mask]
        if n_exec:
            sm.memory.write(active_addrs, read_src(warp)[exec_mask])
        if sm.san is not None:
            sm.san.note_store(
                sm.sm_id, warp.cta_id, warp.warp_in_cta,
                np.nonzero(exec_mask)[0], active_addrs, index, now,
                release=lock_release,
            )
        completion = sm.memsys.store(sm.sm_id, active_addrs, now, sync=sync)
        if completion > warp.last_store_completion:
            warp.last_store_completion = completion
        if lock_release:
            lock_table = sm.lock_table
            for addr in active_addrs.tolist():
                lock_table.pop(addr, None)
        warp.stack.advance()

    return handler


#: One lane's 32-bit wrap on a Python int — what the int32 cast does to
#: a whole vector.
_I32_BIAS = 1 << 31
_U32_MASK = 0xFFFFFFFF


def _lane_ints(operand, warp_size, params):
    """An atomic's value operand as ``(ints, reader)``: an ``Imm`` or
    ``Param`` is its lanes' Python ints, fixed at decode time (every
    shipped lock is ``atom.cas [lock], 0, 1``), with no reader; any
    other operand is read per issue and converted with one ``tolist()``.
    """
    if isinstance(operand, (Imm, Param)):
        value = (operand.value if isinstance(operand, Imm)
                 else params[operand.name])
        return [int(value)] * warp_size, None
    return None, _make_reader(operand, warp_size, params)


def _make_atomic_handler(instr, warp_size, params):
    mem_op = instr.srcs[0]
    base_name = mem_op.base.name
    offset = int(mem_op.offset)
    op = instr.opcode
    is_cas = op is Opcode.ATOM_CAS
    # ``first``: the operand of exch/add/min/max, the compare value of
    # cas; ``second``: the value a successful cas stores.
    first_ints, read_first = _lane_ints(instr.srcs[1], warp_size, params)
    second_ints, read_second = (
        _lane_ints(instr.srcs[2], warp_size, params) if is_cas
        else (None, None)
    )
    is_lock_try = instr.has_role("lock_try")
    lock_release = instr.has_role("lock_release")
    lock_try = is_cas and is_lock_try  # a lock attempt per lane
    sync = instr.has_role("sync") or is_lock_try
    index = instr.index
    dst_name = instr.dst.name if instr.dst is not None else None
    dst_key = instr.dst_key

    def handler(sm, warp, dop, exec_mask, n_exec, now):
        # One pass over the lanes, in lane order, on plain Python ints:
        # a per-lane ``int(vector[lane])`` costs more than a whole
        # ``tolist()``, and a vector add more than the active lanes'
        # int adds.  The lists are snapshots, so the destination
        # register may be the base or an operand register.
        values = warp.regs.values
        lanes = exec_mask.nonzero()[0].tolist()
        base = values[base_name].tolist()
        active_addrs = [base[lane] + offset for lane in lanes]
        first = first_ints if read_first is None else read_first(warp).tolist()
        second = (
            second_ints if read_second is None
            else read_second(warp).tolist()
        )
        dst = values[dst_name] if dst_name is not None else None
        magic = sm.config.magic_locks and is_lock_try
        memory = sm.memory
        words = memory.words
        read_word = words.item
        n_words = words.size
        write_hook = memory.write_hook
        lock_table = sm.lock_table
        san = sm.san
        if lock_try:
            # One lane's lock attempt: the lock table moves per lane,
            # the counters are committed once after the pass.
            warp_key = (warp.cta_id, warp.warp_in_cta)
            emit_ok = sm._emit_lock_ok
            emit_fail = sm._emit_lock_fail
            n_ok = n_intra = n_inter = 0
            fail_addr = warp.lock_fail_addr
        for lane, addr in zip(lanes, active_addrs):
            # GlobalMemory.read_word, inline (its bounds check too: a
            # negative index would wrap to the end of memory).
            word = addr // WORD_BYTES
            if not 0 <= word < n_words:
                raise IndexError(OUT_OF_BOUNDS)
            old = read_word(word)
            new = None
            if is_cas:
                compare = first[lane]
                if magic:
                    # Ideal-blocking proxy: every acquire succeeds at
                    # once and the lock is never observed held.
                    old = compare
                elif old == compare:
                    new = second[lane]
            elif op is Opcode.ATOM_EXCH:
                new = first[lane]
            elif op is Opcode.ATOM_ADD:
                new = old + first[lane]
            elif op is Opcode.ATOM_MIN:
                new = min(old, first[lane])
            elif op is Opcode.ATOM_MAX:
                new = max(old, first[lane])
            else:  # pragma: no cover - enum is exhaustive
                raise ValueError(f"unhandled atomic {op}")
            if new is not None:
                # GlobalMemory.write_word, inline.
                words[word] = new
                memory.version += 1
                if write_hook is not None:
                    write_hook(1)
            if dst is not None:
                dst[lane] = ((old + _I32_BIAS) & _U32_MASK) - _I32_BIAS

            if lock_try:
                if old == compare:
                    n_ok += 1
                    lock_table[addr] = (warp_key, lane)
                    fail_addr = None
                    if emit_ok is not None:
                        emit_ok(cycle=now, sm_id=sm.sm_id,
                                warp_slot=warp.warp_slot, addr=addr,
                                lane=lane)
                else:
                    holder = lock_table.get(addr)
                    if holder is not None and holder[0] == warp_key:
                        n_intra += 1
                        conflict = "intra"
                    else:
                        n_inter += 1
                        conflict = "inter"
                    # Hang forensics: the lock this warp is stuck on.
                    fail_addr = addr
                    if emit_fail is not None:
                        emit_fail(cycle=now, sm_id=sm.sm_id,
                                  warp_slot=warp.warp_slot, addr=addr,
                                  lane=lane, conflict=conflict)
            if lock_release:
                lock_table.pop(addr, None)
            if san is not None:
                # magic mode already forced ``old = compare`` above, so
                # the CAS-success test below covers it too.
                cas_hit = is_cas and old == compare
                san.note_atomic(
                    sm.sm_id, warp.cta_id, warp.warp_in_cta, lane,
                    addr, index, now,
                    lock_try=is_lock_try,
                    success=is_lock_try and (cas_hit or not is_cas),
                    release=lock_release,
                    wrote=not is_cas or (cas_hit and not magic),
                )

        if lock_try:
            locks = sm.stats.locks
            locks.lock_success += n_ok
            locks.intra_warp_fail += n_intra
            locks.inter_warp_fail += n_inter
            warp.lock_fails += n_intra + n_inter
            warp.lock_fail_addr = fail_addr
        completion = sm.memsys.atomic(sm.sm_id, active_addrs, now, sync=sync)
        sm.stats.atomic_warp_instructions += 1
        if dst is None:
            warp.stack.advance()
        else:
            _retire(warp, dst_key, completion)

    return handler


def _decode_one(decoded: "DecodedProgram", instr, warp_size: int,
                params: Dict[str, int], alu_latency: int, sfu_latency: int,
                static_sibs) -> DecodedOp:
    program = decoded.program
    op = instr.opcode
    if op is Opcode.BRA:
        handler = _make_branch_handler(instr, program)
    elif op is Opcode.EXIT:
        handler = _make_exit_handler(instr)
    elif op is Opcode.SETP:
        handler = _make_setp_handler(instr, warp_size, params, alu_latency)
    elif op is Opcode.BAR_SYNC:
        handler = _bar_handler
    elif op is Opcode.MEMBAR:
        handler = _membar_handler
    elif op is Opcode.CLOCK:
        handler = _make_clock_handler(instr, warp_size, alu_latency)
    elif op is Opcode.LD_PARAM:
        handler = _make_ld_param_handler(instr, warp_size, params,
                                         alu_latency)
    elif op in (Opcode.LD_GLOBAL, Opcode.LD_GLOBAL_CG):
        handler = _make_load_handler(instr)
    elif op is Opcode.ST_GLOBAL:
        handler = _make_store_handler(instr, warp_size, params)
    elif instr.is_atomic:
        handler = _make_atomic_handler(instr, warp_size, params)
    elif op is Opcode.NOP:
        handler = _nop_handler
    else:
        handler = _make_alu_handler(instr, warp_size, params, alu_latency,
                                    sfu_latency)
    return DecodedOp(
        decoded, instr, handler,
        static_sib=instr.index in static_sibs,
    )


class DecodedProgram:
    """A program decoded once for one (machine, params) combination.

    ``key`` is everything decoding bakes in — ``(warp_size, alu_latency,
    sfu_latency, sorted params items)`` — so the object pickles as "the
    decoding of ``program`` under ``key``": a checkpoint carries no
    closure, and every SM restored from it shares one decoding again.
    """

    __slots__ = ("program", "key", "ops")

    def __init__(self, program: Program, key: tuple) -> None:
        self.program = program
        self.key = key
        warp_size, alu_latency, sfu_latency, params = key
        params = dict(params)
        static_sibs = program.true_sibs()
        self.ops: List[DecodedOp] = [
            _decode_one(self, instr, warp_size, params, alu_latency,
                        sfu_latency, static_sibs)
            for instr in program.instructions
        ]

    def __reduce__(self):
        return _decoding, (self.program, self.key)


def _decoding(program: Program, key: tuple) -> DecodedProgram:
    """The decoding of ``program`` under ``key``, cached on the program."""
    cache = program.__dict__.setdefault("_decoded_cache", {})
    decoded = cache.get(key)
    if decoded is None:
        decoded = cache[key] = DecodedProgram(program, key)
    return decoded


def decode_program(program: Program, config: GPUConfig,
                   params: Dict[str, int]) -> DecodedProgram:
    """Decode ``program`` once per (machine, params); cached on the program.

    The cache key covers everything decoding bakes in: warp size, ALU/SFU
    latencies, and the kernel parameters (``ld.param`` values are resolved
    to constant lane vectors at decode time).
    """
    return _decoding(program, (
        config.warp_size, config.alu_latency, config.sfu_latency,
        tuple(sorted(params.items())),
    ))
