"""End-to-end instruction semantics: assembled snippets on the full GPU.

Each test runs a tiny kernel and checks the memory image it leaves —
covering every opcode, predication, divergence/reconvergence, barriers,
fences, clocks, and special registers as executed by the pipeline (not
just the ALU helpers).
"""

import numpy as np
import pytest

from conftest import run_program
from repro.memory.memsys import GlobalMemory


def out_buffer(memory: GlobalMemory, words: int) -> int:
    return memory.alloc(words)


def store_per_thread(body: str) -> str:
    """Wrap ``body`` (which must set %r_out) with a per-thread store."""
    return f"""
        ld.param %r_base, [out]
{body}
        shl %r_a, %gtid, 2
        add %r_a, %r_base, %r_a
        st.global [%r_a], %r_out
        exit
    """


def run_per_thread(tiny_config, body: str, *, block_dim=32, grid_dim=1,
                   extra_params=None, memory=None):
    if memory is None:
        memory = GlobalMemory(1 << 16)
    out = memory.alloc(grid_dim * block_dim)
    params = {"out": out}
    params.update(extra_params or {})
    result, memory = run_program(
        store_per_thread(body), tiny_config,
        grid_dim=grid_dim, block_dim=block_dim, params=params,
        memory=memory,
    )
    return memory.load_array(out, grid_dim * block_dim), result


def test_mov_immediate(tiny_config):
    values, _ = run_per_thread(tiny_config, "    mov %r_out, 7")
    assert (values == 7).all()


def test_special_registers(tiny_config):
    values, _ = run_per_thread(
        tiny_config, "    mov %r_out, %tid", block_dim=32, grid_dim=2
    )
    assert values.tolist() == list(range(32)) * 2


def test_gtid_spans_ctas(tiny_config):
    values, _ = run_per_thread(
        tiny_config, "    mov %r_out, %gtid", block_dim=32, grid_dim=2
    )
    assert values.tolist() == list(range(64))


def test_laneid_and_ntid(tiny_config):
    values, _ = run_per_thread(
        tiny_config,
        """
        mov %r_a1, %laneid
        mul %r_out, %r_a1, 100
        add %r_out, %r_out, %ntid
        """,
        block_dim=32,
    )
    assert values.tolist() == [lane * 100 + 32 for lane in range(32)]


def test_arithmetic_chain(tiny_config):
    values, _ = run_per_thread(
        tiny_config,
        """
        mov %r_x, %gtid
        mad %r_x, %r_x, 3, 5
        shl %r_x, %r_x, 1
        sub %r_out, %r_x, 4
        """,
    )
    expected = [((g * 3 + 5) << 1) - 4 for g in range(32)]
    assert values.tolist() == expected


def test_selp(tiny_config):
    values, _ = run_per_thread(
        tiny_config,
        """
        and %r_lsb, %gtid, 1
        setp.eq %p1, %r_lsb, 0
        selp %r_out, 100, 200, %p1
        """,
    )
    expected = [100 if g % 2 == 0 else 200 for g in range(32)]
    assert values.tolist() == expected


def test_guarded_instruction(tiny_config):
    values, _ = run_per_thread(
        tiny_config,
        """
        mov %r_out, 1
        setp.lt %p1, %gtid, 10
        @%p1 mov %r_out, 2
        """,
    )
    expected = [2 if g < 10 else 1 for g in range(32)]
    assert values.tolist() == expected


def test_negated_guard(tiny_config):
    values, _ = run_per_thread(
        tiny_config,
        """
        mov %r_out, 1
        setp.lt %p1, %gtid, 10
        @!%p1 mov %r_out, 3
        """,
    )
    expected = [1 if g < 10 else 3 for g in range(32)]
    assert values.tolist() == expected


def test_if_else_divergence(tiny_config):
    values, _ = run_per_thread(
        tiny_config,
        """
        setp.lt %p1, %gtid, 16
        @%p1 bra THEN
        mov %r_out, 200
        bra JOIN
    THEN:
        mov %r_out, 100
    JOIN:
        add %r_out, %r_out, 1
        """,
    )
    expected = [101 if g < 16 else 201 for g in range(32)]
    assert values.tolist() == expected


def test_divergent_loop_trip_counts(tiny_config):
    """Each lane loops a different number of times."""
    values, _ = run_per_thread(
        tiny_config,
        """
        mov %r_out, 0
        and %r_n, %gtid, 7
    LOOP:
        add %r_out, %r_out, 1
        setp.lt %p1, %r_out, %r_n
        @%p1 bra LOOP
        """,
    )
    expected = [max(g % 8, 1) for g in range(32)]
    assert values.tolist() == expected


def test_nested_divergence(tiny_config):
    values, _ = run_per_thread(
        tiny_config,
        """
        and %r_b0, %gtid, 1
        and %r_b1, %gtid, 2
        setp.eq %p1, %r_b0, 0
        @%p1 bra A
        mov %r_out, 10
        bra J1
    A:
        setp.eq %p2, %r_b1, 0
        @%p2 bra B
        mov %r_out, 20
        bra J2
    B:
        mov %r_out, 30
    J2:
        add %r_out, %r_out, 1
    J1:
        add %r_out, %r_out, 100
        """,
    )
    def model(g):
        if g & 1:
            return 10 + 100
        if g & 2:
            return 20 + 1 + 100
        return 30 + 1 + 100
    assert values.tolist() == [model(g) for g in range(32)]


def test_loads_and_stores(tiny_config):
    memory = GlobalMemory(1 << 16)
    data = memory.alloc(32)
    memory.store_array(data, list(range(0, 64, 2)))
    values, _ = run_per_thread(
        tiny_config,
        """
        ld.param %r_d, [data]
        shl %r_a2, %gtid, 2
        add %r_a2, %r_d, %r_a2
        ld.global %r_v, [%r_a2]
        add %r_out, %r_v, 1000
        """,
        extra_params={"data": data},
        memory=memory,
    )
    assert values.tolist() == [v + 1000 for v in range(0, 64, 2)]


def test_load_with_offset(tiny_config):
    memory = GlobalMemory(1 << 16)
    data = memory.alloc(40)
    memory.store_array(data, list(range(40)))
    values, _ = run_per_thread(
        tiny_config,
        """
        ld.param %r_d, [data]
        shl %r_a2, %gtid, 2
        add %r_a2, %r_d, %r_a2
        ld.global %r_out, [%r_a2+8]
        """,
        extra_params={"data": data},
        memory=memory,
    )
    assert values.tolist() == list(range(2, 34))


def test_ld_global_cg(tiny_config):
    memory = GlobalMemory(1 << 16)
    data = memory.alloc(32)
    memory.store_array(data, [5] * 32)
    values, result = run_per_thread(
        tiny_config,
        """
        ld.param %r_d, [data]
        shl %r_a2, %gtid, 2
        add %r_a2, %r_d, %r_a2
        ld.global.cg %r_out, [%r_a2]
        """,
        extra_params={"data": data},
        memory=memory,
    )
    assert (values == 5).all()


def test_atom_add_accumulates(tiny_config):
    memory = GlobalMemory(1 << 16)
    counter = memory.alloc(1)
    result, memory = run_program(
        """
        ld.param %r_c, [counter]
        atom.add %r_old, [%r_c], 1
        exit
        """,
        tiny_config,
        block_dim=32, grid_dim=2,
        params={"counter": counter}, memory=memory,
    )
    assert memory.read_word(counter) == 64


# The one engine, as a parameter: these cases keep their ``fast`` ids.
@pytest.mark.parametrize("engine", ["fast"])
@pytest.mark.parametrize("addr", [-4, (1 << 10) * 4],
                         ids=["negative", "past-the-end"])
@pytest.mark.parametrize("atomic", [
    "atom.add %r_old, [%r_a], 1", "atom.cas %r_old, [%r_a], 0, 1",
], ids=["add", "cas"])
def test_atomic_outside_memory_is_rejected(tiny_config, engine, addr, atomic):
    """An atomic on a negative address used to read and write the *last*
    word of memory; it must be refused like a load would be."""
    from repro.isa import assemble
    from repro.sim.gpu import GPU, KernelLaunch

    memory = GlobalMemory(1 << 10)
    program = assemble(f"""
        ld.param %r_a, [addr]
        {atomic}
        exit
        """, name="oob_atomic")
    gpu = GPU(tiny_config, memory=memory, engine=engine)
    with pytest.raises(IndexError, match="out of bounds"):
        gpu.launch(KernelLaunch(program, 1, 32, {"addr": addr}))
    assert not memory.words.any()
    assert memory.version == 0


def run_lock_tries(config, source, engine, *, block_dim, memory, params):
    """Run ``source`` with the obs bus and a write hook attached;
    returns the result, the CTA's warps (which outlive their retirement
    here), the hook's calls and the writes ``memory.version`` counted
    during the run."""
    from repro.isa import assemble
    from repro.sim.gpu import GPU, KernelLaunch

    hook_calls = []
    memory.write_hook = hook_calls.append
    sim = GPU(config, memory=memory, engine=engine, obs=True).begin(
        KernelLaunch(assemble(source, name="lock_tries"), 1, block_dim,
                     params))
    warps = sorted(sim.sms[0].warps.values(), key=lambda w: w.warp_in_cta)
    version = memory.version
    result = sim.run()
    return result, warps, hook_calls, memory.version - version


def lock_events(result):
    """``(warp_slot, lane, verdict)`` of every lock event, in order."""
    return [
        (e.warp_slot, e.lane, getattr(e, "conflict", "ok"))
        for e in result.obs.events()
        if e.kind in ("lock_acquire_success", "lock_acquire_fail")
    ]


# The one engine, as a parameter: these cases keep their ``fast`` ids.
@pytest.mark.parametrize("engine", ["fast"])
def test_lanes_of_two_warps_race_for_one_lock(tiny_config, engine):
    """One CAS, 64 lanes, one lock: lane order decides.  Warp 0's lane 0
    wins, its other lanes fail *intra*-warp (their own warp holds it),
    and every lane of warp 1 — issued next, by the second scheduler in
    the same cycle — fails *inter*-warp."""
    memory = GlobalMemory(1 << 10)
    lock = memory.alloc(1)
    result, warps, hook_calls, writes = run_lock_tries(
        tiny_config, """
        ld.param %r_l, [lock]
        atom.cas %r_old, [%r_l], 0, 1 !lock_try
        exit
        """, engine, block_dim=64, memory=memory, params={"lock": lock})
    locks = result.stats.locks
    assert (locks.lock_success, locks.intra_warp_fail,
            locks.inter_warp_fail) == (1, 31, 32)
    assert [(w.lock_fails, w.lock_fail_addr) for w in warps] == [
        (31, lock), (32, lock)]
    assert memory.read_word(lock) == 1
    assert writes == 1 and hook_calls == [1]
    assert [w.regs.values["r_old"].tolist() for w in warps] == [
        [0] + [1] * 31, [1] * 32]
    w0, w1 = (w.warp_slot for w in warps)
    assert lock_events(result) == (
        [(w0, 0, "ok")] + [(w0, lane, "intra") for lane in range(1, 32)]
        + [(w1, lane, "inter") for lane in range(32)])


#: Lane ``l`` tries lock ``(l + 1) // 2`` with *register* compare and
#: swap operands — compare 5 for lane 31, else 0; swap ``l + 100`` — so
#: lanes 2k-1 and 2k share lock k, and lane 31 has lock 16 alone.
REGISTER_CAS = """
    ld.param %r_l, [locks]
    add %r_k, %laneid, 1
    shr %r_k, %r_k, 1
    shl %r_k, %r_k, 2
    add %r_a, %r_l, %r_k
    setp.eq %p1, %laneid, 31
    selp %r_cmp, 5, 0, %p1
    add %r_new, %laneid, 100
    atom.cas %r_old, [%r_a], %r_cmp, %r_new !lock_try
    exit
"""


# The one engine, as a parameter: these cases keep their ``fast`` ids.
@pytest.mark.parametrize("engine", ["fast"])
def test_atom_cas_with_register_operands(tiny_config, engine):
    """No shipped kernel passes a register compare or swap, so the
    golden fixtures cannot see that path.  Lock 16 holds 5 and only
    lane 31's register compare expects it; every other lock holds 0.
    The first lane of each pair wins, its partner fails intra-warp and
    reads the value just swapped in; the last lane's verdict (a win)
    is the one ``lock_fail_addr`` keeps."""
    memory = GlobalMemory(1 << 10)
    locks = memory.alloc(17)
    memory.write_word(locks + 16 * 4, 5)
    result, (warp,), hook_calls, writes = run_lock_tries(
        tiny_config, REGISTER_CAS, engine, block_dim=32, memory=memory,
        params={"locks": locks})
    winners = [0] + list(range(1, 31, 2)) + [31]
    losers = list(range(2, 31, 2))
    stats = result.stats.locks
    assert (stats.lock_success, stats.intra_warp_fail,
            stats.inter_warp_fail) == (17, 15, 0)
    assert (warp.lock_fails, warp.lock_fail_addr) == (15, None)
    assert memory.load_array(locks, 17).tolist() == [
        lane + 100 for lane in winners]
    assert writes == 17 and hook_calls == [1] * 17
    old = warp.regs.values["r_old"].tolist()
    assert old == [5 if lane == 31 else lane + 99 if lane in losers else 0
                   for lane in range(32)]
    slot = warp.warp_slot
    assert lock_events(result) == [
        (slot, lane, "intra" if lane in losers else "ok")
        for lane in range(32)]


# The one engine, as a parameter: these cases keep their ``fast`` ids.
@pytest.mark.parametrize("engine", ["fast"])
def test_magic_locks_with_register_operands(tiny_config, engine):
    """The ideal-blocking proxy: every lane's acquire succeeds at once,
    reads back its own compare value and writes nothing."""
    import dataclasses

    memory = GlobalMemory(1 << 10)
    locks = memory.alloc(17)
    memory.write_word(locks + 16 * 4, 5)
    result, (warp,), hook_calls, writes = run_lock_tries(
        dataclasses.replace(tiny_config, magic_locks=True), REGISTER_CAS,
        engine, block_dim=32, memory=memory, params={"locks": locks})
    stats = result.stats.locks
    assert (stats.lock_success, stats.intra_warp_fail,
            stats.inter_warp_fail) == (32, 0, 0)
    assert (warp.lock_fails, warp.lock_fail_addr) == (0, None)
    assert memory.load_array(locks, 17).tolist() == [0] * 16 + [5]
    assert writes == 0 and hook_calls == []
    assert warp.regs.values["r_old"].tolist() == [0] * 31 + [5]
    assert lock_events(result) == [
        (warp.warp_slot, lane, "ok") for lane in range(32)]


def test_atom_cas_only_one_winner_per_address(tiny_config):
    memory = GlobalMemory(1 << 16)
    flag = memory.alloc(1)
    wins = memory.alloc(1)
    result, memory = run_program(
        """
        ld.param %r_f, [flag]
        ld.param %r_w, [wins]
        atom.cas %r_old, [%r_f], 0, 1
        setp.eq %p1, %r_old, 0
        @!%p1 bra DONE
        atom.add %r_ig, [%r_w], 1
    DONE:
        exit
        """,
        tiny_config,
        block_dim=32, grid_dim=1,
        params={"flag": flag, "wins": wins}, memory=memory,
    )
    assert memory.read_word(wins) == 1
    assert memory.read_word(flag) == 1


def test_atom_exch_returns_old(tiny_config):
    memory = GlobalMemory(1 << 16)
    slot = memory.alloc(1)
    memory.write_word(slot, 99)
    values, _ = run_per_thread(
        tiny_config,
        """
        ld.param %r_s, [slot]
        setp.eq %p1, %laneid, 0
        mov %r_out, -1
        @%p1 atom.exch %r_out, [%r_s], 7
        """,
        block_dim=32, extra_params={"slot": slot}, memory=memory,
    )
    assert values[0] == 99
    assert (values[1:] == -1).all()
    assert memory.read_word(slot) == 7


def test_atom_min_max(tiny_config):
    memory = GlobalMemory(1 << 16)
    lo = memory.alloc(1)
    hi = memory.alloc(1)
    memory.write_word(lo, 1 << 20)
    memory.write_word(hi, -(1 << 20))
    result, memory = run_program(
        """
        ld.param %r_lo, [lo]
        ld.param %r_hi, [hi]
        atom.min %r_a, [%r_lo], %gtid
        atom.max %r_b, [%r_hi], %gtid
        exit
        """,
        tiny_config,
        block_dim=32, grid_dim=2,
        params={"lo": lo, "hi": hi}, memory=memory,
    )
    assert memory.read_word(lo) == 0
    assert memory.read_word(hi) == 63


def test_barrier_orders_phases(tiny_config):
    """Warp 1 reads what warp 0 wrote before the barrier."""
    memory = GlobalMemory(1 << 16)
    stage = memory.alloc(64)
    out = memory.alloc(64)
    result, memory = run_program(
        """
        ld.param %r_stage, [stage]
        ld.param %r_out, [out]
        // phase 1: every thread writes tid*2 to stage[tid]
        shl %r_a, %tid, 2
        add %r_w, %r_stage, %r_a
        mul %r_v, %tid, 2
        st.global [%r_w], %r_v
        bar.sync
        // phase 2: read the *other* warp's slot
        xor %r_peer, %tid, 32
        shl %r_pa, %r_peer, 2
        add %r_pr, %r_stage, %r_pa
        ld.global.cg %r_pv, [%r_pr]
        add %r_oa, %r_out, %r_a
        st.global [%r_oa], %r_pv
        exit
        """,
        tiny_config,
        block_dim=64, grid_dim=1,
        params={"stage": stage, "out": out}, memory=memory,
    )
    got = memory.load_array(out, 64)
    expected = [((t ^ 32) * 2) for t in range(64)]
    assert got.tolist() == expected
    assert result.stats.barrier_waits == 2  # two warps hit the barrier


def test_membar_advances(tiny_config):
    values, _ = run_per_thread(
        tiny_config,
        """
        mov %r_out, 1
        membar
        add %r_out, %r_out, 1
        """,
    )
    assert (values == 2).all()


def test_clock_is_monotonic(tiny_config):
    values, _ = run_per_thread(
        tiny_config,
        """
        clock %r_t0
        clock %r_t1
        sub %r_out, %r_t1, %r_t0
        """,
    )
    assert (values > 0).all()


def test_guarded_exit_retires_lanes(tiny_config):
    values, _ = run_per_thread(
        tiny_config,
        """
        mov %r_out, 5
        shl %r_a, %gtid, 2
        ld.param %r_base2, [out]
        add %r_a, %r_base2, %r_a
        st.global [%r_a], %r_out
        setp.lt %p1, %gtid, 16
        @%p1 exit
        mov %r_out, 9
        """,
    )
    # Lanes < 16 exited before the final store wrapper ran, keeping 5;
    # the survivors overwrote theirs with 9.
    expected = [5 if g < 16 else 9 for g in range(32)]
    assert values.tolist() == expected


def test_nop_is_harmless(tiny_config):
    values, _ = run_per_thread(
        tiny_config,
        """
        mov %r_out, 3
        nop
        """,
    )
    assert (values == 3).all()


def test_partial_last_warp(tiny_config):
    """Block sizes that do not fill the last warp mask off dead lanes."""
    memory = GlobalMemory(1 << 16)
    out = memory.alloc(64)
    memory.store_array(out, [-1] * 64)
    result, memory = run_program(
        """
        ld.param %r_base, [out]
        shl %r_a, %gtid, 2
        add %r_a, %r_base, %r_a
        st.global [%r_a], %gtid
        exit
        """,
        tiny_config,
        grid_dim=1, block_dim=40,  # warp 1 has only 8 live lanes
        params={"out": out}, memory=memory,
    )
    got = memory.load_array(out, 64)
    assert got[:40].tolist() == list(range(40))
    assert (got[40:] == -1).all()


def test_multi_cta_dispatch(dual_sm_config):
    memory = GlobalMemory(1 << 18)
    n = 32 * 64
    out = memory.alloc(n)
    result, memory = run_program(
        """
        ld.param %r_base, [out]
        shl %r_a, %gtid, 2
        add %r_a, %r_base, %r_a
        st.global [%r_a], %ctaid
        exit
        """,
        dual_sm_config,
        grid_dim=64, block_dim=32,  # more CTAs than fit at once
        params={"out": out}, memory=memory,
    )
    got = memory.load_array(out, n)
    expected = np.repeat(np.arange(64), 32)
    assert (got == expected).all()


@pytest.mark.parametrize("kernel", ["ht", "st", "reduction", "nw1"])
def test_no_handler_mutates_or_outlives_its_exec_mask(kernel):
    """The issue path hands an unguarded instruction the SIMT stack's
    TOS mask itself, not a copy.  That is sound only while nobody writes
    a mask in place, so freeze every mask a handler sees — for good: a
    later in-place write by a handler, the stack, the register file or
    an observer (obs and the sanitizer are attached) raises.  The lane
    count the issue path reads beside the mask is held to the same
    standard: after every issue, every stack entry's ``n`` is its
    mask's count."""
    from repro.harness.params import QUICK_PARAMS, QUICK_SYNC_FREE
    from repro.kernels import build
    from repro.sim.config import GPUConfig
    from repro.sim.executor import DecodedOp
    from repro.sim.gpu import GPU

    aliased = 0

    def frozen(handler):
        def checked(sm, warp, dop, exec_mask, n_exec, now):
            nonlocal aliased
            aliased += exec_mask is warp.stack.frames[-1].mask
            exec_mask.flags.writeable = False
            before = exec_mask.copy()
            assert n_exec == np.count_nonzero(exec_mask), dop.instr
            handler(sm, warp, dop, exec_mask, n_exec, now)
            assert (exec_mask == before).all(), dop.instr
            for entry in warp.stack.frames:
                assert type(entry.n) is int, dop.instr
                assert entry.n == np.count_nonzero(entry.mask) > 0, dop.instr
        return checked

    params = QUICK_PARAMS.get(kernel) or QUICK_SYNC_FREE[kernel]
    workload = build(kernel, **params)
    gpu = GPU(GPUConfig.preset("fermi", bows="adaptive", ddos=True),
              memory=workload.memory, obs=True, sanitizer=True)
    sim = gpu.begin(workload.launch)
    # Decodings are shared by every run in the process and never
    # mutated, so wrap a copy private to this simulation: every SM's
    # ops and every resident warp's cached op point at it.
    ops = tuple(DecodedOp(dop.decoded, dop.instr, frozen(dop.handler),
                          dop.static_sib) for dop in sim.sms[0]._ops)
    for sm in sim.sms:
        sm._ops = ops
        for warp in sm.warps.values():
            warp._decoded = ops[warp._decoded.index]
    result = sim.run()
    workload.validate(result.memory)
    assert aliased > 0
