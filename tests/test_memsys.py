"""Global memory and the L1/L2/DRAM timing model."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.memory.coalescer import coalesce
from repro.memory.memsys import GlobalMemory, MemorySubsystem
from repro.sim.config import fermi_config

# ------------------------------------------------------------- coalescer


def test_coalesce_same_line():
    addrs = np.array([0, 4, 8, 124])
    assert coalesce(addrs, 128) == [0]


def test_coalesce_distinct_lines():
    addrs = np.array([0, 128, 256])
    assert coalesce(addrs, 128) == [0, 128, 256]


def test_coalesce_empty():
    assert coalesce(np.array([], dtype=np.int64), 128) == []


@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=64))
def test_coalesce_covers_all_addresses(addr_list):
    addrs = np.array(addr_list, dtype=np.int64)
    lines = coalesce(addrs, 128)
    assert len(lines) == len(set(a // 128 for a in addr_list))
    for addr in addr_list:
        assert addr // 128 * 128 in lines
    assert lines == sorted(lines)


# --------------------------------------------------------- global memory


def test_alloc_returns_byte_addresses():
    mem = GlobalMemory(1024)
    a = mem.alloc(10)
    b = mem.alloc(10)
    assert a % 4 == 0 and b % 4 == 0
    assert b >= a + 40  # no overlap


def test_alloc_alignment():
    mem = GlobalMemory(1024)
    mem.alloc(3)
    b = mem.alloc(4, align_words=32)
    assert (b // 4) % 32 == 0


def test_alloc_exhaustion():
    mem = GlobalMemory(64)
    with pytest.raises(MemoryError):
        mem.alloc(100)


def test_read_write_roundtrip():
    mem = GlobalMemory(256)
    base = mem.alloc(8)
    addrs = base + 4 * np.arange(8)
    values = np.arange(8) * 3
    mem.write(addrs, values)
    assert (mem.read(addrs) == values).all()


def test_out_of_bounds_rejected():
    mem = GlobalMemory(16)
    with pytest.raises(IndexError):
        mem.read(np.array([16 * 4]))
    with pytest.raises(IndexError):
        mem.write(np.array([-4]), np.array([1]))


def test_scalar_helpers():
    mem = GlobalMemory(64)
    mem.write_word(8, 42)
    assert mem.read_word(8) == 42
    mem.store_array(16, [1, 2, 3])
    assert mem.load_array(16, 3).tolist() == [1, 2, 3]


@pytest.mark.parametrize("byte_addr", [-4, -1, 16 * 4])
def test_scalar_helpers_reject_what_the_vector_path_rejects(byte_addr):
    """A negative word index must not wrap to the end of memory."""
    mem = GlobalMemory(16)
    mem.write_word(15 * 4, 7)
    with pytest.raises(IndexError, match="out of bounds"):
        mem.read_word(byte_addr)
    with pytest.raises(IndexError, match="out of bounds"):
        mem.write_word(byte_addr, 1)
    assert mem.read_word(15 * 4) == 7
    assert mem.version == 1  # the rejected writes wrote nothing


@pytest.mark.parametrize("byte_addr, n_words", [
    (-8, 2), (-4, 4), (250, 4), (60 * 4, 8), (64 * 4, 1), (0, 65),
], ids=["negative", "straddling-start", "straddling-end-unaligned",
        "straddling-end", "past-the-end", "longer-than-memory"])
def test_array_helpers_reject_ranges_outside_memory(byte_addr, n_words):
    """A slice clips a range that leaves memory and counts a negative
    start from the end, so ``load_array`` used to return fewer (or no)
    words and ``store_array`` to fail with a bare NumPy error."""
    mem = GlobalMemory(64)
    mem.store_array(0, range(64))
    with pytest.raises(IndexError, match="out of bounds"):
        mem.load_array(byte_addr, n_words)
    with pytest.raises(IndexError, match="out of bounds"):
        mem.store_array(byte_addr, [-1] * n_words)
    assert mem.words.tolist() == list(range(64))
    assert mem.version == 1  # the rejected store wrote nothing


def test_array_helpers_reach_both_ends_of_memory():
    mem = GlobalMemory(64)
    mem.store_array(60 * 4, [1, 2, 3, 4])
    assert mem.load_array(60 * 4, 4).tolist() == [1, 2, 3, 4]
    assert mem.load_array(0, 64).size == 64
    assert mem.load_array(64 * 4, 0).size == 0


# ------------------------------------------------------------ timing model


@pytest.fixture
def memsys():
    return MemorySubsystem(fermi_config(num_sms=2))


def test_load_miss_then_hit_is_faster(memsys):
    config = memsys.config
    addrs = np.array([0, 4, 8])
    miss = memsys.load(0, addrs, now=0)
    hit = memsys.load(0, addrs, now=miss)
    assert miss > config.l1_hit_latency
    assert hit - miss == config.l1_hit_latency


def test_load_counts_one_transaction_per_line(memsys):
    addrs = np.array([0, 4, 128, 256])
    memsys.load(0, addrs, now=0)
    assert memsys.stats.load_transactions == 3


def test_bypass_l1_never_fills(memsys):
    addrs = np.array([0])
    memsys.load(0, addrs, now=0, bypass_l1=True)
    assert memsys.stats.l1_hits == 0
    assert memsys.stats.l1_misses == 0
    assert not memsys.l1[0].probe(0)


def test_l1_caches_are_per_sm(memsys):
    addrs = np.array([0])
    memsys.load(0, addrs, now=0)
    assert memsys.l1[0].probe(0)
    assert not memsys.l1[1].probe(0)


def test_store_write_through_evicts_local_line(memsys):
    addrs = np.array([0])
    memsys.load(0, addrs, now=0)
    assert memsys.l1[0].probe(0)
    memsys.store(0, addrs, now=100)
    assert not memsys.l1[0].probe(0)
    assert memsys.stats.store_transactions == 1


def test_store_leaves_remote_l1_stale(memsys):
    """Fermi-faithful: no coherence traffic to other SMs' L1s."""
    addrs = np.array([0])
    memsys.load(1, addrs, now=0)
    memsys.store(0, addrs, now=100)
    assert memsys.l1[1].probe(0)  # stale line still resident remotely


def test_atomics_bypass_and_invalidate_l1(memsys):
    memsys.load(0, np.array([0]), now=0)
    memsys.atomic(0, [0], now=100)
    assert not memsys.l1[0].probe(0)
    assert memsys.stats.atomic_transactions == 1


def test_atomic_dedupes_same_address_lanes(memsys):
    memsys.atomic(0, [0, 0, 0, 4], now=0)
    assert memsys.stats.atomic_transactions == 2  # two unique addresses


@pytest.mark.parametrize("jitter", [0, 7], ids=["steady", "jittered"])
def test_atomic_is_one_l2_visit_per_unique_address(jitter):
    """``atomic`` runs ``_l2_latency``'s steps inline: per unique
    address in ascending order, the same bank queueing, jitter draw, L2
    lookup and DRAM queueing, then the atomic unit's latency, and one
    invalidation per L1 line.  A twin takes the same steps through
    ``_l2_latency`` itself and must land in the same state.  (Both
    service intervals are equal here so ``_l2_latency`` can stand in;
    ``test_atomics_serialize_at_the_bank`` pins the atomic one.)"""
    import dataclasses

    from repro.sim.config import PerturbConfig

    config = fermi_config(num_sms=2)
    config = dataclasses.replace(
        config, l2_service_interval=config.atomic_service_interval,
        perturb=PerturbConfig(seed=3, mem_jitter_cycles=jitter)
        if jitter else None)
    addrs = [256, 0, 4, 0, 4096, 256, 132, 1 << 20]
    lines = (0, 128, 256, 4096, 1 << 20)
    outcomes = []
    for inline in (True, False):
        memsys = MemorySubsystem(config)
        memsys.load(0, np.array(lines[:4]), now=0)  # L1 lines to evict
        memsys.atomic(0, [4096], now=10)  # an L2 hit among the misses
        if inline:
            completion = memsys.atomic(0, addrs, now=50)
        else:
            completion = max(
                memsys._l2_latency(addr // 128 * 128, 50)
                + config.atomic_latency
                for addr in sorted(set(addrs))
            )
            for line in lines:
                memsys.l1[0].invalidate(line)
            memsys.stats.atomic_transactions += 6
            memsys.stats.sync_transactions += 6
        outcomes.append((
            completion, vars(memsys.stats),
            [memsys.l1[0].probe(line) for line in lines],
            [memsys.l2.probe(line) for line in lines],
            list(memsys._bank_free), memsys._dram_free,
            memsys._jitter_rng.random() if jitter else None,
        ))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1]["l2_hits"] and outcomes[0][1]["dram_accesses"]


def test_atomics_serialize_at_the_bank(memsys):
    """Back-to-back atomics to one (L2-resident) line queue up."""
    memsys.atomic(0, [0], now=0)  # warm the L2 line
    first = memsys.atomic(0, [0], now=1000)
    second = memsys.atomic(0, [0], now=1000)
    assert second == first + memsys.config.atomic_service_interval


def test_atomic_storm_delays_loads_on_same_bank(memsys):
    """The paper's spin-traffic effect: CAS storms slow the CS's loads."""
    line = 0
    quiet = memsys.load(0, np.array([line]), now=0, bypass_l1=True)
    for _ in range(50):
        memsys.atomic(0, [line], now=0)
    busy = memsys.load(0, np.array([line]), now=0, bypass_l1=True)
    assert busy > quiet * 2


def test_sync_vs_other_classification(memsys):
    memsys.load(0, np.array([0]), now=0, sync=True)
    memsys.load(0, np.array([256]), now=0, sync=False)
    assert memsys.stats.sync_transactions == 1
    assert memsys.stats.other_transactions == 1


@given(st.lists(st.integers(0, 63), min_size=1, max_size=30))
def test_completion_never_in_the_past(line_indices):
    memsys = MemorySubsystem(fermi_config(num_sms=1))
    now = 0
    for index in line_indices:
        assert memsys.load(0, np.array([index * 128]), now=now) > now
        now += 1


def test_stats_totals():
    memsys = MemorySubsystem(fermi_config(num_sms=1))
    memsys.load(0, np.array([0]), now=0)
    memsys.store(0, np.array([128]), now=0)
    memsys.atomic(0, [256], now=0)
    assert memsys.stats.total_transactions == 3
