"""Multiple kernel launches against one GPU / one memory image."""

from repro.kernels import build
from repro.memory.memsys import GlobalMemory
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPU


def test_sequential_launches_share_memory(tiny_config):
    """Two workloads allocated in one memory image run back to back."""
    memory = GlobalMemory(1 << 18)
    first = build("vecadd", n_threads=64, per_thread=2, block_dim=32,
                  memory=memory)
    second = build("ht", n_threads=64, n_buckets=8, items_per_thread=1,
                   block_dim=64, memory=memory)
    gpu = GPU(tiny_config, memory=memory)
    result_a = gpu.launch(first.launch)
    result_b = gpu.launch(second.launch)
    first.validate(memory)
    second.validate(memory)
    assert result_a.cycles > 0 and result_b.cycles > 0


def test_relaunching_same_program_is_idempotent_for_stats(tiny_config):
    """Each launch gets fresh SMs/stats; cycles match exactly."""
    memory = GlobalMemory(1 << 18)
    results = []
    for _ in range(2):
        workload = build("vecadd", n_threads=64, per_thread=2,
                         block_dim=32, memory=memory)
        gpu = GPU(tiny_config, memory=memory)
        results.append(gpu.launch(workload.launch))
    assert results[0].cycles == results[1].cycles
    assert (results[0].stats.warp_instructions
            == results[1].stats.warp_instructions)


def test_ddos_state_does_not_leak_across_launches():
    """A fresh launch starts with an empty SIB-PT."""
    config = GPUConfig.preset("fermi", bows=True, num_sms=1,
                              max_warps_per_sm=8)
    memory = GlobalMemory(1 << 18)
    spin = build("ht", n_threads=128, n_buckets=8, items_per_thread=1,
                 block_dim=64, memory=memory)
    gpu = GPU(config, memory=memory)
    first = gpu.launch(spin.launch)
    assert first.predicted_sibs()
    clean = build("vecadd", n_threads=64, per_thread=2, block_dim=32,
                  memory=memory)
    second = gpu.launch(clean.launch)
    assert second.predicted_sibs() == set()
