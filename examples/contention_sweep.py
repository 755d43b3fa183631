#!/usr/bin/env python
"""Figure 16 in miniature: BOWS's win grows with lock contention.

Sweeps the hashtable bucket count (fewer buckets = more threads
fighting per lock), comparing GTO against GTO+BOWS and against the
magic-lock instruction-count floor (the paper's ideal-blocking /
HQL proxy).

Run:  python examples/contention_sweep.py
"""

from repro import GPUConfig, build_workload, simulate
from repro.harness.reporting import print_table

PARAMS = dict(n_threads=512, items_per_thread=1, block_dim=256)
BUCKETS = (8, 16, 32, 64)


def main() -> None:
    rows = []
    for n_buckets in BUCKETS:
        params = dict(PARAMS, n_buckets=n_buckets)
        base = simulate(build_workload("ht", **params),
                        config=GPUConfig.preset("fermi"))
        bows = simulate(build_workload("ht", **params),
                        config=GPUConfig.preset("fermi", bows=True))
        # magic locks break mutual exclusion, so skip validation
        ideal = simulate(build_workload("ht", **params),
                         config=GPUConfig.preset("fermi", magic_locks=True),
                         validate=False)
        base_instr = base.stats.thread_instructions
        rows.append({
            "buckets": n_buckets,
            "threads_per_bucket": PARAMS["n_threads"] // n_buckets,
            "bows_speedup": round(base.cycles / bows.cycles, 2),
            "instr_gto": 1.0,
            "instr_bows": round(
                bows.stats.thread_instructions / base_instr, 3),
            "instr_ideal_blocking": round(
                ideal.stats.thread_instructions / base_instr, 3),
        })
        print(f"  {n_buckets} buckets: done")

    print()
    print_table(rows, title="Hashtable contention sweep (GTO baseline)")
    print("Paper's shape: speedup largest at high contention; BOWS's")
    print("instruction count approaches the ideal blocking lock as")
    print("contention falls (Figure 16).")


if __name__ == "__main__":
    main()
