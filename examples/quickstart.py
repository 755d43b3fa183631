#!/usr/bin/env python
"""Quickstart: run a spin-lock workload with and without BOWS.

Builds the paper's hashtable-insertion kernel (Figure 1a), runs it on
the scaled GTX480-shaped simulator under plain GTO scheduling and under
GTO + BOWS (with DDOS detecting the spin loop at runtime), validates
the hashtable both times, and reports the speedup.

Building a workload is cheap — the simulation below is what takes the
time.  The kernel ships with its spin-loop ground truth annotated:

>>> from repro import build_workload
>>> workload = build_workload("ht", n_threads=64, n_buckets=8,
...                           items_per_thread=1, block_dim=64)
>>> sorted(workload.launch.program.true_sibs())
[33]

Run:  python examples/quickstart.py
"""

from repro import GPUConfig, build_workload, simulate


def main() -> None:
    params = dict(
        n_threads=1024, n_buckets=16, items_per_thread=2, block_dim=256
    )

    print("Simulating hashtable insertion "
          "(1024 threads x 2 keys, 16 buckets; ~15s)...")
    baseline = simulate(build_workload("ht", **params),
                        config=GPUConfig.preset("fermi"))
    bows = simulate(build_workload("ht", **params),
                    config=GPUConfig.preset("fermi", bows=True))

    base_stats = baseline.stats
    bows_stats = bows.stats
    print(f"\n{'':28s}{'GTO':>12s}{'GTO+BOWS':>12s}")
    rows = [
        ("cycles", baseline.cycles, bows.cycles),
        ("warp instructions", base_stats.warp_instructions,
         bows_stats.warp_instructions),
        ("failed lock acquires",
         base_stats.locks.inter_warp_fail + base_stats.locks.intra_warp_fail,
         bows_stats.locks.inter_warp_fail + bows_stats.locks.intra_warp_fail),
        ("memory transactions", base_stats.memory.total_transactions,
         bows_stats.memory.total_transactions),
        ("dynamic energy (uJ)",
         round(base_stats.dynamic_energy_pj / 1e6, 2),
         round(bows_stats.dynamic_energy_pj / 1e6, 2)),
    ]
    for label, a, b in rows:
        print(f"{label:28s}{a:>12}{b:>12}")

    true_sibs = bows.launch.program.true_sibs()
    detected = bows.predicted_sibs()
    print(f"\nDDOS detected spin-inducing branches: {sorted(detected)}")
    print(f"Ground-truth spin-inducing branches:  {sorted(true_sibs)}")

    speedup = baseline.cycles / bows.cycles
    energy = base_stats.dynamic_energy_pj / bows_stats.dynamic_energy_pj
    print(f"\nBOWS speedup: {speedup:.2f}x   energy saving: {energy:.2f}x")
    print("(both runs validated: every insertion survived, so mutual")
    print(" exclusion held under both schedulers)")


if __name__ == "__main__":
    main()
