#!/usr/bin/env python
"""Mini Figure 9: every synchronization kernel x every scheduler ± BOWS.

Runs the paper's eight busy-wait kernels (at reduced scale so the whole
sweep finishes in about a minute) under LRR, GTO, and CAWA, each with
and without BOWS, and prints execution time normalized to LRR — the
shape of the paper's Figure 9a.

Run:  python examples/scheduler_comparison.py
"""

from repro import GPUConfig, build_workload, simulate
from repro.harness.params import KERNEL_ORDER, sync_params
from repro.harness.reporting import geomean, print_table

SCHEMES = [
    ("lrr", None), ("lrr", True),
    ("gto", None), ("gto", True),
    ("cawa", None), ("cawa", True),
]


def main() -> None:
    params = sync_params("quick")
    rows = []
    speedups = []
    for kernel in KERNEL_ORDER:
        row = {"kernel": kernel}
        lrr_cycles = None
        cycles_by_scheme = {}
        for sched, bows in SCHEMES:
            label = f"{sched}+bows" if bows else sched
            result = simulate(build_workload(kernel, **params[kernel]),
                              config=GPUConfig.preset(
                                  "fermi", scheduler=sched, bows=bows))
            cycles_by_scheme[label] = result.cycles
            if lrr_cycles is None:
                lrr_cycles = result.cycles
            row[label] = round(result.cycles / lrr_cycles, 3)
        speedups.append(
            cycles_by_scheme["gto"] / cycles_by_scheme["gto+bows"]
        )
        rows.append(row)
        print(f"  {kernel}: done")

    print()
    print_table(rows, title="Execution time normalized to LRR "
                            "(lower is better)")
    print(f"gmean BOWS speedup over GTO: {geomean(speedups):.2f}x")
    print("(paper, full scale: 1.4x over GTO)")


if __name__ == "__main__":
    main()
