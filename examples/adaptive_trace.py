#!/usr/bin/env python
"""Watch the adaptive back-off delay limit find each kernel's sweet spot.

Runs two contrasting kernels under GTO + BOWS (adaptive) and prints the
per-SM delay-limit trajectory as an ASCII sparkline:

* **ht** — spin-bound: removing spin retries speeds up real work, so
  the controller climbs to a large delay;
* **st** — a merged wait/work loop whose closing branch is the SIB even
  on productive iterations: any throttle gates real work, so the
  controller stays near zero.

This is the per-kernel adaptation of the paper's Figure 10 ("adaptive
tracks the sweet spot") made visible.

Run:  python examples/adaptive_trace.py
"""

from repro import GPUConfig, build_workload, simulate

CASES = {
    "ht": dict(n_threads=1024, n_buckets=16, items_per_thread=2,
               block_dim=256),
    "st": dict(n_threads=256, n_cells=2048, cell_work=8, block_dim=128),
}

BARS = " .:-=+*#%@"


def sparkline(values, width=60):
    if not values:
        return "(no windows observed)"
    step = max(len(values) // width, 1)
    sampled = values[::step][:width]
    top = max(max(sampled), 1)
    return "".join(
        BARS[min(int(v / top * (len(BARS) - 1)), len(BARS) - 1)]
        for v in sampled
    ), top


def main() -> None:
    for kernel, params in CASES.items():
        baseline = simulate(build_workload(kernel, **params),
                            config=GPUConfig.preset("fermi"))
        result = simulate(build_workload(kernel, **params),
                          config=GPUConfig.preset("fermi", bows=True))
        print(f"\n== {kernel}: {baseline.cycles} -> {result.cycles} cycles "
              f"({baseline.cycles / result.cycles:.2f}x)")
        for sm in result.sms:
            controller = sm.bows.controller
            if controller is None or not controller.history:
                continue
            line, top = sparkline(controller.history)
            print(f"  SM{sm.sm_id} delay limit over time "
                  f"(peak {top} cycles, {len(controller.history)} windows)")
            print(f"  |{line}|")

    print("\nReading: the hashtable's trajectory climbs and stays high")
    print("(throttling spin pays); the sort kernel's hugs zero (any")
    print("throttle delays productive iterations).")


if __name__ == "__main__":
    main()
