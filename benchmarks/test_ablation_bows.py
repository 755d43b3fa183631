"""Ablations of the design choices DESIGN.md calls out.

Not paper artifacts — these isolate the contribution of each mechanism:

* **deprioritization vs throttling**: BOWS(0) keeps only the backed-off
  queue reordering; larger fixed delays add iteration throttling.
* **DDOS vs static annotations**: BOWS driven by runtime detection must
  match BOWS driven by the ground-truth ``!sib`` labels.
* **adaptive controllers**: the paper's Figure 5 rules vs the
  extremum-seeking (progress-rate hill-climbing) controller this
  reproduction defaults to (see ``repro.core.adaptive`` for why).
"""

from conftest import record, run_once

from repro.harness.experiments import ExperimentResult
from repro.harness.params import sync_params
from repro.kernels import build
from repro.sim.config import BOWSConfig, GPUConfig
from repro.sim.run import simulate


def _time(kernel, params, config):
    return simulate(build(kernel, **params), config=config)


def _ablation() -> ExperimentResult:
    params = sync_params("full")
    kernels = ("ht", "atm", "st")
    rows = []
    for kernel in kernels:
        p = params[kernel]
        base = _time(kernel, p, GPUConfig.preset("fermi"))
        depri = _time(kernel, p, GPUConfig.preset("fermi", bows=0))
        fixed = _time(kernel, p, GPUConfig.preset("fermi", bows=2000))
        paper = _time(kernel, p, GPUConfig.preset(
            "fermi", bows=BOWSConfig(adaptive=True, controller="paper")))
        hill = _time(kernel, p, GPUConfig.preset("fermi", bows=True))
        static = _time(kernel, p, GPUConfig.preset("fermi", bows=True,
                                              ddos=False))
        rows.append({
            "kernel": kernel,
            "gto": 1.0,
            "deprioritize_only": round(depri.cycles / base.cycles, 3),
            "fixed(2000)": round(fixed.cycles / base.cycles, 3),
            "adaptive_paper": round(paper.cycles / base.cycles, 3),
            "adaptive_hillclimb": round(hill.cycles / base.cycles, 3),
            "hillclimb_static_sibs": round(
                static.cycles / base.cycles, 3),
        })
    return ExperimentResult(
        "ablation",
        "BOWS component ablation (time normalized to GTO)",
        rows,
        notes="deprioritization alone is cheap and safe; throttling "
              "supplies most of the lock-kernel win; detection source "
              "(DDOS vs static !sib labels) should not matter",
    )


def test_ablation_bows(benchmark):
    result = run_once(benchmark, _ablation)
    record(result)
    rows = {r["kernel"]: r for r in result.rows}
    # Deprioritization alone never blows a kernel up.
    for kernel, row in rows.items():
        assert row["deprioritize_only"] < 1.3, kernel
    # On the spin-bound hashtable, throttling beats pure reordering.
    assert rows["ht"]["adaptive_hillclimb"] < 1.0
    # DDOS-driven BOWS tracks ground-truth-driven BOWS closely on the
    # lock kernels (detection is exact, timing may differ slightly).
    for kernel in ("ht", "atm"):
        a = rows[kernel]["adaptive_hillclimb"]
        b = rows[kernel]["hillclimb_static_sibs"]
        assert abs(a - b) / max(a, b) < 0.35, kernel
    # The hill-climbing controller is not worse than the paper's rules
    # on the merged wait/work loop (ST), where the Figure 5 trigger
    # over-throttles productive iterations.
    assert (rows["st"]["adaptive_hillclimb"]
            <= rows["st"]["adaptive_paper"] * 1.1)
