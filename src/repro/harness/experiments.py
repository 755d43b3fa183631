"""Regeneration of every table and figure in the paper's evaluation.

Each ``fig*``/``tab*`` function runs the required simulations and returns
an :class:`ExperimentResult` whose rows mirror the paper's artifact
(kernels as rows, schemes as columns, values normalized the way the
paper normalizes them).  ``benchmarks/`` wraps these one-to-one;
EXPERIMENTS.md records paper-vs-measured for each.

Figures 10-13 share one parameter sweep (the same GTO+BOWS delay-limit
runs); :func:`run_delay_sweep` executes it once and the four figure
functions project different columns out of it.

Execution goes through :mod:`repro.lab`: every figure/table expands its
simulations into :class:`~repro.lab.RunSpec` batches and drives them
through the *current* lab runner (``repro.lab.current_runner()``).  The
default runner is serial and uncached — identical behaviour to the old
in-line loops — but installing a parallel, disk-cached runner (as the
CLI and ``benchmarks/`` do) fans each figure out across worker
processes and makes re-runs cache hits.  Results come back as
:class:`~repro.lab.RunResult` records exposing the same ``.cycles`` and
``.stats`` the figures read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.harness import ddos_eval
from repro.harness.cpu_model import CPUModel, gpu_time_us
from repro.harness.params import (
    KERNEL_ORDER,
    sync_free_params,
    sync_params,
)
from repro.harness.reporting import format_table, geomean
from repro.harness.runner import make_config
from repro.core.cost import hardware_cost
from repro.lab import RunResult, RunSpec, current_runner
from repro.metrics.stats import SimStats
from repro.sim.config import DDOSConfig, GPUConfig

#: Scheduler set of Figures 2, 9, 15.
BASELINES = ("lrr", "gto", "cawa")

#: Back-off delay-limit sweep of Figures 10-13 (None = plain GTO,
#: "adaptive" = the default ``"hillclimb"`` controller, not Figure 5's).
DELAY_SWEEP: Tuple = (None, 0, 500, 1000, 3000, 5000, "adaptive")


@dataclass
class ExperimentResult:
    """One regenerated artifact."""

    experiment_id: str
    title: str
    rows: List[Dict[str, object]]
    columns: Optional[List[str]] = None
    notes: str = ""
    #: Headline scalars (e.g. geomean speedups) for EXPERIMENTS.md.
    headline: Dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        text = format_table(self.rows, self.columns,
                            title=f"{self.experiment_id}: {self.title}")
        if self.headline:
            summary = ", ".join(
                f"{k}={v:.3f}" for k, v in self.headline.items()
            )
            text += f"\n  -> {summary}"
        if self.notes:
            text += f"\n  note: {self.notes}"
        return text


def _spec(kernel: str, config: GPUConfig, params: dict,
          validate: bool = True, label: Optional[str] = None) -> RunSpec:
    return RunSpec(kernel=kernel, config=config, params=dict(params),
                   validate=validate, label=label or kernel)


def _run_all(specs: Sequence[RunSpec]) -> List[RunResult]:
    """Execute a batch through the current lab runner (raises on failure)."""
    return current_runner().run_map(specs)


def _bows_variant(base: str, bows, preset: str = "fermi",
                  **overrides) -> GPUConfig:
    return make_config(base, bows=bows, preset=preset, **overrides)


# ----------------------------------------------------------------------
# Figure 1 — motivation: hashtable under contention


def fig1(scale: str = "full",
         buckets: Optional[Sequence[int]] = None) -> ExperimentResult:
    """Figure 1b-e: GPU-vs-CPU time, instruction/memory overheads, SIMD.

    Sweeps hashtable bucket counts (fewer buckets = more contention) on
    the GTO baseline, comparing against the serial-CPU analytical model,
    and measuring the sync shares of dynamic instructions (1c) and
    memory transactions (1d) plus single- vs multi-warp SIMD efficiency
    (1e).
    """
    params = sync_params(scale)["ht"]
    if buckets is None:
        buckets = (8, 16, 32, 64, 128) if scale == "full" else (8, 32)
    cpu = CPUModel()
    specs = []
    for n_buckets in buckets:
        p = dict(params, n_buckets=n_buckets)
        specs.append(_spec("ht", make_config("gto"), p,
                           label=f"ht buckets={n_buckets}"))
        specs.append(_spec(
            "ht",
            make_config("gto", num_sms=1, max_warps_per_sm=1),
            dict(p, n_threads=32, block_dim=32),
            label=f"ht buckets={n_buckets} single-warp",
        ))
    runs = iter(_run_all(specs))
    rows = []
    for n_buckets in buckets:
        p = dict(params, n_buckets=n_buckets)
        result = next(runs)
        single = next(runs)
        stats = result.stats
        n_insertions = p["n_threads"] * p["items_per_thread"]
        rows.append({
            "buckets": n_buckets,
            "gpu_us": round(gpu_time_us(result.cycles), 1),
            "cpu_us": round(cpu.hashtable_time_us(n_insertions, n_buckets), 1),
            "sync_instr_frac": round(stats.sync_instruction_fraction, 3),
            "sync_mem_frac": round(stats.sync_transaction_fraction, 3),
            "simd_single_warp": round(single.stats.simd_efficiency, 3),
            "simd_multi_warp": round(stats.simd_efficiency, 3),
        })
    return ExperimentResult(
        "fig1",
        "Fine-grained synchronization overheads on the hashtable",
        rows,
        notes=(
            "paper: sync overhead 61-98% of instructions, 41-96% of "
            "memory traffic; SIMD efficiency collapses with multiple "
            "warps; GPU beats serial CPU once buckets grow"
        ),
    )


# ----------------------------------------------------------------------
# Figure 2 — lock/wait outcome distribution per baseline scheduler


def _lock_row(kernel: str, scheme: str, stats: SimStats,
              normalizer: float) -> Dict[str, object]:
    locks = stats.locks
    scale = 1.0 / normalizer if normalizer else 0.0
    return {
        "kernel": kernel,
        "scheme": scheme,
        "lock_success": round(locks.lock_success * scale, 3),
        "inter_warp_fail": round(locks.inter_warp_fail * scale, 3),
        "intra_warp_fail": round(locks.intra_warp_fail * scale, 3),
        "wait_exit_success": round(locks.wait_exit_success * scale, 3),
        "wait_exit_fail": round(locks.wait_exit_fail * scale, 3),
        "total_raw": locks.total,
    }


def fig2(scale: str = "full",
         kernels: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Figure 2: synchronization outcome distribution under LRR/GTO/CAWA.

    Counts are normalized per kernel to the LRR total (the paper's bars
    are relative to LRR), so a bar above 1.0 means the policy caused
    *more* synchronization attempts than LRR.
    """
    params = sync_params(scale)
    kernels = list(kernels or KERNEL_ORDER)
    specs = [
        _spec(kernel, make_config(scheme), params[kernel],
              label=f"{kernel} {scheme}")
        for kernel in kernels for scheme in BASELINES
    ]
    runs = iter(_run_all(specs))
    rows = []
    for kernel in kernels:
        lrr_total: Optional[float] = None
        for scheme in BASELINES:
            result = next(runs)
            if lrr_total is None:
                lrr_total = float(result.stats.locks.total or 1)
            rows.append(_lock_row(kernel, scheme, result.stats, lrr_total))
    return ExperimentResult(
        "fig2",
        "Synchronization status distribution (normalized to LRR total)",
        rows,
        notes="paper: most failures are inter-warp; distribution is "
              "strongly scheduler-dependent",
    )


# ----------------------------------------------------------------------
# Figure 3 — software-only back-off hurts


def fig3(scale: str = "full",
         delay_factors: Sequence[int] = (0, 50, 100, 500, 1000),
         ) -> ExperimentResult:
    """Figure 3: in-kernel clock()-polling back-off delay on the hashtable.

    The paper's point: software back-off wastes issue slots executing
    the delay code itself, so (except at very high contention) it does
    not pay off — which motivates doing back-off in the *scheduler*.
    We report time, dynamic instructions, and energy, plus a GTO+BOWS
    reference row: hardware back-off reaches the same (or better) time
    while *removing* instructions instead of multiplying them.

    Known deviation: our scaled simulator under-prices issue slots
    (~30 resident warps vs ~700 on the paper's GTX1080), so the delay
    code's slot cost does not show up as lost time here; it shows up —
    exactly as the paper argues — as a large dynamic-instruction and
    energy overhead relative to BOWS.
    """
    params = sync_params(scale)["ht"]
    specs = []
    for factor in delay_factors:
        if factor == 0:
            specs.append(_spec("ht", make_config("gto"), params,
                               label="ht no-delay"))
        else:
            specs.append(_spec("ht_backoff", make_config("gto"),
                               dict(params, delay_factor=factor),
                               label=f"ht sw-delay({factor})"))
    specs.append(_spec("ht", make_config("gto", bows=True), params,
                       label="ht bows"))
    *delay_runs, bows = _run_all(specs)
    rows = []
    baseline = None
    for factor, result in zip(delay_factors, delay_runs):
        if baseline is None:
            baseline = result
        rows.append({
            "scheme": ("no delay" if factor == 0
                       else f"sw delay({factor})"),
            "normalized_time": round(result.cycles / baseline.cycles, 3),
            "warp_instructions": result.stats.warp_instructions,
            "normalized_energy": round(
                result.stats.dynamic_energy_pj
                / baseline.stats.dynamic_energy_pj, 3),
        })
    rows.append({
        "scheme": "BOWS (hardware)",
        "normalized_time": round(bows.cycles / baseline.cycles, 3),
        "warp_instructions": bows.stats.warp_instructions,
        "normalized_energy": round(
            bows.stats.dynamic_energy_pj
            / baseline.stats.dynamic_energy_pj, 3),
    })
    return ExperimentResult(
        "fig3",
        "Software back-off delay vs hardware back-off on the hashtable",
        rows,
        notes="paper: software back-off burns issue slots on delay code; "
              "BOWS achieves back-off in the scheduler for free",
    )


# ----------------------------------------------------------------------
# Table I — DDOS sensitivity


def _ddos_kernel_set(scale: str) -> Tuple[List[str], Dict[str, dict]]:
    sync = sync_params("quick" if scale == "quick" else "full")
    free = sync_free_params(scale)
    # DDOS accuracy needs both spinning and loop-rich sync-free kernels;
    # the heavy sync kernels run at reduced size to keep Table I cheap.
    kernels = ["ht", "atm", "tsp", "st", "nw1",
               "kmeans", "ms", "hl", "vecadd", "reduction", "histogram"]
    quick_sync = sync_params("quick")
    merged = {}
    for name in kernels:
        if name in free:
            merged[name] = free[name]
        else:
            merged[name] = quick_sync[name] if scale != "quick" else sync[name]
    return kernels, merged


def tab1(scale: str = "full") -> ExperimentResult:
    """Table I: DDOS detection accuracy vs design parameters.

    Five sub-sweeps — hashing function, hash width m=k, confidence
    threshold t, history length l, and time sharing — each scored as
    average TSDR / FSDR / detection-phase ratio over the kernel set.
    """
    kernels, kparams = _ddos_kernel_set(scale)
    base = make_config("gto", ddos=True)

    def evaluate(ddos: DDOSConfig) -> Dict[str, float]:
        summary = ddos_eval.evaluate_ddos(
            ddos, kernels, kparams, base_config=base
        )
        return summary.as_row()

    rows: List[Dict[str, object]] = []

    def add(sweep: str, setting: str, ddos: DDOSConfig) -> None:
        row: Dict[str, object] = {"sweep": sweep, "setting": setting}
        row.update(evaluate(ddos))
        rows.append(row)

    # Hashing function (at t=4, l=8).
    for hashing, bits in (("xor", 4), ("xor", 8),
                          ("modulo", 4), ("modulo", 8)):
        add("hashing", f"{hashing}, m=k={bits}",
            DDOSConfig(hashing=hashing, path_bits=bits, value_bits=bits))
    # Hash width (XOR).
    for bits in (2, 3, 4, 8):
        add("width", f"m=k={bits}",
            DDOSConfig(path_bits=bits, value_bits=bits))
    # Confidence threshold.
    for t in (2, 4, 8, 12):
        add("threshold", f"t={t}", DDOSConfig(confidence_threshold=t))
    # History length.
    for length in (1, 2, 4, 8):
        add("history", f"l={length}", DDOSConfig(history_length=length))
    # Time sharing.
    for sharing, bits in ((False, 8), (True, 8), (True, 4)):
        add("time-sharing", f"sh={int(sharing)}, m=k={bits}",
            DDOSConfig(time_sharing=sharing, path_bits=bits,
                       value_bits=bits))

    default = next(
        r for r in rows if r["sweep"] == "hashing"
        and r["setting"] == "xor, m=k=8"
    )
    return ExperimentResult(
        "tab1",
        "DDOS sensitivity to design parameters (avg over kernels)",
        rows,
        headline={
            "tsdr_default": float(default["TSDR"]),
            "fsdr_default": float(default["FSDR"]),
        },
        notes="paper: XOR m=k=8 achieves TSDR=1.0 with FSDR=0; MODULO "
              "falsely detects MS/HL power-of-two-stride loops; l>=8 and "
              "t=4 balance accuracy and detection speed; time sharing "
              "degrades accuracy",
    )


# ----------------------------------------------------------------------
# Figures 9 / 15 — BOWS on top of LRR/GTO/CAWA (Fermi / Pascal)


def _bows_matrix(scale: str, preset: str,
                 kernels: Optional[Sequence[str]] = None,
                 ) -> ExperimentResult:
    params = sync_params(scale)
    kernels = list(kernels or KERNEL_ORDER)
    specs = []
    for kernel in kernels:
        for base in BASELINES:
            specs.append(_spec(kernel, _bows_variant(base, None, preset),
                               params[kernel],
                               label=f"{kernel} {base} {preset}"))
            specs.append(_spec(kernel, _bows_variant(base, True, preset),
                               params[kernel],
                               label=f"{kernel} {base}+bows {preset}"))
    runs = iter(_run_all(specs))
    rows = []
    speedups: Dict[str, List[float]] = {b: [] for b in BASELINES}
    energy_savings: Dict[str, List[float]] = {b: [] for b in BASELINES}
    for kernel in kernels:
        row: Dict[str, object] = {"kernel": kernel}
        lrr_cycles = None
        lrr_energy = None
        for base in BASELINES:
            plain = next(runs)
            bows = next(runs)
            if lrr_cycles is None:
                lrr_cycles = plain.cycles
                lrr_energy = plain.stats.dynamic_energy_pj
            row[f"{base}_time"] = round(plain.cycles / lrr_cycles, 3)
            row[f"{base}+bows_time"] = round(bows.cycles / lrr_cycles, 3)
            row[f"{base}_energy"] = round(
                plain.stats.dynamic_energy_pj / lrr_energy, 3)
            row[f"{base}+bows_energy"] = round(
                bows.stats.dynamic_energy_pj / lrr_energy, 3)
            speedups[base].append(plain.cycles / bows.cycles)
            energy_savings[base].append(
                plain.stats.dynamic_energy_pj / bows.stats.dynamic_energy_pj
            )
        rows.append(row)
    headline = {}
    for base in BASELINES:
        headline[f"speedup_vs_{base}"] = geomean(speedups[base])
        headline[f"energy_saving_vs_{base}"] = geomean(energy_savings[base])
    return ExperimentResult(
        "fig9" if preset == "fermi" else "fig15",
        f"BOWS on {preset}: normalized time and dynamic energy (vs LRR)",
        rows,
        headline=headline,
        notes="paper (Fermi): BOWS speedup 2.2x/1.4x/1.5x and energy "
              "savings 2.3x/1.7x/1.6x vs LRR/GTO/CAWA; "
              "paper (Pascal): 1.9x/1.7x/1.5x speedups",
    )


def fig9(scale: str = "full", **kwargs) -> ExperimentResult:
    """Figure 9: normalized execution time and energy, GTX480-shaped."""
    return _bows_matrix(scale, "fermi", **kwargs)


def fig15(scale: str = "full", **kwargs) -> ExperimentResult:
    """Figure 15: the Figure 9 matrix on the GTX1080Ti-shaped config."""
    return _bows_matrix(scale, "pascal", **kwargs)


# ----------------------------------------------------------------------
# Figures 10-13 — back-off delay-limit sweep (shared runs)


def run_delay_sweep(
    scale: str = "full",
    kernels: Optional[Sequence[str]] = None,
    delays: Sequence = DELAY_SWEEP,
) -> Dict[Tuple[str, object], RunResult]:
    """GTO + BOWS at each delay limit, for each kernel (Figures 10-13)."""
    params = sync_params(scale)
    kernels = list(kernels or KERNEL_ORDER)
    keys: List[Tuple[str, object]] = []
    specs: List[RunSpec] = []
    for kernel in kernels:
        for delay in delays:
            if delay is None:
                config = make_config("gto")
            elif delay == "adaptive":
                config = make_config("gto", bows=True)
            else:
                config = make_config("gto", bows=int(delay))
            keys.append((kernel, delay))
            specs.append(_spec(kernel, config, params[kernel],
                               label=f"{kernel} delay={delay}"))
    return dict(zip(keys, _run_all(specs)))


def _sweep_table(
    sweep: Dict[Tuple[str, object], RunResult],
    value: Callable[[RunResult], float],
    normalize_to_gto: bool,
    fmt: Callable[[float], object] = lambda v: round(v, 3),
) -> List[Dict[str, object]]:
    kernels = sorted({k for k, _ in sweep}, key=KERNEL_ORDER.index)
    # Canonical column order: GTO baseline, fixed delays ascending,
    # adaptive last — derived from the sweep actually run.
    present = {d for _, d in sweep}
    delays = [d for d in present if d is None]
    delays += sorted(d for d in present if isinstance(d, int))
    delays += [d for d in present if d == "adaptive"]
    rows = []
    for kernel in kernels:
        row: Dict[str, object] = {"kernel": kernel}
        base = value(sweep[(kernel, None)]) if normalize_to_gto else 1.0
        base = base or 1.0
        for delay in delays:
            key = "gto" if delay is None else f"bows({delay})"
            row[key] = fmt(value(sweep[(kernel, delay)]) / base)
        rows.append(row)
    return rows


def fig10(sweep: Optional[Dict] = None,
          scale: str = "full") -> ExperimentResult:
    """Figure 10: execution time vs back-off delay limit (norm. to GTO)."""
    sweep = sweep if sweep is not None else run_delay_sweep(scale)
    rows = _sweep_table(sweep, lambda r: float(r.cycles), True)
    return ExperimentResult(
        "fig10", "Normalized execution time across delay limits", rows,
        notes="paper: small delays are inert (spin iterations already "
              "take longer), oversized delays throttle too hard (TSP); "
              "adaptive tracks the per-kernel sweet spot",
    )


def fig11(sweep: Optional[Dict] = None,
          scale: str = "full") -> ExperimentResult:
    """Figure 11: fraction of resident warps in the backed-off state."""
    sweep = sweep if sweep is not None else run_delay_sweep(scale)
    rows = _sweep_table(
        sweep, lambda r: r.stats.backed_off_fraction, False
    )
    return ExperimentResult(
        "fig11", "Average backed-off warp fraction across delay limits",
        rows,
        notes="paper: back-off only engages past a per-kernel threshold "
              "set by the natural spin-iteration time",
    )


def fig12(sweep: Optional[Dict] = None,
          scale: str = "full") -> ExperimentResult:
    """Figure 12: lock/wait outcome counts across delay limits (vs GTO)."""
    sweep = sweep if sweep is not None else run_delay_sweep(scale)
    rows = _sweep_table(
        sweep, lambda r: float(r.stats.locks.total or 1), True
    )
    headline = {}
    ht_vals = [
        (delay, float(result.stats.locks.acquire_attempts or 1))
        for (kernel, delay), result in sweep.items()
        if kernel == "ht"
    ]
    if ht_vals:
        base = dict(ht_vals).get(None)
        adaptive = dict(ht_vals).get("adaptive")
        if base and adaptive:
            headline["ht_attempt_reduction_adaptive"] = base / adaptive
    return ExperimentResult(
        "fig12",
        "Synchronization attempts across delay limits (normalized to GTO)",
        rows,
        headline=headline,
        notes="paper: BOWS reduces HT lock failures by 10.8x vs GTO",
    )


def fig13(sweep: Optional[Dict] = None,
          scale: str = "full") -> ExperimentResult:
    """Figure 13: instruction count, memory transactions, SIMD efficiency."""
    sweep = sweep if sweep is not None else run_delay_sweep(scale)
    instr = _sweep_table(
        sweep, lambda r: float(r.stats.thread_instructions), True)
    mem = _sweep_table(
        sweep, lambda r: float(r.stats.memory.total_transactions), True)
    simd = _sweep_table(sweep, lambda r: r.stats.simd_efficiency, False)
    rows = []
    for row in instr:
        rows.append(dict(row, metric="instructions"))
    for row in mem:
        rows.append(dict(row, metric="memory_tx"))
    for row in simd:
        rows.append(dict(row, metric="simd_eff"))
    adaptive_instr = [
        1.0 / row["bows(adaptive)"]
        for row in instr if row.get("bows(adaptive)")
    ]
    headline = {}
    if adaptive_instr:
        headline["instr_reduction_adaptive"] = geomean(adaptive_instr)
    return ExperimentResult(
        "fig13",
        "Dynamic overheads across delay limits (instr/mem normalized to "
        "GTO; SIMD absolute)",
        rows,
        headline=headline,
        notes="paper: BOWS cuts dynamic instructions 2.1x and L1D "
              "transactions 19% vs GTO; SIMD efficiency up 3.4x on HT",
    )


# ----------------------------------------------------------------------
# Figure 14 — cost of MODULO-hash false detections


def fig14(scale: str = "full",
          delays: Sequence = (0, 500, 1000, 3000, 5000),
          ) -> ExperimentResult:
    """Figure 14: BOWS + MODULO hashing on synchronization-free kernels.

    MODULO hashing falsely flags the power-of-two-stride loops of MS and
    HL as spins, so BOWS throttles innocent loops; with XOR hashing
    there are no false detections and results match the baseline.
    """
    free = sync_free_params(scale)
    kernels = ["ms", "hl", "kmeans", "vecadd"]
    if scale == "full":
        kernels.append("reduction")
    largest = delays[-1]
    specs = []
    for kernel in kernels:
        specs.append(_spec(kernel, make_config("gto"), free[kernel],
                           label=f"{kernel} gto"))
        for delay in delays:
            modulo = make_config(
                "gto", bows=int(delay),
                ddos=DDOSConfig(hashing="modulo"),
            )
            specs.append(_spec(kernel, modulo, free[kernel],
                               label=f"{kernel} modulo({delay})"))
        specs.append(_spec(kernel, make_config("gto", bows=int(largest)),
                           free[kernel], label=f"{kernel} xor({largest})"))
    runs = iter(_run_all(specs))
    rows = []
    slowdowns = []
    for kernel in kernels:
        base = next(runs)
        row: Dict[str, object] = {"kernel": kernel, "gto": 1.0}
        for delay in delays:
            result = next(runs)
            row[f"bows({delay})"] = round(result.cycles / base.cycles, 3)
        xor_result = next(runs)
        row[f"bows({largest})+xor"] = round(
            xor_result.cycles / base.cycles, 3)
        rows.append(row)
        slowdowns.append(row[f"bows({delays[-1]})"])
    return ExperimentResult(
        "fig14",
        "Detection-error overhead: GTO+BOWS with MODULO hashing on "
        "sync-free kernels (normalized to GTO)",
        rows,
        headline={"worst_modulo_slowdown": max(slowdowns)},
        notes="paper: only MS and HL regress (power-of-two strides); "
              "XOR hashing shows zero false detections so sync-free "
              "kernels match the baseline exactly",
    )


# ----------------------------------------------------------------------
# Figure 16 — sensitivity to contention


def fig16(scale: str = "full",
          buckets: Optional[Sequence[int]] = None) -> ExperimentResult:
    """Figure 16: BOWS speedup and instruction count vs bucket count,
    with the magic-lock instruction count as the ideal-blocking (HQL)
    proxy."""
    params = sync_params(scale)["ht"]
    if buckets is None:
        buckets = (8, 16, 32, 64, 128) if scale == "full" else (8, 32)
    specs = []
    for n_buckets in buckets:
        p = dict(params, n_buckets=n_buckets)
        specs.append(_spec("ht", make_config("gto"), p,
                           label=f"ht buckets={n_buckets} gto"))
        specs.append(_spec("ht", make_config("gto", bows=True), p,
                           label=f"ht buckets={n_buckets} bows"))
        specs.append(_spec("ht", make_config("gto", magic_locks=True), p,
                           validate=False,
                           label=f"ht buckets={n_buckets} ideal"))
    runs = iter(_run_all(specs))
    rows = []
    speedups = []
    for n_buckets in buckets:
        base = next(runs)
        bows = next(runs)
        ideal = next(runs)
        base_instr = float(base.stats.thread_instructions)
        speedup = base.cycles / bows.cycles
        speedups.append(speedup)
        rows.append({
            "buckets": n_buckets,
            "bows_speedup": round(speedup, 3),
            "bows_instr": round(
                bows.stats.thread_instructions / base_instr, 3),
            "ideal_blocking_instr": round(
                ideal.stats.thread_instructions / base_instr, 3),
        })
    return ExperimentResult(
        "fig16",
        "Sensitivity to contention: HT bucket sweep "
        "(instr normalized to GTO)",
        rows,
        headline={
            "max_speedup": max(speedups),
            "min_speedup": min(speedups),
        },
        notes="paper: speedup 5x at high contention down to 1.2x at low; "
              "BOWS's instruction count approaches the ideal blocking "
              "lock as buckets grow",
    )


# ----------------------------------------------------------------------
# Table III — hardware cost


def tab3() -> ExperimentResult:
    """Table III: per-SM storage for DDOS + BOWS."""
    config = make_config("gto", bows=True)
    cost = hardware_cost(config)
    rows = [
        {"component": "SIB-PT", "bits": cost.sib_pt_bits,
         "paper_bits": 560},
        {"component": "History registers", "bits": cost.history_bits,
         "paper_bits": 9216},
        {"component": "Pending delay counters",
         "bits": cost.pending_delay_bits, "paper_bits": 672},
        {"component": "Backed-off queue",
         "bits": cost.backed_off_queue_bits, "paper_bits": 240},
        {"component": "TOTAL", "bits": cost.total_bits,
         "paper_bits": 560 + 9216 + 672 + 240},
    ]
    return ExperimentResult(
        "tab3", "DDOS and BOWS implementation cost per SM (bits)", rows,
        headline={"total_bytes": cost.total_bytes},
    )


# ----------------------------------------------------------------------

ALL_EXPERIMENTS: Dict[str, Callable[..., ExperimentResult]] = {
    "fig1": fig1,
    "fig2": fig2,
    "fig3": fig3,
    "tab1": tab1,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "fig16": fig16,
    "tab3": tab3,
}
