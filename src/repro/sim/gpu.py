"""Top-level GPU: kernel launch, CTA dispatch, and the simulation loop.

The loop goes only where a warp can act: each SM keeps the cycle it can
next do anything on (``SM.wake`` — a ready warp, a memory writeback,
a fence completing, a BOWS back-off delay expiring), the loop steps the
SMs whose wake has come and moves straight to the earliest wake.  That
is purely a host-performance optimization: per-cycle accounting (issue
slots, occupancy, CAWA stall charging) is weighted by the skipped
interval, so results are identical to stepping every SM every cycle.

If no warp can ever become ready again the workload has deadlocked; the
simulator raises :class:`SimulationDeadlock` with per-warp diagnostics —
this is exactly how SIMT-induced deadlocks (paper Section IV) manifest.
Livelocks (warps issuing spin iterations forever) are classified by the
:class:`~repro.sim.progress.ProgressMonitor`, sampled from the loop every
``config.progress_epoch`` cycles; see :mod:`repro.sim.progress`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.energy.model import EnergyModel
from repro.isa.program import Program
from repro.memory.memsys import GlobalMemory, MemorySubsystem
from repro.metrics.stats import SimStats
from repro.obs import Observability, as_observability
from repro.sim.config import GPUConfig
from repro.sim.progress import (ProgressMonitor, SimulationDeadlock,
                                SimulationTimeout, build_hang_report)
from repro.sim.sm import NEVER, SM, WarpKey


@dataclass
class KernelLaunch:
    """A kernel invocation: program, grid geometry, scalar parameters."""

    program: Program
    grid_dim: int
    block_dim: int
    params: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.grid_dim <= 0 or self.block_dim <= 0:
            raise ValueError("grid and block dimensions must be positive")


@dataclass
class SimResult:
    """Outcome of one kernel execution."""

    stats: SimStats
    cycles: int
    memory: GlobalMemory
    config: GPUConfig
    launch: KernelLaunch
    sms: List[SM]
    #: Attached :class:`repro.obs.Observability` (event bus + time
    #: series) when the run collected any; None otherwise.
    obs: Optional[Observability] = None
    #: Attached :class:`repro.analysis.Sanitizer` when the run executed
    #: with ``sanitize=``; None otherwise.  Inspect ``.diagnostics`` /
    #: ``.ok`` / ``.render()``.
    sanitizer: Optional[object] = None

    @property
    def ddos_engines(self):
        return [sm.ddos for sm in self.sms if sm.ddos is not None]

    def predicted_sibs(self) -> set:
        """Union of SIB predictions across all SMs' DDOS engines."""
        predicted = set()
        for engine in self.ddos_engines:
            predicted |= engine.predicted_sibs()
        return predicted


class GPU:
    """A multi-SM GPU instance bound to one global-memory image."""

    def __init__(self, config: GPUConfig,
                 memory: Optional[GlobalMemory] = None,
                 engine: str = "fast", obs=None,
                 sanitizer=None) -> None:
        # ``engine`` stays a parameter, with one legal value, because the
        # ledger (``benchmarks/ledger/workloads.py``) still passes it;
        # this is the one place that refuses any other.
        if engine != "fast":
            raise ValueError(
                f"unknown engine {engine!r}; the one engine is 'fast'"
            )
        self.config = config
        self.memory = memory if memory is not None else GlobalMemory()
        #: Optional :class:`repro.obs.Observability` (accepts ``True``
        #: or an :class:`repro.obs.ObsConfig` as shorthand): collects
        #: decision events, interval time series and — when constructed
        #: with ``issue_capacity`` — issued instructions during launches.
        self.obs = as_observability(obs)
        #: Optional :class:`repro.analysis.Sanitizer` (accepts ``True``
        #: or a :class:`repro.analysis.SanitizerConfig` as shorthand):
        #: execution-time synchronization checking.  A pure observer —
        #: stats are bitwise identical with it on or off.
        from repro.analysis.sanitizer import as_sanitizer

        self.sanitizer = as_sanitizer(sanitizer)

    def begin(self, launch: KernelLaunch) -> "Simulation":
        """Construct (but do not run) a resumable simulation of ``launch``."""
        config = self.config
        stats = SimStats()
        memsys = MemorySubsystem(config)
        obs = self.obs
        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.begin_run(
                launch.program.name,
                bus=obs.bus if obs is not None else None,
            )
            sanitizer.attach_memory(self.memory)
        lock_table: Dict[int, Tuple[WarpKey, int]] = {}
        sms = [
            SM(
                sm_id=i,
                config=config,
                program=launch.program,
                params=launch.params,
                memory=self.memory,
                memsys=memsys,
                lock_table=lock_table,
                stats=stats,
                obs=obs,
                sanitizer=sanitizer,
            )
            for i in range(config.num_sms)
        ]

        warp_size = config.warp_size
        warps_per_cta = -(-launch.block_dim // warp_size)
        if warps_per_cta > config.max_warps_per_sm:
            raise ValueError(
                f"CTA of {launch.block_dim} threads needs {warps_per_cta} "
                f"warps; SM holds only {config.max_warps_per_sm}"
            )

        sim = Simulation(
            config=config,
            launch=launch,
            memory=self.memory,
            memsys=memsys,
            stats=stats,
            sms=sms,
            lock_table=lock_table,
            obs=obs,
            sanitizer=sanitizer,
            warps_per_cta=warps_per_cta,
        )
        sim._dispatch()
        if config.no_progress_window > 0:
            sim.monitor = ProgressMonitor(
                config, sms, self.memory, stats, obs=obs)
        if obs is not None:
            sim.sampler = obs.begin_run(
                stats, memsys.stats, warp_size=config.warp_size
            )
        return sim

    def launch(self, launch: KernelLaunch) -> SimResult:
        """Run ``launch`` to completion and return statistics."""
        return self.begin(launch).run()


class Simulation:
    """One in-flight kernel execution, advanceable and checkpointable.

    Created by :meth:`GPU.begin`; :meth:`run` drives it to completion
    (optionally autocheckpointing every N cycles), :meth:`run_until`
    advances to a cycle boundary, and :meth:`checkpoint` captures the
    complete machine state as a :class:`~repro.sim.checkpoint.SimCheckpoint`.

    Checkpoints are only ever taken *between* loop iterations — the
    state is exactly "about to execute cycle ``now``" — which is what
    makes a resumed run bitwise-identical to an uninterrupted one.  The
    object pickles as a whole graph, observers included; the decoded
    program's closures pickle as a reference to the program they were
    decoded from (:class:`~repro.sim.executor.DecodedOp`).
    """

    def __init__(self, config, launch, memory, memsys, stats, sms,
                 lock_table, obs, sanitizer, warps_per_cta) -> None:
        self.config = config
        self.launch = launch
        self.memory = memory
        self.memsys = memsys
        self.stats = stats
        self.sms = sms
        self.lock_table = lock_table
        self.obs = obs
        self.sanitizer = sanitizer
        self.warps_per_cta = warps_per_cta
        self.monitor: Optional[ProgressMonitor] = None
        self.sampler = None
        self.now = 0
        self.next_cta = 0
        self.age_counter = 0
        self.finished = False
        self.result: Optional[SimResult] = None

    # -- dispatch -------------------------------------------------------

    def _dispatch(self) -> None:
        launch = self.launch
        warps_per_cta = self.warps_per_cta
        for sm in self.sms:
            while (
                self.next_cta < launch.grid_dim
                and sm.can_accept_cta(warps_per_cta)
            ):
                sm.launch_cta(
                    cta_id=self.next_cta,
                    warps_per_cta=warps_per_cta,
                    cta_dim=launch.block_dim,
                    grid_dim=launch.grid_dim,
                    age_base=self.age_counter,
                )
                self.next_cta += 1
                self.age_counter += warps_per_cta

    # -- the cycle loop -------------------------------------------------

    def _advance(self, stop_cycle: Optional[int] = None) -> bool:
        """Advance until completion (→ True) or ``now >= stop_cycle``
        at an iteration boundary (→ False).  Raises on hang/timeout."""
        if self.finished:
            return True
        config = self.config
        grid_dim = self.launch.grid_dim
        sms = self.sms
        monitor = self.monitor
        sampler = self.sampler
        stats = self.stats
        # An SM is stepped only once its ``wake`` has come: before that
        # a step finds nothing to drain or issue.  CAWA charges stalls
        # from readiness at every visited cycle, so under it every SM
        # steps on every one of them.
        every = config.scheduler == "cawa"
        slots = len(sms) * config.num_schedulers_per_sm
        stop = NEVER if stop_cycle is None else stop_cycle
        now = self.now
        # Bound methods hoisted out of the cycle loop (locals only —
        # rebuilt on every call, never part of checkpointed state).
        steps = [(sm, sm.step) for sm in sms]
        # One comparison per cycle covers the three rare checks; it is
        # recomputed whenever one of them has run.
        watch = 0
        try:
            while True:
                if now >= stop:
                    return False
                issued = 0
                for sm, step in steps:
                    if every or sm.wake <= now:
                        issued += step(now)
                # One issue slot per scheduler per visited cycle.
                stats.issue_slots += slots
                # CTA slots free up, and the last warp retires, only on
                # a cycle that issued.
                if issued:
                    if self.next_cta < grid_dim:
                        self._dispatch()  # refill SMs that freed CTA slots
                    if self.next_cta >= grid_dim:
                        for sm in sms:
                            if sm.warps:
                                break
                        else:
                            break
                if now >= watch:
                    if sampler is not None and now >= sampler.next_sample:
                        sampler.sample(now)  # before the monitor, which can raise
                    if monitor is not None and now >= monitor.next_sample:
                        monitor.sample(now)  # raises on a classified hang
                    if now >= config.max_cycles:
                        self._raise_timeout(now)
                    watch = config.max_cycles
                    if sampler is not None and sampler.next_sample < watch:
                        watch = sampler.next_sample
                    if monitor is not None and monitor.next_sample < watch:
                        watch = monitor.next_sample
                # Where next: the earliest cycle a warp can act on.
                next_now = NEVER
                live = backed = 0
                for sm in sms:
                    if sm.wake < next_now:
                        next_now = sm.wake
                    live += sm._n_live
                    backed += sm._n_backed
                if issued:
                    # The cycle after an issue always counts.  When no
                    # SM wakes on it, it is charged its issue slots
                    # without a visit — unless a sample, the stop or the
                    # deadlock report falls on it.
                    if (next_now <= now + 1 or every or next_now == NEVER
                            or now + 1 >= watch or now + 1 >= stop):
                        next_now = now + 1
                    else:
                        stats.issue_slots += slots
                elif next_now == NEVER:
                    report = build_hang_report(
                        "deadlock", now, sms, memory=self.memory,
                        stats=stats, obs=self.obs,
                        reason="no warp can ever become ready again",
                    )
                    raise SimulationDeadlock(report.describe(), report)
                dt = next_now - now
                stats.resident_warp_cycles += dt * live
                stats.backed_off_warp_cycles += dt * backed
                now = next_now
        finally:
            self.now = now
        self._finish()
        return True

    def _raise_timeout(self, now: int) -> None:
        if self.monitor is not None:
            report = self.monitor.timeout_report(now)
        else:
            report = build_hang_report(
                "timeout", now, self.sms, memory=self.memory,
                stats=self.stats, obs=self.obs,
                reason="exceeded max_cycles (watchdog disabled)",
            )
        raise SimulationTimeout(
            f"kernel {self.launch.program.name!r} exceeded "
            f"{self.config.max_cycles} cycles\n" + report.describe(),
            report,
        )

    def _finish(self) -> SimResult:
        stats = self.stats
        now = self.now
        stats.cycles = now
        # The three counters that restate others (see SimStats).
        stats.active_lane_sum = stats.thread_instructions
        stats.useful_thread_instructions = (
            stats.thread_instructions - stats.sync_thread_instructions
        )
        stats.issued_slots = stats.warp_instructions
        stats.memory.merge(self.memsys.stats)
        if self.obs is not None:
            self.obs.end_run(now)
        energy = EnergyModel(num_sms=self.config.num_sms).evaluate(stats)
        stats.dynamic_energy_pj = energy.total_pj
        self.finished = True
        self.result = SimResult(
            stats=stats,
            cycles=now,
            memory=self.memory,
            config=self.config,
            launch=self.launch,
            sms=self.sms,
            obs=self.obs,
            sanitizer=self.sanitizer,
        )
        return self.result

    # -- public driving -------------------------------------------------

    def run_until(self, cycle: int) -> bool:
        """Advance to the first iteration boundary at/after ``cycle``;
        returns True when the kernel completed before reaching it."""
        return self._advance(stop_cycle=cycle)

    def run(self, checkpoint_every=None, checkpoint_path=None) -> SimResult:
        """Drive the simulation to completion.

        With ``checkpoint_every`` (``True`` → ``config.progress_epoch``
        cycles, or an explicit positive cycle count), the machine state
        is saved to ``checkpoint_path`` between advance chunks, so a
        run killed or timed out mid-flight resumes from the last epoch
        instead of restarting.  The final checkpoint file is removed on
        successful completion by the *lab* layer (which owns retries),
        not here.
        """
        interval = self._resolve_interval(checkpoint_every)
        if interval is None:
            self._advance()
            return self.result
        if checkpoint_path is None:
            raise ValueError(
                "checkpoint_every requires checkpoint_path "
                "(where should the state go?)"
            )
        while True:
            if self._advance(stop_cycle=self.now + interval):
                return self.result
            self.save_checkpoint(checkpoint_path)

    def _resolve_interval(self, checkpoint_every) -> Optional[int]:
        if checkpoint_every is None or checkpoint_every is False:
            return None
        if checkpoint_every is True:
            return self.config.progress_epoch
        interval = int(checkpoint_every)
        if interval <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {checkpoint_every}"
            )
        return interval

    # -- checkpointing --------------------------------------------------

    def checkpoint(self):
        """Capture the full machine state (see :mod:`repro.sim.checkpoint`)."""
        from repro.sim.checkpoint import SimCheckpoint

        return SimCheckpoint.capture(self)

    def save_checkpoint(self, path):
        """Capture + atomically write a checkpoint, emitting
        :class:`~repro.obs.events.CheckpointSaved` when a bus is attached."""
        saved = self.checkpoint().save(path)
        bus = self.obs.bus if self.obs is not None else None
        if bus is not None:
            from repro.obs.events import CheckpointSaved

            bus.publish(CheckpointSaved(
                cycle=self.now,
                path=str(saved),
                size_bytes=saved.stat().st_size,
            ))
        return saved
