"""Seeded schedule-perturbation fuzzing for synchronization kernels.

Sync bugs are schedule-dependent: a kernel that completes under the
shipped scheduler can livelock under a legal-but-unlucky issue order
(Sorensen et al., "Specifying and Testing GPU Workgroup Progress
Models"; Stuart & Owens catalog the lock idioms that deadlock under the
wrong scheduler).  :class:`ScheduleFuzzer` hunts for those orders: it
runs one kernel across a batch of seeded :class:`~repro.sim.config.
PerturbConfig`\\ s — scheduler tie-break jitter, randomized
memory-latency spreads, warp-priority rotation — as one
:func:`~repro.submit.submit_many` batch, with the forward-progress
watchdog (:mod:`repro.sim.progress`) tightened to the fuzz budget so
hangs surface in thousands of cycles, not millions.

Every perturbation is a pure function of its seed, so any finding
reproduces deterministically from the :class:`FuzzReport`'s seed and
knobs; the report also *shrinks* the first hang, re-running it with each
perturbation axis disabled in turn to name the minimal set of axes that
still hangs (or to prove the hang is schedule-independent).
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.lab.journal import (JournalError, SweepJournal, load_journal,
                               open_journal)
from repro.lab.results import RunFailure
from repro.lab.runner import Runner
from repro.lab.spec import RunSpec
from repro.sim.config import GPUConfig, PerturbConfig
from repro.submit import submit, submit_many

#: Error types counted as hangs (classification of the progress guard).
HANG_ERRORS = ("SimulationLivelock", "SimulationDeadlock")

#: Error types counted as schedule-dependent wrong answers.
VALIDATION_ERRORS = ("WorkloadError",)


def _default_epoch(watchdog: int) -> int:
    """The progress-monitor period a campaign uses unless told one."""
    return max(250, watchdog // 8)


@dataclass
class FuzzFinding:
    """One seed that hanged, raced, or produced a wrong answer."""

    seed: int
    #: "livelock" | "deadlock" | "race" | "validation" | "infra".
    kind: str
    error_type: str
    message: str
    spec_hash: str
    label: str
    #: Inline HangReport JSON for hangs (None for validation findings).
    hang: Optional[Dict[str, Any]] = None
    perturb: Dict[str, Any] = field(default_factory=dict)
    #: Sanitizer diagnostics (serialized) for "race" findings — the run
    #: *completed* but the sanitizer flagged synchronization errors,
    #: which distinguishes a racy schedule from a hanging one.
    diagnostics: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass
class FuzzReport:
    """Outcome of one fuzz campaign (JSON-ready)."""

    kernel: str
    params: Dict[str, Any]
    budget_cycles: int
    watchdog: int
    seeds: List[int]
    findings: List[FuzzFinding] = field(default_factory=list)
    #: Seeds that completed and validated.
    clean: List[int] = field(default_factory=list)
    #: Seeds that exhausted the cycle budget while still progressing.
    exhausted: List[int] = field(default_factory=list)
    #: Shrink result for the first hang: minimal perturbation axes that
    #: still reproduce it, plus how many shrink runs were spent.
    shrink: Optional[Dict[str, Any]] = None
    elapsed_s: float = 0.0
    #: The machine every seed ran on before its perturbation (budget,
    #: watchdog and progress epoch applied); the repro command spells it.
    machine: Optional[GPUConfig] = None

    @property
    def hangs(self) -> List[FuzzFinding]:
        return [f for f in self.findings if f.kind in ("livelock", "deadlock")]

    @property
    def races(self) -> List[FuzzFinding]:
        return [f for f in self.findings if f.kind == "race"]

    @property
    def validation_failures(self) -> List[FuzzFinding]:
        return [f for f in self.findings if f.kind == "validation"]

    @property
    def first_hang(self) -> Optional[FuzzFinding]:
        hangs = self.hangs
        return hangs[0] if hangs else None

    def repro_command(self, finding: Optional[FuzzFinding] = None) -> str:
        """CLI line that deterministically replays ``finding``."""
        finding = finding or self.first_hang
        if finding is None:
            return ""
        p = finding.perturb
        parts = [
            "python -m repro fuzz", self.kernel,
            "--seeds 1", f"--seed-base {finding.seed}",
            f"--budget-cycles {self.budget_cycles}",
            f"--watchdog {self.watchdog}",
            f"--jitter {p.get('sched_jitter', 0)}",
            f"--mem-jitter {p.get('mem_jitter_cycles', 0)}",
            f"--rotation {p.get('rotation_period', 0)}",
        ]
        machine = self.machine
        if machine is not None:
            parts.append(f"--preset {machine.name.split('-')[0]}")
            parts.append(f"--scheduler {machine.scheduler}")
            bows = machine.bows
            if bows is not None:
                limit = "adaptive" if bows.adaptive else bows.delay_limit
                parts.append(f"--bows {limit}")
            if machine.progress_epoch != _default_epoch(self.watchdog):
                parts.append(f"--progress-epoch {machine.progress_epoch}")
            if machine.invariant_checks:
                parts.append("--invariants")
        for name, value in sorted(self.params.items()):
            parts.append(f"--param {name}={value}")
        return " ".join(parts)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kernel": self.kernel,
            "params": dict(self.params),
            "budget_cycles": self.budget_cycles,
            "watchdog": self.watchdog,
            "seeds": list(self.seeds),
            "findings": [f.to_dict() for f in self.findings],
            "clean": list(self.clean),
            "exhausted": list(self.exhausted),
            "shrink": self.shrink,
            "first_hang_repro": self.repro_command(),
            "elapsed_s": round(self.elapsed_s, 3),
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)

    def summary(self) -> str:
        lines = [
            f"fuzz {self.kernel!r}: {len(self.seeds)} seed(s), "
            f"{len(self.clean)} clean, {len(self.exhausted)} "
            f"budget-exhausted, {len(self.hangs)} hang(s), "
            f"{len(self.races)} race(s), "
            f"{len(self.validation_failures)} validation failure(s)"
        ]
        for finding in self.findings:
            lines.append(
                f"  seed {finding.seed}: {finding.kind} "
                f"({finding.error_type})"
            )
        if self.first_hang is not None:
            lines.append(f"  reproduce: {self.repro_command()}")
            if self.shrink is not None:
                axes = self.shrink.get("axes") or ["none (hangs unperturbed)"]
                lines.append(
                    f"  shrunk to perturbation axes: {', '.join(axes)}"
                )
        return "\n".join(lines)


class ScheduleFuzzer:
    """Runs one kernel across seeded schedule perturbations.

    Args:
        kernel: registered kernel name (``repro.kernels.build``).
        params: workload parameters; defaults to the harness registry
            for ``scale``.
        base_config: configuration to perturb; defaults to the stock
            GTO fermi machine.
        budget_cycles: per-seed simulated-cycle budget (``max_cycles``).
        watchdog: no-progress window; defaults to ``budget_cycles // 4``
            so hangs classify well inside the budget.
        progress_epoch: sample period; defaults to ``watchdog // 8``.
        sched_jitter / mem_jitter_cycles / rotation_period: perturbation
            magnitudes (see :class:`~repro.sim.config.PerturbConfig`).
        validate: run functional validation on completing seeds, so the
            fuzzer also catches schedule-dependent wrong answers.
        sanitize: attach the dynamic sanitizer
            (:mod:`repro.analysis.sanitizer`) to every seed; completing
            runs with sanitizer findings become ``"race"`` findings,
            distinguishing racy schedules from hanging ones.
    """

    def __init__(
        self,
        kernel: str,
        params: Optional[Dict[str, Any]] = None,
        base_config: Optional[GPUConfig] = None,
        budget_cycles: int = 100_000,
        watchdog: Optional[int] = None,
        progress_epoch: Optional[int] = None,
        sched_jitter: float = 0.1,
        mem_jitter_cycles: int = 16,
        rotation_period: int = 401,
        validate: bool = True,
        scale: str = "quick",
        sanitize: bool = False,
    ) -> None:
        if base_config is None:
            base_config = GPUConfig.preset("fermi", scheduler="gto")
        if params is None:
            from repro.harness.params import params_for
            params = params_for(kernel, scale)
        if watchdog is None:
            watchdog = max(1000, budget_cycles // 4)
        if progress_epoch is None:
            progress_epoch = _default_epoch(watchdog)
        self.kernel = kernel
        self.params = params
        self.budget_cycles = budget_cycles
        self.watchdog = watchdog
        self.progress_epoch = progress_epoch
        self.sched_jitter = sched_jitter
        self.mem_jitter_cycles = mem_jitter_cycles
        self.rotation_period = rotation_period
        self.validate = validate
        self.sanitize = sanitize
        self.base_config = base_config

    # ------------------------------------------------------------------

    def perturb_for(self, seed: int) -> PerturbConfig:
        return PerturbConfig(
            seed=seed,
            sched_jitter=self.sched_jitter,
            mem_jitter_cycles=self.mem_jitter_cycles,
            rotation_period=self.rotation_period,
        )

    @property
    def machine(self) -> GPUConfig:
        """``base_config`` with the campaign's budget, watchdog and
        progress epoch: what every seed runs on, before perturbation."""
        return self.base_config.replace(
            max_cycles=self.budget_cycles,
            no_progress_window=self.watchdog,
            progress_epoch=self.progress_epoch,
        )

    def spec_for(self, seed: int,
                 perturb: Optional[PerturbConfig] = None) -> RunSpec:
        perturb = perturb if perturb is not None else self.perturb_for(seed)
        config = self.machine.replace(perturb=perturb)
        sanitize = None
        if self.sanitize:
            from repro.analysis.sanitizer import SanitizerConfig
            sanitize = SanitizerConfig()
        return RunSpec(
            kernel=self.kernel,
            config=config,
            params=dict(self.params),
            validate=self.validate,
            sanitize=sanitize,
            label=f"{self.kernel}[seed={seed}]",
        )

    # ------------------------------------------------------------------

    def run(self, seeds: Union[int, Sequence[int]],
            runner: Optional[Runner] = None,
            shrink: bool = True,
            journal=None, resume: bool = False,
            server=None) -> FuzzReport:
        """Fuzz across ``seeds`` (an iterable, or N meaning 0..N-1).

        With ``journal`` (a path or
        :class:`~repro.lab.journal.SweepJournal`), every spec and
        outcome is appended durably so a killed campaign can be
        completed with ``resume=True``: a seed with a ``done`` record is
        reported clean without running again (under ``sanitize`` it runs:
        it may have raced); with a result cache on the runner, a seed
        that finished anyway comes back as a cache hit.

        ``server`` routes every seed through a ``repro serve`` daemon
        (address or connected client) instead of ``runner`` — the
        campaign then shares the daemon's cache and worker pool with
        every other client, and a re-run campaign is pure cache hits.
        """
        if isinstance(seeds, int):
            seeds = list(range(seeds))
        seeds = list(seeds)
        skipped = set()
        if resume and journal is not None and not self.sanitize:
            path = journal.path if isinstance(journal, SweepJournal) else journal
            try:
                done = set(load_journal(path).done)
            except JournalError:
                done = set()
            skipped = {s for s in seeds
                       if self.spec_for(s).content_hash() in done}
        to_run = [s for s in seeds if s not in skipped]
        start = time.perf_counter()
        with open_journal(journal, "fuzz", kernel=self.kernel,
                          seeds=len(to_run), resume=bool(resume)) as journal:
            batch = submit_many(
                [self.spec_for(s) for s in to_run], server=server,
                runner=runner, journal=journal, client_name="fuzz")

        report = FuzzReport(
            kernel=self.kernel, params=dict(self.params),
            budget_cycles=self.budget_cycles, watchdog=self.watchdog,
            seeds=seeds, machine=self.machine,
        )
        outcomes = iter(batch.outcomes())
        for seed in seeds:
            if seed in skipped:
                report.clean.append(seed)
                continue
            outcome = next(outcomes)
            if outcome.ok:
                diags = ((outcome.sanitizer or {}).get("diagnostics")
                         if outcome.sanitizer is not None else None)
                if diags:
                    # Completed, but the sanitizer flagged sync errors
                    # under this schedule: a race, not a hang.
                    report.findings.append(FuzzFinding(
                        seed=seed,
                        kind="race",
                        error_type="SanitizerFinding",
                        message=diags[0].get("message", ""),
                        spec_hash=outcome.spec_hash,
                        label=outcome.label or "",
                        perturb=dataclasses.asdict(self.perturb_for(seed)),
                        diagnostics=list(diags),
                    ))
                else:
                    report.clean.append(seed)
                continue
            kind = self._classify(outcome)
            if kind == "exhausted":
                report.exhausted.append(seed)
                continue
            report.findings.append(FuzzFinding(
                seed=seed,
                kind=kind,
                error_type=outcome.error_type,
                message=outcome.message.splitlines()[0]
                        if outcome.message else "",
                spec_hash=outcome.spec_hash,
                label=outcome.spec.label if outcome.spec else "",
                hang=outcome.hang,
                perturb=dataclasses.asdict(self.perturb_for(seed)),
            ))

        first = report.first_hang
        if shrink and first is not None:
            report.shrink = self._shrink(first, runner, server)
        report.elapsed_s = time.perf_counter() - start
        return report

    @staticmethod
    def _classify(failure: RunFailure) -> str:
        if failure.error_type in HANG_ERRORS:
            return failure.hang["kind"] if failure.hang else "livelock"
        if failure.error_type == "SimulationTimeout":
            # Budget exhausted while the progress guard still saw
            # forward progress: not a hang finding at fuzz budgets.
            return "exhausted"
        if failure.error_type in VALIDATION_ERRORS:
            return "validation"
        return "infra"

    # ------------------------------------------------------------------

    def _shrink(self, finding: FuzzFinding,
                runner: Optional[Runner],
                server=None) -> Dict[str, Any]:
        """Greedy axis shrink: disable each perturbation axis in turn,
        keeping any removal that still reproduces the hang."""
        current = self.perturb_for(finding.seed)
        axes = [
            ("sched_jitter", 0.0),
            ("mem_jitter_cycles", 0),
            ("rotation_period", 0),
        ]
        runs = 0
        for name, off in axes:
            if getattr(current, name) == off:
                continue
            candidate = dataclasses.replace(current, **{name: off})
            spec = self.spec_for(finding.seed, perturb=candidate)
            outcome = submit(spec, server=server, runner=runner,
                             client_name="fuzz").outcome()
            runs += 1
            if not outcome.ok and outcome.error_type in HANG_ERRORS:
                current = candidate  # axis not needed for the hang
        remaining = [
            name for name, off in axes if getattr(current, name) != off
        ]
        return {
            "seed": finding.seed,
            "axes": remaining,
            "perturb": dataclasses.asdict(current),
            "shrink_runs": runs,
            "schedule_independent": not remaining,
        }
