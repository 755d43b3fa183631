"""One way to run a kernel: :func:`begin_simulation` is the one place a
kernel meets a fresh :class:`GPU`.

:func:`simulate` (begin, run, validate) serves the CLI, the harness, the
fuzzer and the benchmarks; the lab worker begins through
:func:`begin_simulation` itself, because it taps and may resume the run.
A target is a kernel name (built with ``params``), a built
:class:`Workload` (single use, validated after the run), a
:class:`KernelLaunch`, or a bare :class:`Program` (one warp).
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.isa.program import Program
from repro.kernels import build as build_workload
from repro.kernels.base import Workload, WorkloadReuseError
from repro.memory.memsys import GlobalMemory
from repro.sim.checkpoint import SimCheckpoint
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPU, KernelLaunch, SimResult, Simulation

#: What :func:`simulate` accepts as its target.
SimTarget = Union[str, Workload, KernelLaunch, Program]


def _resolve_config(config: Union[GPUConfig, str, None]) -> GPUConfig:
    if config is None:
        return GPUConfig.preset("fermi")
    if isinstance(config, str):
        return GPUConfig.preset(config)
    if not isinstance(config, GPUConfig):
        raise TypeError(f"cannot interpret config={config!r}")
    return config


def begin_simulation(
    target: Union[Workload, KernelLaunch, Program],
    *,
    config: Union[GPUConfig, str, None] = None,
    params: Optional[Dict[str, int]] = None,
    memory: Optional[GlobalMemory] = None,
    engine: str = "fast",
    obs=None,
    sanitize=None,
) -> Simulation:
    """Wire ``target`` to a fresh :class:`GPU` and begin it, unrun.

    A :class:`Workload` target is marked consumed (its memory image is
    the machine's); validating the run against it is the caller's
    business.  The other arguments are those of :func:`simulate`.
    """
    config = _resolve_config(config)
    if isinstance(target, Workload):
        if memory is not None:
            raise ValueError(
                "workload targets carry their own memory image; "
                "the memory= argument is only for launch/program targets"
            )
        if params is not None:
            raise ValueError(
                "params= applies when building a kernel by name or "
                "launching a bare program; this workload is already built"
            )
        if target.consumed:
            raise WorkloadReuseError(
                f"workload {target.name!r} has already been executed and "
                f"its memory image mutated; build a fresh one with "
                f"repro.kernels.build({target.name!r}, ...) for every run"
            )
        target.consumed = True
        memory, launch = target.memory, target.launch
    elif isinstance(target, Program):
        launch = KernelLaunch(
            program=target,
            grid_dim=1,
            block_dim=config.warp_size,
            params=dict(params or {}),
        )
    elif isinstance(target, KernelLaunch):
        if params is not None:
            raise ValueError(
                "params= is ignored for a prepared KernelLaunch; set "
                "launch.params instead"
            )
        launch = target
    else:
        raise TypeError(f"cannot simulate target {target!r}")
    gpu = GPU(config, memory=memory, engine=engine, obs=obs,
              sanitizer=sanitize)
    return gpu.begin(launch)


def simulate(
    target: SimTarget,
    *,
    config: Union[GPUConfig, str, None] = None,
    params: Optional[Dict[str, int]] = None,
    memory: Optional[GlobalMemory] = None,
    engine: str = "fast",
    validate: bool = True,
    obs=None,
    sanitize=None,
    checkpoint_every=None,
    checkpoint_path=None,
) -> SimResult:
    """Simulate ``target`` and return its :class:`SimResult`.

    Args:
        target: a kernel name, :class:`Workload`, :class:`KernelLaunch`,
            or :class:`Program` (run as one warp).
        config: a :class:`GPUConfig`, a preset name (``"fermi"`` /
            ``"pascal"``), or None for the Fermi preset.  Build richer
            configurations with :meth:`GPUConfig.preset`.
        params: kernel parameters.  For a named target they go to the
            workload builder; for a program target they become the
            launch's ``ld.param`` values.
        memory: initial global-memory image for launch/program targets
            (workloads carry their own).
        engine: ``"fast"``, the one engine; any other value is refused.
            Kept only because the ledger passes it.
        validate: for workload targets, run the workload's functional
            validation after simulation (skipped under ``magic_locks``,
            whose results are intentionally not meaningful).
        obs: observability collection — ``True`` for the defaults, an
            :class:`repro.obs.ObsConfig` to tune, or a prepared
            :class:`repro.obs.Observability` (the way to also record
            issues: ``Observability(issue_capacity=N)``).  The collected
            event bus and time series come back on ``result.obs``;
            collection never changes simulated behavior (statistics
            stay bitwise identical).
        sanitize: dynamic synchronization sanitizer — ``True`` for the
            defaults, a :class:`repro.analysis.SanitizerConfig` to tune,
            or a prepared :class:`repro.analysis.Sanitizer`.  Findings
            come back on ``result.sanitizer`` (see ``docs/analysis.md``);
            like obs, it never changes simulated behavior.
        checkpoint_every: autocheckpoint the complete machine state to
            ``checkpoint_path`` every N cycles (``True`` uses
            ``config.progress_epoch``), so a run killed or timed out by
            the watchdog can be continued with :func:`resume_simulation`
            instead of rerun.  Checkpointing never changes simulated
            behavior — a resumed run is bitwise-identical to an
            uninterrupted one (see ``docs/robustness.md``).
        checkpoint_path: where autocheckpoints go (required when
            ``checkpoint_every`` is set).

    Returns:
        The :class:`SimResult`, whose ``stats.summary()`` is the stable
        reporting schema (see :class:`repro.metrics.stats.SimStats`).
    """
    if isinstance(target, str):
        target = build_workload(target, **(params or {}))
        params = None
    sim = begin_simulation(target, config=config, params=params,
                           memory=memory, engine=engine, obs=obs,
                           sanitize=sanitize)
    result = sim.run(checkpoint_every=checkpoint_every,
                     checkpoint_path=checkpoint_path)
    if (isinstance(target, Workload) and validate
            and not sim.config.magic_locks):
        target.validate(result.memory)
    return result


def resume_simulation(
    checkpoint,
    *,
    check_fingerprint: bool = True,
    checkpoint_every=None,
    checkpoint_path=None,
    extend_max_cycles: Optional[int] = None,
) -> SimResult:
    """Continue a checkpointed simulation to completion.

    Args:
        checkpoint: a path to a ``*.ckpt`` file, a loaded
            :class:`~repro.sim.checkpoint.SimCheckpoint`, or a live
            :class:`~repro.sim.gpu.Simulation`.
        check_fingerprint: refuse checkpoints captured under different
            simulator code (pass ``False`` to override — the resumed
            run is then *not* guaranteed bitwise-faithful).
        checkpoint_every / checkpoint_path: keep autocheckpointing the
            continued run (same semantics as :func:`simulate`).
        extend_max_cycles: raise the cycle budget before resuming — the
            remedy for a run that hit :class:`SimulationTimeout`; only
            the watchdog's budget check reads this, so the continued
            execution stays cycle-exact.

    Returns:
        The completed :class:`SimResult`.  Functional validation is the
        caller's business (the lab layer rebuilds the deterministic
        workload and validates against the result's memory image).
    """
    if isinstance(checkpoint, Simulation):
        sim = checkpoint
    else:
        if not isinstance(checkpoint, SimCheckpoint):
            checkpoint = SimCheckpoint.load(
                checkpoint, check_fingerprint=check_fingerprint
            )
        sim = checkpoint.restore()
    if extend_max_cycles is not None:
        if extend_max_cycles < sim.config.max_cycles:
            raise ValueError(
                f"extend_max_cycles={extend_max_cycles} is below the "
                f"checkpoint's budget of {sim.config.max_cycles}"
            )
        sim.config = sim.config.replace(max_cycles=extend_max_cycles)
    return sim.run(
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
    )


__all__ = ["SimTarget", "begin_simulation", "resume_simulation", "simulate"]
