"""Stable simulation facade: one entry point for every way to run a kernel.

Every consumer of the simulator — the CLI, the experiment harness, the
lab runner, the fuzzer, the benchmarks — wires a GPU the same way, so
that wiring lives here exactly once.  :func:`simulate` accepts any of the
four things callers naturally hold:

* a kernel **name** (``"ht"``) — built fresh via :func:`repro.kernels.build`
  with ``params`` forwarded to the builder;
* a built :class:`~repro.kernels.base.Workload` — validated after the run
  and guarded against accidental reuse;
* a bare :class:`~repro.sim.gpu.KernelLaunch`;
* a bare :class:`~repro.isa.program.Program` — wrapped in a single-warp
  launch (one CTA of one warp), the idiom unit tests use.

Quickstart::

    from repro.api import simulate
    from repro.sim.config import GPUConfig

    result = simulate("ht", config=GPUConfig.preset("fermi", bows="adaptive"))
    print(result.stats.summary())
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
# The unified submission API lives in repro.submit; re-exported here so
# `from repro.api import submit` is the one import every tool needs.
from repro.submit import (RunFailedError, RunHandle, SubmitBatch, submit,
                          submit_many)

#: What :func:`simulate` accepts as its target.
SimTarget = Union[str, Workload, KernelLaunch, Program]

#: How :func:`simulate` accepts watchdog overrides.
WatchdogSpec = Union[None, bool, int, Dict[str, int]]


def _resolve_config(config: Union[GPUConfig, str, None],
                    scheduler: Optional[str],
                    watchdog: WatchdogSpec) -> GPUConfig:
    if config is None:
        config = GPUConfig.preset("fermi")
    elif isinstance(config, str):
        config = GPUConfig.preset(config)
    elif not isinstance(config, GPUConfig):
        raise TypeError(f"cannot interpret config={config!r}")
    if scheduler is not None:
        config = config.replace(scheduler=scheduler)
    if watchdog is None:
        return config
    if watchdog is False:
        return config.replace(no_progress_window=0)
    if watchdog is True:
        return config  # keep the preset's watchdog settings
    if isinstance(watchdog, int):
        return config.replace(no_progress_window=watchdog)
    if isinstance(watchdog, dict):
        return config.replace(**watchdog)
    raise TypeError(f"cannot interpret watchdog={watchdog!r}")


def simulate(
    target: SimTarget,
    *,
    config: Union[GPUConfig, str, None] = None,
    scheduler: Optional[str] = None,
    params: Optional[Dict[str, int]] = None,
    memory: Optional[GlobalMemory] = None,
    watchdog: WatchdogSpec = None,
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
        scheduler: override the config's base policy
            (``lrr``/``gto``/``cawa``).
        params: kernel parameters.  For a named target they go to the
            workload builder; for a launch/program target they become
            the launch's ``ld.param`` values.
        memory: initial global-memory image for launch/program targets
            (workloads carry their own).
        watchdog: forward-progress watchdog control — ``False``/``0``
            disables it, an integer sets ``no_progress_window``, a dict
            overrides any watchdog-related config fields verbatim.
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
    config = _resolve_config(config, scheduler, watchdog)

    if isinstance(target, str):
        target = build_workload(target, **(params or {}))
        params = None

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
        workload = target
        if workload.consumed:
            raise WorkloadReuseError(
                f"workload {workload.name!r} has already been executed and "
                f"its memory image mutated; build a fresh one with "
                f"repro.kernels.build({workload.name!r}, ...) for every run"
            )
        workload.consumed = True
        gpu = GPU(config, memory=workload.memory, engine=engine, obs=obs,
                  sanitizer=sanitize)
        result = gpu.begin(workload.launch).run(
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
        )
        if validate and not config.magic_locks:
            workload.validate(result.memory)
        return result

    if isinstance(target, Program):
        target = KernelLaunch(
            program=target,
            grid_dim=1,
            block_dim=config.warp_size,
            params=dict(params or {}),
        )
    elif params is not None:
        raise ValueError(
            "params= is ignored for a prepared KernelLaunch; set "
            "launch.params instead"
        )

    if not isinstance(target, KernelLaunch):
        raise TypeError(f"cannot simulate target {target!r}")

    gpu = GPU(config, memory=memory, engine=engine, obs=obs,
              sanitizer=sanitize)
    return gpu.begin(target).run(
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
    )


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
