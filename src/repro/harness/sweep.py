"""Sweep builder: cartesian parameter products over RunSpecs.

A :class:`Sweep` names a set of axes (``kernel``, ``scheduler``,
``bows`` delay limit, …) and expands their cartesian product into
ordered combos.  A *spec factory* maps each combo to a
:class:`RunSpec`; :func:`experiment_spec` is the stock factory speaking
the paper's vocabulary (scheduler/bows/preset + the canonical workload
parameter registries).  ``Sweep.run`` fans the specs out through
:func:`~repro.submit.submit_many` — a :class:`~repro.lab.runner.Runner`
or a ``repro serve`` daemon — and returns a :class:`SweepResult`
pairing each combo with its outcome in the one
:class:`~repro.lab.runner.Batch`; its journal, when given one, is
the batch's record (``docs/lab.md``).
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Optional, Tuple,
                    Union)

from repro.analysis.sanitizer import SanitizerConfig
from repro.harness.params import params_for
from repro.lab.journal import load_journal, open_journal
from repro.lab.results import RunFailure, RunResult
from repro.lab.runner import Batch, Runner
from repro.lab.spec import RunSpec
from repro.obs import ObsConfig
from repro.sim.config import GPUConfig
from repro.submit import submit_many

SpecFactory = Callable[[Dict[str, Any]], RunSpec]


def _combo_label(combo: Dict[str, Any]) -> str:
    return " ".join(f"{k}={v}" for k, v in combo.items())


def experiment_spec(combo: Dict[str, Any]) -> RunSpec:
    """Stock factory: combo axes in the harness vocabulary.

    Recognized axes: ``kernel`` (required), ``scheduler``, ``bows``,
    ``ddos``, ``preset``, ``scale``, ``seed``, ``validate``, ``obs``
    (``True`` for default collection or an
    :class:`~repro.obs.ObsConfig`), ``sanitize`` (``True`` or a
    :class:`~repro.analysis.SanitizerConfig`); any other axis is passed
    through as a workload parameter override.
    """
    combo = dict(combo)
    kernel = combo.pop("kernel")
    scale = combo.pop("scale", "full")
    config = GPUConfig.preset(
        combo.pop("preset", "fermi"),
        scheduler=combo.pop("scheduler", "gto"),
        bows=combo.pop("bows", None),
        ddos=combo.pop("ddos", None),
    )
    seed = combo.pop("seed", None)
    validate = combo.pop("validate", True)
    obs = combo.pop("obs", None)
    if obs is True:
        obs = ObsConfig()
    sanitize = combo.pop("sanitize", None)
    if sanitize is True:
        sanitize = SanitizerConfig()
    params = params_for(kernel, scale)
    params.update(combo)  # leftover axes are workload parameters
    return RunSpec(kernel=kernel, config=config, params=params,
                   seed=seed, validate=validate,
                   obs=obs or None, sanitize=sanitize or None)


class Sweep:
    """Ordered cartesian product of named axes."""

    def __init__(self, name: str, **axes: Iterable) -> None:
        self.name = name
        self.axes: Dict[str, List] = {}
        for axis, values in axes.items():
            self.axis(axis, values)

    def axis(self, name: str, values: Iterable) -> "Sweep":
        values = list(values)
        if not values:
            raise ValueError(f"axis {name!r} has no values")
        self.axes[name] = values
        return self

    def combos(self) -> List[Dict[str, Any]]:
        names = list(self.axes)
        return [
            dict(zip(names, values))
            for values in itertools.product(*self.axes.values())
        ]

    def __len__(self) -> int:
        total = 1
        for values in self.axes.values():
            total *= len(values)
        return total

    def specs(self, factory: SpecFactory = experiment_spec) -> List[RunSpec]:
        specs = []
        for combo in self.combos():
            spec = factory(combo)
            if spec.label is None:
                # replace() keeps every other field (obs, sanitize,
                # ...) — the label is presentation-only.
                spec = dataclasses.replace(spec, label=_combo_label(combo))
            specs.append(spec)
        return specs

    def run(self, runner: Optional[Runner] = None,
            factory: SpecFactory = experiment_spec,
            journal=None, server=None) -> "SweepResult":
        """Execute the sweep; ``journal`` (a path or
        :class:`~repro.lab.journal.SweepJournal`) makes it resumable via
        :func:`resume_sweep` after a crash.

        ``server`` routes the whole sweep through a ``repro serve``
        daemon (address or connected client) instead of an in-process
        runner — the daemon's shared cache and in-flight dedup then
        apply across every client on the machine.
        """
        axes = {k: [repr(v) for v in vs] for k, vs in self.axes.items()}
        with open_journal(journal, "sweep", name=self.name,
                          axes=axes) as journal:
            batch = submit_many(self.specs(factory), server=server,
                                runner=runner, journal=journal,
                                client_name=f"sweep:{self.name}")
        return SweepResult(sweep=self, combos=self.combos(), batch=batch)


def resume_sweep(journal_path, runner: Optional[Runner] = None,
                 rerun_failed: bool = True, server=None) -> Batch:
    """Complete a sweep whose writer crashed, from its journal alone.

    Rebuilds every spec recorded in the journal and re-runs the whole
    batch through ``runner`` or ``server`` — with a result cache behind
    it, specs that already finished come back as cache hits (journaled
    as ``from_cache`` done records), so only genuinely unfinished work
    is recomputed; runs that left a checkpoint resume mid-simulation
    when the runner has a ``checkpoint_dir``.  ``rerun_failed=False``
    skips specs whose last journal record is a permanent failure.
    """
    state = load_journal(journal_path)
    specs = list(state.specs.values())
    if not rerun_failed:
        permanent = {h for h, rec in state.failed.items()
                     if not rec.get("transient") and h not in state.done}
        specs = [s for s in specs if s.content_hash() not in permanent]
    with open_journal(journal_path, "resume", pending=len(state.pending),
                      done=len(state.done)) as journal:
        return submit_many(specs, server=server, runner=runner,
                           journal=journal, client_name="resume")


@dataclass
class SweepResult:
    """Combos paired with their outcomes."""

    sweep: Sweep
    combos: List[Dict[str, Any]]
    batch: Batch

    def items(self) -> List[Tuple[Dict[str, Any],
                                  Union[RunResult, RunFailure]]]:
        return list(zip(self.combos, self.batch.outcomes()))

    def rows(self) -> List[Dict[str, Any]]:
        """Flat table rows (combo axes + headline outcome columns)."""
        rows = []
        for combo, outcome in self.items():
            row = dict(combo)
            if outcome.ok:
                row.update({
                    "status": "cached" if outcome.from_cache else "ok",
                    "cycles": outcome.cycles,
                    "ipc": round(outcome.stats.ipc, 3),
                    "simd_eff": round(outcome.stats.simd_efficiency, 3),
                    "energy_pj": round(outcome.stats.dynamic_energy_pj, 1),
                })
            else:
                row.update({
                    "status": "failed",
                    "cycles": "-",
                    "ipc": "-",
                    "simd_eff": "-",
                    "energy_pj": f"{outcome.error_type}",
                })
            rows.append(row)
        return rows
