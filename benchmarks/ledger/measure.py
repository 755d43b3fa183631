"""Measurement primitives of the ledger: ops, rounds, checks, the nine metrics.

A workload's timed section is a sequence of *rounds*; a round is a fixed
list of *ops* generated from the workload seed and the round index.
Whole rounds run until the time budget is spent, so a faster program
completes more rounds but every round measures the same work.

Every time-derived metric is computed **per round**, and the run reports
the quartile of the rounds on the metric's good side: the 75th
percentile of a rate, the 25th of a latency or a cost.  A shared host
only ever slows a round down, so the faster rounds are nearer the
program's own speed; a quartile rather than the extreme keeps one lucky
round from setting the number.  README.md has the measured spreads.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

#: The nine end-to-end metrics and their units, in report order.
#: ``failed_frac`` is printed by ``run.py`` but is not in BENCHMARK.json's
#: ``end_to_end`` (its healthy value is 0); the driver reads the same
#: fact from the result line's ``attempted``/``failed``.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "sim_kips": "kinstr/s",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "sim_cycles": "cycles",
}

_CLK_TCK = os.sysconf("SC_CLK_TCK")


@dataclass
class Op:
    """One measured operation."""

    latency_s: float
    #: Warp instructions executed by simulations that ran for this op
    #: (a cache hit executes none).
    instrs: int = 0
    #: Simulations this op ran, and the cycles they simulated.
    sims: int = 0
    cycles: int = 0
    ok: bool = True
    #: serve_mixed only: ``cached`` / ``novel`` / ``dup``.
    fate: Optional[str] = None
    #: Sum of ``RunResult.elapsed_s`` of the simulations this op ran.
    sim_elapsed_s: float = 0.0
    #: ``RunResult.phases`` summed over the simulations this op ran.
    phases: Dict[str, float] = field(default_factory=dict)


@dataclass
class Round:
    ops: List[Op]
    wall_s: float
    cpu_s: float
    #: Correctness checks of the round as a whole that failed (e.g. the
    #: daemon dispatched more simulations than distinct novel specs).
    failed_checks: int = 0


class Checker:
    """Every distinct spec must report one ``stats.summary()``, always.

    ``fixed`` holds the seed-independent specs of the workload (content
    hash -> (spec, SimStats)); ``sim_cycles``, ``sim_fingerprint`` and
    the ``model.*`` layer metrics are computed over exactly those, so
    they are identical for every seed, run length and commit that
    leaves the model alone.
    """

    def __init__(self) -> None:
        self._summaries: Dict[str, str] = {}
        self.fixed: Dict[str, tuple] = {}
        self.notes: List[str] = []
        #: Fault injection for the selftest (set once set-up is done):
        #: applied to every summary of a spec seen before.
        self.mutate: Optional[Callable[[dict], dict]] = None

    def same(self, spec_hash: str, summary: dict, path: str) -> bool:
        known = self._summaries.get(spec_hash)
        if known is not None and self.mutate is not None:
            summary = self.mutate(dict(summary))
        text = json.dumps(summary, sort_keys=True)
        if known is None:
            self._summaries[spec_hash] = text
            return True
        if known != text:
            self.note(f"{spec_hash[:10]}: summary via {path} differs "
                      f"from its first sighting")
            return False
        return True

    def add_fixed(self, spec_hash: str, spec, stats) -> None:
        self.fixed[spec_hash] = (spec, stats)

    def note(self, message: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(message)

    @property
    def sim_cycles(self) -> int:
        return sum(stats.cycles for _, stats in self.fixed.values())

    @property
    def sim_fingerprint(self) -> str:
        digest = hashlib.sha256()
        for spec_hash in sorted(self.fixed):
            digest.update(spec_hash.encode())
            digest.update(self._summaries[spec_hash].encode())
        return digest.hexdigest()


def _proc_tree_cpu_s(pid: int) -> float:
    """user+sys CPU of a live process, its reaped and its live children."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            fields = handle.read().rsplit(b") ", 1)[1].split()
        # After the "(comm) " prefix: utime stime cutime cstime are
        # fields 14-17 of proc(5), i.e. indexes 11-14 here.
        ticks = sum(int(f) for f in fields[11:15])
        children: List[int] = []
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children", "rb") as handle:
                children.extend(int(c) for c in handle.read().split())
    except (OSError, IndexError, ValueError):
        return 0.0  # the process ended between two reads
    return ticks / _CLK_TCK + sum(_proc_tree_cpu_s(c) for c in children)


def cpu_seconds(live_pids: Iterable[int] = ()) -> float:
    """CPU of this process, its reaped children, and ``live_pids`` trees.

    ``RUSAGE_CHILDREN`` only counts children already waited for; the
    serve daemon lives through the whole timed section, so its tree is
    read from ``/proc`` instead.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return total + sum(_proc_tree_cpu_s(pid) for pid in live_pids)


def peak_rss_mb() -> float:
    """Max of own and reaped-children peak RSS (``ru_maxrss`` is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def percentile(values: List[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (need not be sorted)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def run_rounds(run_round: Callable[[int], Round], seconds: float,
               first_index: int = 0) -> List[Round]:
    """Run whole rounds until ``seconds`` have passed (at least one)."""
    rounds: List[Round] = []
    deadline = time.perf_counter() + seconds
    while True:
        rounds.append(run_round(first_index + len(rounds)))
        if time.perf_counter() >= deadline:
            return rounds


def good_quartile(values: List[float], better: str) -> float:
    """The quartile of ``values`` on the side ``better`` points to."""
    return percentile(values, 75.0 if better == "higher" else 25.0)


def failed_ops(rounds: List[Round]) -> int:
    """Ops that failed, a failed whole-round check counting as one."""
    failed = sum(rnd.failed_checks + sum(1 for op in rnd.ops if not op.ok)
                 for rnd in rounds)
    return min(failed, sum(len(rnd.ops) for rnd in rounds))


def end_to_end(rounds: List[Round], tail_pct: float, setup_s: float,
               sim_cycles: int) -> Dict[str, float]:
    """The nine end-to-end metrics of one untraced run (rss filled later)."""

    def latency_pct(pct: float) -> float:
        return good_quartile(
            [percentile([op.latency_s * 1e3 for op in r.ops], pct)
             for r in rounds], "lower")

    return {
        "setup_s": setup_s,
        "ops_per_s": good_quartile(
            [len(r.ops) / r.wall_s for r in rounds], "higher"),
        "op_ms_p50": latency_pct(50.0),
        "op_ms_tail": latency_pct(tail_pct),
        "sim_kips": good_quartile(
            [sum(op.instrs for op in r.ops) / r.wall_s / 1e3
             for r in rounds], "higher"),
        "cpu_ms_per_op": good_quartile(
            [r.cpu_s * 1e3 / len(r.ops) for r in rounds], "lower"),
        "peak_rss_mb": 0.0,
        "failed_frac": failed_ops(rounds) / sum(len(r.ops) for r in rounds),
        "sim_cycles": sim_cycles,
    }
