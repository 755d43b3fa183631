"""The ledger's four workloads: input generation, ops, correctness checks.

Each workload turns ``--seed`` into RunSpecs and hands the program only
those.  The two simulator workloads keep every kernel's default data
seed for every ``--seed``: the sync kernels' simulated work is chaotic
in the data (``ds`` under BOWS: 229 220 cycles at its default seed,
508 316 at the next one), which would bury a host-speed change under
input variance, and the defaults keep ``sim_cycles`` comparable with
``EXPERIMENTS.md``.  There the seed permutes the op order of each pass
(which kernel's two configs run back to back, what a per-program cache
would see).  Seeded *data* lives in ``lab_quick_sweep`` and
``serve_mixed``, whose novel specs carry seeds derived from the
workload seed.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import simulate, submit_many
from repro.harness.params import sync_free_params, sync_params
from repro.harness.runner import make_config
from repro.kernels import SYNC_FREE_KERNELS, SYNC_KERNELS
from repro.lab.cache import ResultCache
from repro.lab.results import RunResult
from repro.lab.runner import Runner
from repro.lab.spec import RunSpec
from repro.serve.client import ServeClient, ServeError

from measure import Checker, Op, Round, cpu_seconds

SRC_DIR = Path(__file__).resolve().parents[2] / "src"
NPROC = os.cpu_count() or 1

#: A spec paired with its content hash (computed once, at generation).
Hashed = Tuple[RunSpec, str]


def two_configs():
    """The paper's comparison: Fermi GTO vs GTO + adaptive BOWS + DDOS."""
    return (("gto", make_config("gto")),
            ("bows", make_config("gto", bows="adaptive", ddos=True)))


def make_specs(kernels: Sequence[str], params: Dict[str, dict],
               seed: Optional[int] = None,
               configs=None) -> List[Hashed]:
    specs = []
    for kernel in kernels:
        for label, config in configs or two_configs():
            spec = RunSpec(kernel=kernel, config=config,
                           params=dict(params[kernel]), seed=seed,
                           label=f"{kernel}/{label}")
            specs.append((spec, spec.content_hash()))
    return specs


def _add_phases(total: Dict[str, float], phases: Dict[str, float]) -> None:
    for key, value in phases.items():
        total[key] = total.get(key, 0.0) + value


class Workload:
    """Set-up, rounds of ops, teardown.  ``run_round`` is the timed unit."""

    name = ""
    why = ""
    op = ""
    #: Percentile reported as ``op_ms_tail``.
    tail_pct = 0.0
    #: Which wrappers ``--trace`` installs (see ``tracing.install``).
    layers = ""

    def __init__(self, seed: int, scale: str, workdir: Path,
                 checker: Checker) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.checker = checker
        #: Set by ``run.py`` while the traced rounds run.
        self.tracer = None
        #: Live child processes whose CPU ``RUSAGE_CHILDREN`` cannot see.
        self.live_pids: List[int] = []

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def plan(self, index: int):
        """Generate round ``index``'s inputs (untimed)."""
        raise NotImplementedError

    def execute(self, plan) -> List[Op]:
        raise NotImplementedError

    def run_round(self, index: int) -> Round:
        plan = self.plan(index)
        cpu0 = cpu_seconds(self.live_pids)
        t0 = time.perf_counter()
        ops = self.execute(plan)
        wall = time.perf_counter() - t0
        cpu = cpu_seconds(self.live_pids) - cpu0
        return Round(ops, wall, cpu)

    def _op_span(self, op_id: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.op(op_id)

    def _rng(self, *parts) -> random.Random:
        return random.Random("/".join(str(p) for p in (self.seed,) + parts))

    def _fail(self, what: str) -> None:
        self.checker.note(f"{self.name}: {what}")


# ----------------------------------------------------------------------
# In-process simulator workloads


class SimWorkload(Workload):
    """op = one in-process ``repro.api.simulate`` of a fixed spec."""

    kernels: Sequence[str] = ()
    op = "one in-process repro.api.simulate(kernel, config, params)"
    layers = "sim"
    warmup_passes = 0

    def _params(self, scale: str) -> Dict[str, dict]:
        raise NotImplementedError

    def _warmup_specs(self) -> List[Hashed]:
        return self.specs * self.warmup_passes

    def setup(self) -> None:
        self.specs = make_specs(self.kernels, self._params(self.scale))
        self.fixed = {spec_hash for _, spec_hash in self.specs}
        self.op_count = 0
        for hashed in self._warmup_specs():
            if not self._sim_op(hashed).ok:
                raise RuntimeError(f"{self.name}: warm-up simulation failed: "
                                   f"{self.checker.notes}")

    def plan(self, index: int) -> List[Hashed]:
        order = list(self.specs)
        self._rng("order", index).shuffle(order)
        return order

    def execute(self, plan: List[Hashed]) -> List[Op]:
        return [self._sim_op(hashed) for hashed in plan]

    def _sim_op(self, hashed: Hashed) -> Op:
        spec, spec_hash = hashed
        self.op_count += 1
        result = None
        with self._op_span(f"{spec.label}#{self.op_count}"):
            t0 = time.perf_counter()
            try:
                # validate=True: a functionally wrong kernel raises here.
                result = simulate(spec.kernel, config=spec.config,
                                  params=spec.build_params(),
                                  engine=spec.engine, validate=spec.validate)
            except Exception:  # noqa: BLE001 - a failed op, counted below
                self._fail(f"{spec.label} raised:\n{traceback.format_exc()}")
            latency = time.perf_counter() - t0
        if result is None:
            return Op(latency, ok=False)
        ok = self.checker.same(spec_hash, result.stats.summary(), "direct")
        if spec_hash in self.fixed:
            self.checker.add_fixed(spec_hash, spec, result.stats)
        return Op(latency, instrs=result.stats.warp_instructions, sims=1,
                  cycles=result.cycles, ok=ok)


class SyncSim(SimWorkload):
    name = "sync_sim"
    why = ("the paper's evaluation traffic: 8 spin-lock/wait kernels x "
           "{GTO, GTO+BOWS+DDOS}; sim.sm issue path, memory.atomic, "
           "core.ddos, core.bows do all the work, lab and serve none")
    kernels = SYNC_KERNELS
    tail_pct = 75.0

    def _params(self, scale):
        return sync_params(scale)

    def _warmup_specs(self):
        # One small run of every kernel under the config that touches
        # every layer (DDOS, BOWS, atomics); a full pass costs 13 s.
        return make_specs(self.kernels, sync_params("quick"),
                          configs=two_configs()[1:])


class SyncFreeSim(SimWorkload):
    name = "syncfree_sim"
    why = ("same simulator, other layers: 7 sync-free kernels stress "
           "ALU/ld/st/coalescer/L1 with no atomics or back-off, and "
           "per-run fixed cost (build, assemble, decode) is 5x the share")
    kernels = SYNC_FREE_KERNELS
    tail_pct = 98.0
    warmup_passes = 2

    def _params(self, scale):
        return sync_free_params(scale)


# ----------------------------------------------------------------------
# lab: mini-sweeps through a process pool and a fresh cache


def _injected_failure(spec: RunSpec) -> RunResult:
    """Selftest fault: every run of the pool fails (``Runner(run_fn=)``)."""
    raise ValueError("injected run failure")


class LabQuickSweep(Workload):
    name = "lab_quick_sweep"
    why = ("8 novel ~7 ms specs per submit_many: spec hashing, per-batch "
           "pool creation, pickling, cache writes and runner bookkeeping "
           "are a large share of the op, the simulator a small one")
    op = ("one repro.submit.submit_many of 8 distinct novel quick-scale "
          "specs through Runner(workers=nproc, mode='process', fresh cache)")
    tail_pct = 95.0
    layers = "lab"
    kernels = ("vecadd", "kmeans", "stencil", "histogram")
    ops_per_round = 25
    warmup_ops = 5

    def __init__(self, *args, inject_run_failure: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self._run_fn = _injected_failure if inject_run_failure else None
        self._setups = 0

    def _sweep(self, number: Optional[int]) -> List[Hashed]:
        """Mini-sweep ``number`` (None: the fixed one, default data)."""
        data_seed = None if number is None else (
            ((self.seed + 1) << 24) + number)
        specs = make_specs(self.kernels, sync_free_params("quick"),
                           seed=data_seed)
        if len({spec_hash for _, spec_hash in specs}) != len(specs):
            raise RuntimeError("mini-sweep specs are not distinct")
        return specs

    def setup(self) -> None:
        self._setups += 1
        self.cache_dir = self.workdir / f"lab-cache-{self._setups}"
        self.runner = Runner(workers=NPROC, mode="process",
                             cache=ResultCache(self.cache_dir), retries=0,
                             run_fn=self._run_fn)
        self.retries = self.worker_losses = 0
        # The fixed sweep travels both roads: direct first, then lab.
        self.fixed_sweep = self._sweep(None)
        for spec, spec_hash in self.fixed_sweep:
            result = simulate(spec.kernel, config=spec.config,
                              params=spec.build_params())
            self.checker.same(spec_hash, result.stats.summary(), "direct")
            self.checker.add_fixed(spec_hash, spec, result.stats)
        warmups = [self.fixed_sweep] + [
            self._sweep(n) for n in range(1, self.warmup_ops)]
        for sweep in warmups:
            if not self.sweep_op(sweep, "warmup").ok and not self._run_fn:
                raise RuntimeError(f"{self.name}: warm-up sweep failed: "
                                   f"{self.checker.notes}")

    def teardown(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def plan(self, index: int) -> List[List[Hashed]]:
        first = self.warmup_ops + index * self.ops_per_round
        return [self._sweep(first + j) for j in range(self.ops_per_round)]

    def execute(self, plan) -> List[Op]:
        ops = [self.sweep_op(sweep, f"sweep{i}")
               for i, sweep in enumerate(plan)]
        # Each batch leaves its pool to be reaped in the background;
        # reap here so the round's children CPU is the round's.
        deadline = time.monotonic() + 5.0
        while multiprocessing.active_children() \
                and time.monotonic() < deadline:
            time.sleep(0.002)
        return ops

    def sweep_op(self, sweep: List[Hashed], op_id: str,
                  expect_cached: bool = False) -> Op:
        outcomes = None
        with self._op_span(op_id):
            t0 = time.perf_counter()
            try:
                batch = submit_many([spec for spec, _ in sweep],
                                    runner=self.runner)
                outcomes = batch.outcomes()
            except Exception:  # noqa: BLE001 - a failed op, counted below
                self._fail(f"submit_many raised:\n{traceback.format_exc()}")
            latency = time.perf_counter() - t0
        if outcomes is None:
            return Op(latency, ok=False)
        report = batch.report
        if report.interrupted:
            raise KeyboardInterrupt
        self.retries += report.retried
        self.worker_losses += report.worker_losses
        op = Op(latency)
        for (spec, spec_hash), outcome in zip(sweep, outcomes):
            if not isinstance(outcome, RunResult):
                self._fail(f"{spec.label}: {outcome.describe()}")
                op.ok = False
                continue
            if outcome.spec_hash != spec_hash \
                    or outcome.from_cache != expect_cached \
                    or not self.checker.same(
                        spec_hash, outcome.stats.summary(), "lab"):
                self._fail(f"{spec.label}: wrong result via lab")
                op.ok = False
            if not outcome.from_cache:
                op.instrs += outcome.stats.warp_instructions
                op.sims += 1
                op.cycles += outcome.cycles
                op.sim_elapsed_s += outcome.elapsed_s
                _add_phases(op.phases, outcome.phases or {})
        return op


# ----------------------------------------------------------------------
# serve: a daemon subprocess, closed-loop clients, a seeded fate mix


class ServeMixed(Workload):
    name = "serve_mixed"
    why = ("a repro serve daemon under 90% cached / 5% novel / 5% "
           "duplicate-in-flight closed-loop traffic: serve.* layers and "
           "the cache read path carry most ops, novel sims set the tail")
    op = ("client.submit(spec).outcome() over a Unix socket; a duplicate "
          "op submits one novel spec, then again once it is dispatched, "
          "and waits for the second")
    tail_pct = 99.0
    layers = "serve"
    cached_kernels = ("vecadd", "kmeans", "stencil", "histogram")
    cached_variants = 8
    #: Per connection and round; 90 / 5 / 5.
    fates = ("cached",) * 90 + ("novel",) * 5 + ("dup",) * 5
    connections = min(2, NPROC)
    #: The smallest ``ht`` that still contends (64 threads, 8 buckets):
    #: ~15 ms a simulation, so a round is ~0.5 s and a run has dozens.
    novel_params = dict(n_threads=64, n_buckets=8, items_per_thread=1,
                        block_dim=64)
    op_timeout_s = 60.0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._setups = 0
        self.daemon: Optional[subprocess.Popen] = None
        self.clients: List[ServeClient] = []
        self.twins: List[ServeClient] = []
        self.counter_deltas: Dict[str, int] = {}
        self.novel_config = two_configs()[1][1]
        self._log = None

    # -- set-up / teardown ---------------------------------------------

    def setup(self) -> None:
        self._setups += 1
        self.home = self.workdir / f"serve-{self._setups}"
        self.home.mkdir(parents=True)
        self.cache_dir = self.home / "cache"
        # A Unix socket path is capped near 100 bytes; the daemon shares
        # our cwd, so the relative spelling works for both sides.
        self.sock = min((str(self.home / "d.sock"),
                         os.path.relpath(self.home / "d.sock")), key=len)
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR),
                   TMPDIR=str(self.home),  # the daemon's progress spool
                   REPRO_LAB_CACHE_DIR=str(self.cache_dir))
        self._log = open(self.home / "daemon.log", "wb")
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", self.sock,
             "--mode", "process", "--workers", str(max(1, NPROC - 1)),
             "--cache-dir", str(self.cache_dir),
             "--journal", str(self.home / "journal.jsonl"), "--quiet"],
            env=env, stdout=self._log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.live_pids = [self.daemon.pid]
        self.clients = [self._connect(f"conn{i}")
                        for i in range(self.connections)]
        # A duplicate's second submit goes out on a second connection of
        # the same loop: two clients asking for one spec is the dedup
        # case that matters, and it keeps clear of a ServeClient defect
        # (see "Defects this benchmark found" in README.md).
        self.twins = [self._connect(f"conn{i}b")
                      for i in range(self.connections)]
        self._populate()

    def _connect(self, name: str) -> ServeClient:
        deadline = time.monotonic() + 20.0
        while True:
            try:
                return ServeClient(self.sock, name=name)
            except (OSError, ServeError):
                if self.daemon.poll() is not None:
                    raise RuntimeError(
                        "repro serve exited during start-up: "
                        + (self.home / "daemon.log").read_text()[-2000:])
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.02)

    def _populate(self) -> None:
        """Fill the daemon's cache with the fixed working set."""
        params = sync_free_params("quick")
        self.cached: List[Hashed] = []
        for variant in range(self.cached_variants):
            self.cached += make_specs(self.cached_kernels, params,
                                      seed=None if variant == 0 else variant)
        client = self.clients[0]
        handles = [client.submit(spec, stream=False)
                   for spec, _ in self.cached]
        for (spec, spec_hash), handle in zip(self.cached, handles):
            outcome = handle.outcome(self.op_timeout_s)
            if not isinstance(outcome, RunResult):
                raise RuntimeError(f"pre-population of {spec.label} failed: "
                                   f"{outcome.describe()}")
            self.checker.same(spec_hash, outcome.stats.summary(), "served")
            self.checker.add_fixed(spec_hash, spec, outcome.stats)
        # The default-data variant also travels the direct road.
        for spec, spec_hash in self.cached[:2 * len(self.cached_kernels)]:
            result = simulate(spec.kernel, config=spec.config,
                              params=spec.build_params())
            if not self.checker.same(spec_hash, result.stats.summary(),
                                     "direct"):
                raise RuntimeError(f"{spec.label}: served != direct")

    def teardown(self) -> None:
        for client in self.clients + self.twins:
            client.close()
        self.clients, self.twins = [], []
        daemon, self.daemon = self.daemon, None
        self.live_pids = []
        if daemon is not None:
            if daemon.poll() is None:
                daemon.send_signal(signal.SIGTERM)  # drains, then exits
            try:
                daemon.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                pass
            # Whatever is left of the daemon's session (a wedged daemon,
            # orphaned pool workers) goes now; usually nothing is.
            with contextlib.suppress(ProcessLookupError, PermissionError):
                os.killpg(daemon.pid, signal.SIGKILL)
            daemon.wait()
        if self._log is not None:
            self._log.close()
            self._log = None
        shutil.rmtree(self.home, ignore_errors=True)

    # -- rounds ----------------------------------------------------------

    def _novel(self, index: int, conn: int, slot: int) -> Hashed:
        data_seed = (((self.seed + 1) << 24) + (index << 12)
                     + (conn << 10) + slot)
        spec = RunSpec(kernel="ht", config=self.novel_config,
                       params=dict(self.novel_params),
                       seed=data_seed, label=f"ht/novel{data_seed}")
        return spec, spec.content_hash()

    def plan(self, index: int):
        """Per connection: a shuffled list of (fate, spec, hash)."""
        plans = []
        for conn in range(self.connections):
            rng = self._rng("fates", index, conn)
            fates = list(self.fates)
            rng.shuffle(fates)
            ops = []
            for slot, fate in enumerate(fates):
                if fate == "cached":
                    ops.append((fate,) + rng.choice(self.cached))
                else:
                    ops.append((fate,) + self._novel(index, conn, slot))
            plans.append(ops)
        return plans

    def execute(self, plans) -> List[Op]:
        results: List[List[Op]] = [[] for _ in plans]

        def loop(conn: int) -> None:
            for slot, (fate, spec, spec_hash) in enumerate(plans[conn]):
                results[conn].append(self._serve_op(
                    conn, fate, spec, spec_hash, f"c{conn}.{slot}"))

        threads = [threading.Thread(target=loop, args=(conn,))
                   for conn in range(len(plans))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [op for ops in results for op in ops]

    def run_round(self, index: int) -> Round:
        before = self.clients[0].status()["counters"]
        rnd = super().run_round(index)
        after = self.clients[0].status()["counters"]
        delta = {k: after[k] - before[k] for k in after}
        for key, value in delta.items():
            self.counter_deltas[key] = self.counter_deltas.get(key, 0) + value
        # Duplicates must have been simulated once: one dispatch per
        # distinct novel spec, none for a cached op.
        novel = sum(1 for op in rnd.ops if op.fate != "cached")
        if delta["dispatched"] != novel:
            self._fail(f"daemon dispatched {delta['dispatched']} simulations "
                       f"for {novel} distinct novel specs")
            rnd.failed_checks += 1
        return rnd

    def _serve_op(self, conn: int, fate: str, spec: RunSpec,
                  spec_hash: str, op_id: str) -> Op:
        client = self.clients[conn]
        outcome = first = other = None
        with self._op_span(op_id):
            t0 = time.perf_counter()
            try:
                handle = client.submit(spec, stream=fate == "dup")
                if fate == "dup":
                    # Resubmit once the daemon reports the job dispatched
                    # (see "Defects this benchmark found" in README.md).
                    for message in handle.stream():
                        if message["data"].get("phase") == "dispatched":
                            break
                    first, handle = handle, self.twins[conn].submit(
                        spec, stream=False)
                outcome = handle.outcome(self.op_timeout_s)
                latency = time.perf_counter() - t0
                if first is not None:  # untimed: the op ended above
                    other = first.outcome(self.op_timeout_s)
            except Exception:  # noqa: BLE001 - a failed op, counted below
                latency = time.perf_counter() - t0
                self._fail(f"{fate} op raised:\n{traceback.format_exc()}")
                return Op(latency, ok=False, fate=fate)
        # A duplicate's second handle attaches to the job in flight; if
        # the client lost the race and the job had finished, the cache
        # serves it.  It is never queued: that would simulate it twice
        # (the round's dispatched-counter check catches that too).
        expected = {"cached": ("cached",), "novel": ("queued",),
                    "dup": ("attached", "cached")}
        ok = (isinstance(outcome, RunResult)
              and handle.status in expected[fate]
              and outcome.from_cache == (handle.status == "cached")
              and self.checker.same(spec_hash, outcome.stats.summary(),
                                    "served"))
        if ok and first is not None:
            ok = (isinstance(other, RunResult) and first.status == "queued"
                  and self.checker.same(spec_hash, other.stats.summary(),
                                        "served"))
        if not ok:
            self._fail(f"{spec.label}: {fate} op returned "
                       f"{getattr(outcome, 'error_type', 'a wrong result')} "
                       f"(status {handle.status})")
            return Op(latency, ok=False, fate=fate)
        if fate == "cached":
            return Op(latency, fate=fate)
        return Op(latency, instrs=outcome.stats.warp_instructions, sims=1,
                  cycles=outcome.cycles, fate=fate,
                  sim_elapsed_s=outcome.elapsed_s,
                  phases=dict(outcome.phases or {}))


WORKLOADS = {cls.name: cls
             for cls in (SyncSim, SyncFreeSim, LabQuickSweep, ServeMixed)}
