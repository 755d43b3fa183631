"""Outside-in tracing: the benchmark wraps each layer's public entry points.

Nothing under ``src/`` knows it is being traced.  ``install`` swaps the
public functions and methods of a layer for timing wrappers (on the
class, on the module attribute, or — for the fast engine's per-instance
``SM.step`` — on each instance as ``GPU.begin`` hands it back), and
returns the undo list.  Two kinds of wrapper share one per-thread frame
stack, so self time is well defined across them:

* **span** — per-op layers (build, begin, run, validate, a lab batch):
  one record each with name, start, end, parent span and op id;
* **aggregate** — per-cycle call sites (``SM.step``, ``memsys.atomic``,
  ``bows.on_issue``): ``(calls, total_ns, self_ns)`` per name only.

Self time is a call's duration minus the time its traced children
cover.  Spans stay in memory; ``run.py`` writes them out at exit.
"""

from __future__ import annotations

import contextlib
import json
import pickle
import statistics
import sys
import threading
import time
from math import exp, log
from typing import Callable, Dict, List, Optional

from measure import percentile

_clock = time.perf_counter_ns

#: Every per-layer metric and its unit.  ``run.py --trace`` prints all
#: of them for every workload; a layer a workload never enters reads 0.
LAYER_UNITS = {
    "trace_overhead": "ratio",
    "kernels.build_s": "s", "kernels.build_calls": "count",
    "isa.assemble_s": "s",
    "sim.gpu.begin_s": "s", "sim.executor.decode_s": "s",
    "sim.gpu.run_s": "s", "sim.gpu.loop_self_s": "s",
    "sim.sm.step_s": "s", "sim.sm.step_calls": "count",
    "sim.sm.step_self_s": "s",
    "sim.sm.next_event_s": "s", "sim.sm.next_event_calls": "count",
    "sim.sm.occupancy_s": "s",
    "sim.schedulers.select_s": "s", "sim.schedulers.select_calls": "count",
    "memory.atomic_s": "s", "memory.atomic_calls": "count",
    "memory.load_s": "s", "memory.load_calls": "count",
    "memory.store_s": "s", "memory.store_calls": "count",
    "core.ddos.observe_s": "s", "core.ddos.observe_calls": "count",
    "core.bows.issue_s": "s", "core.bows.issue_calls": "count",
    "core.bows.select_s": "s", "core.bows.select_calls": "count",
    "kernels.validate_s": "s",
    "sim.host_us_per_instr": "us", "sim.host_us_per_cycle": "us",
    "sim.kcycles_per_s": "kcycles/s",
    "model.ipc": "instr/cycle", "model.simd_efficiency": "ratio",
    "model.l1_hit_rate": "ratio", "model.lock_fail_rate": "ratio",
    "model.backed_off_fraction": "ratio",
    "model.bows_gmean_speedup_gto": "ratio",
    "model.paper_fig9_rel_err": "ratio",
    "lab.spec.hash_us": "us",
    "lab.cache.put_us": "us", "lab.cache.get_miss_us": "us",
    "lab.cache.get_hit_us": "us",
    "lab.results.pickle_us": "us", "lab.results.pickle_bytes": "B",
    "lab.runner.batch_overhead_ms": "ms", "lab.runner.overhead_frac": "ratio",
    "lab.runner.warm_ms_per_spec": "ms",
    "lab.worker.build_s": "s", "lab.worker.simulate_s": "s",
    "lab.worker.score_s": "s",
    "lab.runner.retries": "count", "lab.runner.worker_losses": "count",
    "serve.protocol.ping_us": "us", "serve.client.connect_ms": "ms",
    "serve.wire.encode_us": "us", "serve.wire.decode_us": "us",
    "serve.wire.bytes": "B",
    "serve.jobstore.classify_us": "us", "serve.scheduler.push_pop_us": "us",
    "serve.cached_ms_p50": "ms", "serve.cached_ms_p99": "ms",
    "serve.attached_ms_p50": "ms", "serve.novel_overhead_ms_p50": "ms",
    "serve.counter.cache_hits": "count", "serve.counter.attached": "count",
    "serve.counter.dispatched": "count", "serve.counter.retried": "count",
    "serve.counter.worker_losses": "count", "serve.dedup_ratio": "ratio",
}

#: The paper's Figure 9: BOWS+DDOS over GTO, gmean over the 8 kernels.
PAPER_FIG9_GMEAN = 1.4


class Tracer:
    """In-memory span store plus per-name aggregates."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        #: name -> [calls, total_ns, self_ns]
        self.agg: Dict[str, List[int]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _state(self):
        local = self._local
        try:
            return local.frames, local.open
        except AttributeError:
            local.frames, local.open, local.op_id = [], [], None
            return local.frames, local.open

    def aggregate(self, name: str, fn: Callable,
                  split: Optional[Callable] = None) -> Callable:
        """Wrap a hot call site: count and time it, keep no record.

        ``split(result)`` picks, per call, which of several aggregates
        the call belongs to (a cache ``get`` is a hit or a miss only
        once it returns).
        """
        agg = self.agg
        entry = agg.setdefault(name, [0, 0, 0])
        local = self._local
        state = self._state

        def wrapper(*args, **kwargs):
            try:
                frames = local.frames
            except AttributeError:  # first traced call on this thread
                frames, _ = state()
            frame = [0]
            frames.append(frame)
            result = None
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = _clock() - t0
                frames.pop()
                target = entry if split is None else agg.setdefault(
                    split(result), [0, 0, 0])
                target[0] += 1
                target[1] += dt
                target[2] += dt - frame[0]
                if frames:
                    frames[-1][0] += dt

        return wrapper

    def span(self, name: str, fn: Callable) -> Callable:
        """Wrap a per-op layer entry point: one full record per call."""

        def wrapper(*args, **kwargs):
            with self._record(name):
                return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def _record(self, name: str):
        frames, open_spans = self._state()
        record = {"name": name, "op": self._local.op_id,
                  "parent": open_spans[-1] if open_spans else None}
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        frame = [0]
        frames.append(frame)
        open_spans.append(index)
        record["start_ns"] = t0 = _clock()
        try:
            yield
        finally:
            record["end_ns"] = end = _clock()
            open_spans.pop()
            frames.pop()
            record["self_ns"] = end - t0 - frame[0]
            if frames:
                frames[-1][0] += end - t0

    @contextlib.contextmanager
    def op(self, op_id: str):
        """The root span of one op; its id labels every span beneath."""
        self._state()
        self._local.op_id = op_id
        try:
            with self._record("op"):
                yield
        finally:
            self._local.op_id = None

    def totals(self) -> Dict[str, List[int]]:
        """``name -> [calls, total_ns, self_ns]`` over spans and aggregates."""
        totals = {name: list(entry) for name, entry in self.agg.items()}
        for record in self.spans:
            entry = totals.setdefault(record["name"], [0, 0, 0])
            entry[0] += 1
            entry[1] += record["end_ns"] - record["start_ns"]
            entry[2] += record["self_ns"]
        return totals

    def to_json(self) -> dict:
        return {
            "spans": self.spans,
            "aggregates": {
                name: {"calls": c, "total_ns": t, "self_ns": s}
                for name, (c, t, s) in sorted(self.agg.items())
            },
        }


# ----------------------------------------------------------------------
# Installing the wrappers


def _patch_attr(undo: list, owner, attr: str, value) -> None:
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, value)


def _patch_function(undo: list, fn: Callable, wrapper: Callable) -> None:
    """Swap ``fn`` wherever a ``repro`` module holds it by name.

    ``from repro.isa import assemble`` binds the function in the
    importing module, so patching the defining module alone would miss
    the call sites that matter.
    """
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").split(".")[0] != "repro":
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                _patch_attr(undo, module, attr, wrapper)


def install(tracer: Tracer, layers: str) -> list:
    """Wrap the layers a workload enters; returns the undo list.

    ``layers`` is ``"sim"`` (in-process simulator workloads), ``"lab"``
    (the caller's side of a lab batch) or ``"serve"`` (nothing beyond
    the op spans: the daemon is another process and stays unwrapped,
    like the pool workers — their share comes from ``RunResult.phases``).
    """
    undo: list = []
    if layers == "sim":
        _install_sim(tracer, undo)
    elif layers == "lab":
        _install_lab(tracer, undo)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def _install_sim(tracer: Tracer, undo: list) -> None:
    import repro.kernels
    from repro.core.bows import BOWSUnit
    from repro.core.ddos import DDOSEngine
    from repro.isa.assembler import assemble
    from repro.memory.memsys import MemorySubsystem
    from repro.sim.executor import decode_program
    from repro.sim.gpu import GPU, Simulation
    from repro.sim.schedulers import GTOScheduler

    for cls, method, name in (
        (MemorySubsystem, "atomic", "memory.atomic"),
        (MemorySubsystem, "load", "memory.load"),
        (MemorySubsystem, "store", "memory.store"),
        (DDOSEngine, "on_setp", "core.ddos.observe"),
        (DDOSEngine, "on_backward_branch", "core.ddos.observe"),
        (DDOSEngine, "is_sib", "core.ddos.observe"),
        (BOWSUnit, "on_issue", "core.bows.issue"),
        (BOWSUnit, "on_sib_executed", "core.bows.issue"),
        (BOWSUnit, "select_backed_off", "core.bows.select"),
        (GTOScheduler, "select", "sim.schedulers.select"),
    ):
        _patch_attr(undo, cls, method,
                    tracer.aggregate(name, cls.__dict__[method]))
    _patch_attr(undo, Simulation, "run",
                tracer.span("sim.gpu.run", Simulation.run))
    _patch_function(undo, assemble, tracer.span("isa.assemble", assemble))
    _patch_function(undo, decode_program,
                    tracer.span("sim.executor.decode", decode_program))

    # The fast engine binds step/next_event on each SM instance, so
    # they are wrapped as GPU.begin hands the simulation back.
    timed_begin = tracer.span("sim.gpu.begin", GPU.begin)

    def begin(gpu, launch):
        sim = timed_begin(gpu, launch)
        for sm in sim.sms:
            sm.step = tracer.aggregate("sim.sm.step", sm.step)
            sm.next_event = tracer.aggregate("sim.sm.next_event",
                                             sm.next_event)
            sm.accumulate_occupancy = tracer.aggregate(
                "sim.sm.occupancy", sm.accumulate_occupancy)
        return sim

    _patch_attr(undo, GPU, "begin", begin)

    # Workload.validate is a per-instance callable.
    build = repro.kernels.build
    timed_build = tracer.span("kernels.build", build)

    def traced_build(name, **params):
        workload = timed_build(name, **params)
        workload.validate = tracer.span("kernels.validate",
                                        workload.validate)
        return workload

    _patch_function(undo, build, traced_build)


def _install_lab(tracer: Tracer, undo: list) -> None:
    from repro.lab.cache import ResultCache
    from repro.lab.runner import Runner
    from repro.lab.spec import RunSpec

    _patch_attr(undo, RunSpec, "content_hash",
                tracer.aggregate("lab.spec.hash", RunSpec.content_hash))
    _patch_attr(undo, ResultCache, "put",
                tracer.aggregate("lab.cache.put", ResultCache.put))
    _patch_attr(undo, ResultCache, "get", tracer.aggregate(
        "lab.cache.get_miss", ResultCache.get,
        split=lambda result: ("lab.cache.get_miss" if result is None
                              else "lab.cache.get_hit")))
    _patch_attr(undo, Runner, "run_many",
                tracer.span("lab.runner.run_many", Runner.run_many))


# ----------------------------------------------------------------------
# Direct timing of small public functions


def median_us(fn: Callable[[], object], repeat: int = 200) -> float:
    """Median microseconds of ``fn()`` over ``repeat`` calls."""
    samples = []
    for _ in range(repeat):
        t0 = _clock()
        fn()
        samples.append(_clock() - t0)
    return statistics.median(samples) / 1e3


def each_us(fn: Callable[[object], object], items) -> float:
    """Median microseconds of ``fn(item)``, one call per item."""
    samples = []
    for item in items:
        t0 = _clock()
        fn(item)
        samples.append(_clock() - t0)
    return statistics.median(samples) / 1e3


def direct_timings(workload) -> Dict[str, float]:
    """The rows no traced round exercises, timed call by call."""
    if workload.layers == "lab":
        return _lab_direct(workload)
    if workload.layers == "serve":
        return _serve_direct(workload)
    return {}


def _lab_direct(workload) -> Dict[str, float]:
    """lab rows that no traced round exercises."""
    spec, _ = workload.fixed_sweep[0]
    result = workload.runner.cache.get(spec)
    blob = pickle.dumps(result)
    warm = [workload.sweep_op(workload.fixed_sweep, "warm",
                               expect_cached=True) for _ in range(5)]
    if not all(op.ok for op in warm):
        raise RuntimeError(f"warm resubmission failed: "
                           f"{workload.checker.notes}")
    return {
        "lab.results.pickle_us": median_us(
            lambda: pickle.loads(pickle.dumps(result))),
        "lab.results.pickle_bytes": len(blob),
        "lab.runner.warm_ms_per_spec": statistics.median(
            op.latency_s for op in warm) * 1e3 / len(workload.fixed_sweep),
    }


def _serve_direct(workload) -> Dict[str, float]:
    """serve rows: small public calls timed from the benchmark process."""
    from repro.lab.cache import ResultCache
    from repro.serve.client import ServeClient
    from repro.serve.jobstore import JobStore
    from repro.serve.scheduler import FairScheduler
    from repro.serve.wire import result_from_wire, result_to_wire

    specs = [spec for spec, _ in workload.cached]
    cache = ResultCache(workload.cache_dir)
    result = cache.get(specs[0])
    text = json.dumps(result_to_wire(result))

    def connect():
        ServeClient(workload.sock, name="probe").close()

    store = JobStore(cache=None)
    scheduler = FairScheduler()
    jobs = []
    classify = each_us(
        lambda spec: jobs.append(store.submit(spec, client="probe")[0]),
        specs)

    def push_pop(job):
        scheduler.push(job)
        scheduler.pop()
        scheduler.job_finished(job.client)

    return {
        "lab.spec.hash_us": each_us(lambda spec: spec.content_hash(), specs),
        "lab.cache.get_hit_us": each_us(cache.get, specs),
        "serve.protocol.ping_us": median_us(workload.clients[0].ping),
        "serve.client.connect_ms": median_us(connect, repeat=10) / 1e3,
        "serve.wire.encode_us": median_us(
            lambda: json.dumps(result_to_wire(result))),
        "serve.wire.decode_us": median_us(
            lambda: result_from_wire(json.loads(text))),
        "serve.wire.bytes": len(text),
        "serve.jobstore.classify_us": classify,
        "serve.scheduler.push_pop_us": each_us(push_pop, jobs),
    }


# ----------------------------------------------------------------------
# From spans, aggregates and ops to the per-layer metrics


def model_metrics(checker) -> Dict[str, float]:
    """Simulated, exact: aggregates of ``SimStats`` over the fixed specs."""
    from repro.kernels import SYNC_KERNELS

    stats = [s for _, s in checker.fixed.values()]
    instrs = sum(s.warp_instructions for s in stats)
    cycles = sum(s.cycles for s in stats)
    l1 = sum(s.memory.l1_hits + s.memory.l1_misses for s in stats)
    attempts = sum(s.locks.acquire_attempts for s in stats)
    resident = sum(s.resident_warp_cycles for s in stats)
    # Speed-up of BOWS+DDOS over GTO per (kernel, params, seed) pair.
    by_run: Dict[tuple, Dict[bool, int]] = {}
    for spec, s in checker.fixed.values():
        key = (spec.kernel, json.dumps(spec.params, sort_keys=True),
               spec.seed)
        by_run.setdefault(key, {})[spec.config.bows is not None] = s.cycles
    speedups = [pair[False] / pair[True] for pair in by_run.values()
                if len(pair) == 2]
    gmean = (exp(sum(log(x) for x in speedups) / len(speedups))
             if speedups else 0.0)
    on_paper_set = {key[0] for key in by_run} == set(SYNC_KERNELS)
    return {
        "model.ipc": instrs / cycles if cycles else 0.0,
        "model.simd_efficiency": (
            sum(s.active_lane_sum for s in stats) / (instrs * 32)
            if instrs else 0.0),
        "model.l1_hit_rate": (
            sum(s.memory.l1_hits for s in stats) / l1 if l1 else 0.0),
        "model.lock_fail_rate": (
            sum(s.locks.inter_warp_fail + s.locks.intra_warp_fail
                for s in stats) / attempts if attempts else 0.0),
        "model.backed_off_fraction": (
            sum(s.backed_off_warp_cycles for s in stats) / resident
            if resident else 0.0),
        "model.bows_gmean_speedup_gto": gmean,
        # The only reference the repository holds for the model is the
        # paper's Figure 9 gmean, over exactly the 8 sync kernels.
        "model.paper_fig9_rel_err": (
            abs(gmean - PAPER_FIG9_GMEAN) / PAPER_FIG9_GMEAN
            if on_paper_set else 0.0),
    }


def layer_metrics(tracer: Tracer, traced: list, reference: list,
                  workload, direct: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric; time, call and counter totals are **per
    round** (a round is a fixed op list, so they compare across runs)."""
    n = len(traced)
    totals = tracer.totals()

    def per_round(name: str, column: int, scale: float = 1.0) -> float:
        return totals.get(name, (0, 0, 0))[column] * scale / n

    def per_call_us(name: str) -> float:
        calls, total, _ = totals.get(name, (0, 0, 0))
        return total / calls / 1e3 if calls else 0.0

    def mean_latency(rounds) -> float:
        ops = [op for rnd in rounds for op in rnd.ops]
        return sum(op.latency_s for op in ops) / len(ops)

    values = dict.fromkeys(LAYER_UNITS, 0.0)
    values["trace_overhead"] = mean_latency(traced) / mean_latency(reference)
    for name in totals:
        if f"{name}_s" in values:
            values[f"{name}_s"] = per_round(name, 1, 1e-9)
        if f"{name}_calls" in values:
            values[f"{name}_calls"] = per_round(name, 0)
    values["sim.gpu.loop_self_s"] = per_round("sim.gpu.run", 2, 1e-9)
    values["sim.sm.step_self_s"] = per_round("sim.sm.step", 2, 1e-9)

    ops = [op for rnd in traced for op in rnd.ops]
    run_s = values["sim.gpu.run_s"] * n
    if run_s:
        instrs = sum(op.instrs for op in ops)
        cycles = sum(op.cycles for op in ops)
        values["sim.host_us_per_instr"] = run_s * 1e6 / instrs
        values["sim.host_us_per_cycle"] = run_s * 1e6 / cycles
        values["sim.kcycles_per_s"] = cycles / run_s / 1e3
    values.update(model_metrics(workload.checker))

    # Above the simulator: the untraced reference rounds carry the op
    # walls; RunResult.phases carry what the unwrapped workers did.
    ref_ops = [op for rnd in reference for op in rnd.ops]
    ran = [op for op in ref_ops if op.phases]
    if ran:
        m = len(reference)
        for phase in ("build_s", "simulate_s", "score_s"):
            values[f"lab.worker.{phase}"] = sum(
                op.phases.get(phase, 0.0) for op in ran) / m
        if not run_s:
            values["kernels.build_s"] = values["lab.worker.build_s"]
            values["kernels.build_calls"] = sum(op.sims for op in ran) / m
    values["lab.spec.hash_us"] = per_call_us("lab.spec.hash")
    values["lab.cache.put_us"] = per_call_us("lab.cache.put")
    values["lab.cache.get_miss_us"] = per_call_us("lab.cache.get_miss")
    values["lab.cache.get_hit_us"] = per_call_us("lab.cache.get_hit")
    if workload.name == "lab_quick_sweep":
        overheads = [op.latency_s - op.sim_elapsed_s / workload.runner.workers
                     for op in ref_ops]
        values["lab.runner.batch_overhead_ms"] = (
            statistics.median(overheads) * 1e3)
        values["lab.runner.overhead_frac"] = statistics.median(
            o / op.latency_s for o, op in zip(overheads, ref_ops))
        values["lab.runner.retries"] = workload.retries
        values["lab.runner.worker_losses"] = workload.worker_losses
    if workload.name == "serve_mixed":
        counters = workload.counter_deltas
        rounds = len(reference) + n

        def fate_ms(fate):
            return [op.latency_s * 1e3 for op in ref_ops if op.fate == fate]

        values["serve.cached_ms_p50"] = percentile(fate_ms("cached"), 50)
        values["serve.cached_ms_p99"] = percentile(fate_ms("cached"), 99)
        values["serve.attached_ms_p50"] = percentile(fate_ms("dup"), 50)
        values["serve.novel_overhead_ms_p50"] = percentile(
            [(op.latency_s - op.sim_elapsed_s) * 1e3 for op in ref_ops
             if op.fate == "novel"], 50)
        for key in ("cache_hits", "attached", "dispatched", "retried",
                    "worker_losses"):
            values[f"serve.counter.{key}"] = counters[key] / rounds
        values["serve.dedup_ratio"] = (
            1.0 - counters["dispatched"] / counters["submitted"])
    values.update(direct)
    return values
