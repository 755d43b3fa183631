"""A kernel is built once per process, and what is built is shared.

``assemble`` returns the process's one ``Program`` per ``(text, name)``
and ``decode_program`` the program's one ``DecodedProgram`` per
``(machine, params)``, so every run of a kernel — in any thread — shares
both.  That is sound only while nothing mutates them; these tests hold
the sharing and the read-only contract.
"""

from __future__ import annotations

import dataclasses
import io
import pickle
import sys

import pytest

from repro.harness.params import QUICK_PARAMS, QUICK_SYNC_FREE
from repro.isa import assembler
from repro.isa.assembler import ASSEMBLY_MEMO_SIZE, assemble
from repro.isa.program import Memo, Program
from repro.kernels import build, kernel_names
from repro.lab.runner import Runner
from repro.lab.spec import RunSpec
from repro.sim import executor
from repro.sim.config import GPUConfig
from repro.sim.executor import DECODE_MEMO_SIZE, DecodedOp, decode_program
from repro.sim.gpu import GPU


def quick_params(kernel):
    # ``ht_backoff`` takes the hashtable's shape.
    return (QUICK_PARAMS.get(kernel) or QUICK_SYNC_FREE.get(kernel)
            or QUICK_PARAMS["ht"])


CONFIGS = {
    "gto": lambda: GPUConfig.preset("fermi"),
    "bows": lambda: GPUConfig.preset("fermi", bows="adaptive", ddos=True),
}

TINY = """
    ld.param %r1, [n]
    add %r2, %r1, 1
    exit
"""


def begin(kernel, config):
    workload = build(kernel, **quick_params(kernel))
    sim = GPU(config, memory=workload.memory, obs=True,
              sanitizer=True).begin(workload.launch)
    return workload, sim


@pytest.mark.parametrize("kernel", kernel_names())
def test_two_builds_share_one_program_and_one_decoding(kernel):
    config = GPUConfig.preset("fermi")
    first = build(kernel, **quick_params(kernel)).launch
    second = build(kernel, **quick_params(kernel)).launch
    assert second.program is first.program
    assert (decode_program(second.program, config, second.params)
            is decode_program(first.program, config, first.params))


def _static_image(program, decoded):
    return (
        program.to_text(),
        dict(program.reconvergence),
        [(instr.hazard_keys, instr.dst_key)
         for instr in program.instructions],
        [dop.handler for dop in decoded.ops],
    )


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("kernel", kernel_names())
def test_a_run_leaves_the_shared_kernel_as_it_found_it(kernel, config):
    workload, sim = begin(kernel, CONFIGS[config]())
    program = workload.launch.program
    decoded = sim.sms[0]._ops[0].decoded
    assert all(sm._ops is decoded.ops for sm in sim.sms)
    before = _static_image(program, decoded)
    result = sim.run()
    workload.validate(result.memory)
    after = _static_image(program, decoded)
    assert after[:3] == before[:3]
    assert all(a is b for a, b in zip(after[3], before[3]))


def test_a_decoded_op_refuses_assignment():
    program = assemble(TINY, name="refuses")
    dop = decode_program(program, GPUConfig.preset("fermi"), {"n": 3}).ops[0]
    handler = dop.handler
    with pytest.raises(AttributeError):
        dop.handler = lambda *args: None
    with pytest.raises(AttributeError):
        dop.guard = "p1"
    assert dop.handler is handler


def test_the_assembly_memo_evicts_its_oldest_entry(monkeypatch):
    monkeypatch.setattr(assembler, "_assembled", Memo(ASSEMBLY_MEMO_SIZE))
    programs = [assemble(TINY, name=f"evict{i}")
                for i in range(ASSEMBLY_MEMO_SIZE + 1)]
    newest = f"evict{ASSEMBLY_MEMO_SIZE}"
    assert assemble(TINY, name=newest) is programs[-1]
    assert assemble(TINY, name="evict1") is programs[1]
    assert assemble(TINY, name="evict0") is not programs[0]


def test_the_decode_memo_evicts_its_oldest_entry():
    program = assemble(TINY, name="decode-evict")
    config = GPUConfig.preset("fermi")
    decodings = [decode_program(program, config, {"n": n})
                 for n in range(DECODE_MEMO_SIZE + 1)]
    assert decode_program(program, config,
                          {"n": DECODE_MEMO_SIZE}) is decodings[-1]
    assert decode_program(program, config, {"n": 1}) is decodings[1]
    assert decode_program(program, config, {"n": 0}) is not decodings[0]


SHARED_CONFIGS = [
    GPUConfig.preset("fermi"), GPUConfig.preset("fermi", scheduler="lrr"),
    GPUConfig.preset("fermi", scheduler="cawa"),
    GPUConfig.preset("fermi", bows=500), GPUConfig.preset("fermi", ddos=True),
    GPUConfig.preset("fermi", bows="adaptive", ddos=True),
    GPUConfig.preset("fermi", scheduler="lrr", bows=500, ddos=True),
    GPUConfig.preset("fermi", scheduler="cawa", bows="adaptive", ddos=True),
]


def test_threads_share_one_kernel_and_agree_with_serial(monkeypatch):
    """Eight runs of one kernel on four threads at once (more threads
    than cores) share one program and its decoding — assembled once —
    and each answers as it does alone."""
    specs = [RunSpec(kernel="ht", config=config, params=QUICK_PARAMS["ht"])
             for config in SHARED_CONFIGS]
    serial = Runner(workers=1, mode="serial").run_many(specs)

    monkeypatch.setattr(assembler, "_assembled", Memo(ASSEMBLY_MEMO_SIZE))
    assembled = []
    real = assembler._assemble

    def counted(text, name):
        assembled.append(name)
        return real(text, name)

    monkeypatch.setattr(assembler, "_assemble", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads trade the GIL mid-build
    try:
        threaded = Runner(workers=4, mode="thread").run_many(specs)
    finally:
        sys.setswitchinterval(interval)
    assert assembled == ["ht"]
    assert [r.stats.summary() for r in threaded.outcomes()] == [
        r.stats.summary() for r in serial.outcomes()]
    assert [r.predicted_sibs for r in threaded.outcomes()] == [
        r.predicted_sibs for r in serial.outcomes()]


class _Recorder(pickle.Pickler):
    """A pickler that notes every object it is handed."""

    def __init__(self, file):
        super().__init__(file, protocol=pickle.HIGHEST_PROTOCOL)
        self.seen = []

    def reducer_override(self, obj):
        self.seen.append(obj)
        return NotImplemented


def test_a_pickled_simulation_carries_no_memo_or_decoding():
    workload, sim = begin("ht", CONFIGS["bows"]())
    sim.run_until(500)
    program = workload.launch.program
    assert {"_registers", "_predicates", "_decoded_cache"} <= set(
        vars(program))

    recorder = _Recorder(io.BytesIO())
    recorder.dump(sim)
    fields = {f.name for f in dataclasses.fields(Program)}
    programs = [obj for obj in recorder.seen if isinstance(obj, Program)]
    assert programs
    for seen in programs:
        assert set(seen.__getstate__()) <= fields
    assert not [obj for obj in recorder.seen if isinstance(obj, Memo)]
    # Ops and decodings pickle as references (program, key, index), so
    # no handler closure is ever handed to the pickler.
    closures = [obj for obj in recorder.seen
                if callable(obj) and "<locals>" in getattr(
                    obj, "__qualname__", "")]
    assert not closures
    assert any(isinstance(obj, DecodedOp) for obj in recorder.seen)
    assert any(obj is executor._decoding for obj in recorder.seen)
