"""A machine-independent budget for the simulator's hot path.

Wall clock cannot be asserted on a shared runner; the number of
Python-level calls a simulated warp instruction costs can.  ``cProfile``
counts every Python and C function call, the count repeats exactly on
one NumPy version, and it is what PR 16 cut (44.6 -> 27.7 per
instruction on the ledger's ``sync_sim`` round, 30.3 once the review
put a ``len()`` back) and PR 23 cut again (no step of an SM with nothing
to issue, no ``next_event`` poll), as did the one-pass atomic (25.1 ->
21.5 on that round): every property hop, accessor or
wrapper frame put back on the per-issue path — or empty step put back in
the cycle loop — shows up here as a ratio, whatever the machine.

Only ``Simulation.run()`` is profiled there — workload build, assembly
and decoding happen before it, in ``GPU.begin``.  Their share has a
budget of its own: a run's setup, once the process has built the
kernel, is a second ``build`` + ``GPU.begin``, and what it costs is
what does depend on the run's data.  Assembly, the reconvergence
analysis or decoding put back on that path shows up there tenfold.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import sys

import numpy as np
import pytest

from repro.harness.params import QUICK_PARAMS, QUICK_SYNC_FREE
from repro.kernels import build
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPU

#: Calls per warp instruction measured at this commit on the toolchain
#: named by ``MEASURED_ON``.  There the count repeats exactly and the
#: 15 % slack is room for patch releases, not for regressions: a change
#: that moves a number should re-measure it.
MEASURED = {
    # before PR 16 -> after it -> at PR 23's parent (the drift inside
    # the slack that PR 23 took back: a null emitter called per lane of
    # every lock attempt) -> with the loop going only where a warp acts
    # -> with a warp atomic in one pass, NumPy's C entry points and no
    # per-issue restated counters
    # -> with operands bound at decode
    ("atm", "gto"): 18.92,  # 45.81 -> 30.55 -> 32.02 -> 24.56 -> 19.66
    ("atm", "bows"): 25.69,  # 56.14 -> 39.50 -> 40.77 -> 32.24 -> 26.61
    ("ht", "gto"): 20.85,  # 46.94 -> 31.08 -> 33.04 -> 26.09 -> 22.00
    ("ht", "bows"): 24.14,  # 49.94 -> 34.33 -> 35.99 -> 29.08 -> 25.30
}
#: Calls of a second ``build`` + ``GPU.begin`` of a quick kernel under
#: GTO, on ``MEASURED_ON``: before the kernel was built once per
#: process -> after it.
MEASURED_SETUP = {
    "vecadd": 303,  # 3172
    "ht": 523,  # 7891
    "atm": 581,  # 10210
    "kmeans": 272,  # 2925
}
#: (Python, NumPy) major.minor the numbers were taken on.  Wrapper
#: frames differ between releases (``np.count_nonzero`` alone is one to
#: three frames depending on the NumPy version) and no other toolchain
#: has been measured, so elsewhere — the Python 3.9 tier-1 leg — the
#: count is printed and the assertion skipped; CI's ``ledger-selftest``
#: job runs this file on 3.11 with that NumPy minor pinned.
MEASURED_ON = ((3, 11), (2, 4))
SLACK = 1.15

CONFIGS = {
    "gto": lambda: GPUConfig.preset("fermi"),
    "bows": lambda: GPUConfig.preset("fermi", bows="adaptive", ddos=True),
}


@pytest.mark.parametrize("kernel, config", sorted(MEASURED))
def test_calls_per_warp_instruction(kernel, config):
    workload = build(kernel, **QUICK_PARAMS[kernel])
    sim = GPU(CONFIGS[config](), memory=workload.memory).begin(
        workload.launch)
    profile = cProfile.Profile()
    profile.enable()
    result = sim.run()
    profile.disable()
    workload.validate(result.memory)

    out = io.StringIO()
    stats = pstats.Stats(profile, stream=out)
    instructions = result.stats.warp_instructions
    per_instruction = stats.total_calls / instructions
    budget = MEASURED[kernel, config] * SLACK
    print(f"\n{kernel}/{config}: {stats.total_calls} calls / "
          f"{instructions} warp instructions = {per_instruction:.2f} "
          f"(measured {MEASURED[kernel, config]}, budget {budget:.2f})")
    stats.sort_stats("ncalls").print_stats(10)
    print(out.getvalue())  # shown with -s and, by pytest, on failure
    skip_off_toolchain(f"{per_instruction:.2f} calls per instruction")
    assert per_instruction <= budget


def skip_off_toolchain(measured: str) -> None:
    toolchain = (sys.version_info[:2],
                 tuple(int(part) for part in np.__version__.split(".")[:2]))
    if toolchain != MEASURED_ON:
        pytest.skip(f"budget measured on {MEASURED_ON}, this is {toolchain}: "
                    f"{measured}, not asserted")


@pytest.mark.parametrize("kernel", sorted(MEASURED_SETUP))
def test_calls_per_run_setup(kernel):
    params = QUICK_PARAMS.get(kernel) or QUICK_SYNC_FREE[kernel]
    config = GPUConfig.preset("fermi")

    def setup():
        workload = build(kernel, **params)
        GPU(config, memory=workload.memory).begin(workload.launch)

    setup()  # the process's first run of the kernel builds it
    profile = cProfile.Profile()
    profile.enable()
    setup()
    profile.disable()
    calls = pstats.Stats(profile).total_calls
    budget = MEASURED_SETUP[kernel] * SLACK
    print(f"\n{kernel} setup: {calls} calls (measured "
          f"{MEASURED_SETUP[kernel]}, budget {budget:.0f})")
    skip_off_toolchain(f"{calls} calls")
    assert calls <= budget


def test_bound_numpy_entry_points_agree_with_the_public_ones():
    """The issue path calls ``count_nonzero`` / ``copyto`` as bound in
    ``repro.sim.registers``: NumPy's C implementations where the private
    path exists, the public functions elsewhere.  Either binding must
    answer as the public functions do, on every leg that runs this."""
    from repro.sim.registers import copyto, count_nonzero

    rng = np.random.default_rng(7)
    masks = [np.zeros(32, dtype=bool), np.ones(32, dtype=bool)] + [
        rng.random(32) < p for p in (0.1, 0.5, 0.9)]
    for mask in masks:
        counted = count_nonzero(mask)
        assert counted == np.count_nonzero(mask)
        assert type(int(counted)) is int  # what reaches SimStats
        values = rng.integers(-(1 << 40), 1 << 40, 32)
        ours = rng.integers(-100, 100, 32)
        public = ours.copy()
        copyto(ours, values.astype(np.int32), where=mask)
        np.copyto(public, values.astype(np.int32), where=mask)
        assert ours.tolist() == public.tolist()
        preds = np.zeros(32, dtype=bool)
        public_preds = preds.copy()
        copyto(preds, values, where=mask, casting="unsafe")
        np.copyto(public_preds, values, where=mask, casting="unsafe")
        assert preds.tolist() == public_preds.tolist()
