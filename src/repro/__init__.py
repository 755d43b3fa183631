"""repro — reproduction of "Warp Scheduling for Fine-Grained Synchronization".

ElTantawy & Aamodt, HPCA 2018: BOWS (Back-Off Warp Spinning) + DDOS
(Dynamic Detection Of Spinning), reproduced on a from-scratch cycle-level
SIMT GPU simulator.

Quickstart::

    from repro import GPUConfig, simulate

    baseline = simulate("ht", config=GPUConfig.preset("fermi"))
    bows = simulate("ht", config=GPUConfig.preset("fermi", bows=True))
    print(baseline.cycles / bows.cycles)  # BOWS speedup

:func:`simulate` (:mod:`repro.sim.run`) is the single simulation entry
point — it also accepts a built :class:`Workload`, a :class:`KernelLaunch`,
or a bare :class:`Program`.  This root loads only the simulator layer:
import the lab, the daemon and :mod:`repro.submit` from their modules.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure and table.
"""

from repro.analysis import (
    Diagnostic,
    LintReport,
    Sanitizer,
    SanitizerConfig,
    lint_all,
    lint_kernel,
    lint_program,
)
from repro.core import hardware_cost
from repro.core.adaptive import AdaptiveDelayController
from repro.core.bows import BOWSUnit
from repro.core.ddos import DDOSEngine, hash_modulo, hash_xor
from repro.isa import AssemblyError, Program, assemble
from repro.kernels import (
    SYNC_FREE_KERNELS,
    SYNC_KERNELS,
    Workload,
    WorkloadError,
    build as build_workload,
    kernel_names,
)
from repro.memory.memsys import GlobalMemory
from repro.sim.config import (
    BOWSConfig,
    DDOSConfig,
    GPUConfig,
    PerturbConfig,
    fermi_config,
    pascal_config,
)
from repro.sim.gpu import (
    GPU,
    KernelLaunch,
    SimResult,
)
from repro.sim.progress import (
    HangReport,
    SimulationDeadlock,
    SimulationHang,
    SimulationLivelock,
    SimulationTimeout,
)
from repro.sim.run import resume_simulation, simulate

__version__ = "1.0.0"

__all__ = [
    "GPU",
    "AdaptiveDelayController",
    "AssemblyError",
    "BOWSConfig",
    "BOWSUnit",
    "DDOSConfig",
    "DDOSEngine",
    "Diagnostic",
    "GPUConfig",
    "GlobalMemory",
    "HangReport",
    "KernelLaunch",
    "LintReport",
    "PerturbConfig",
    "Program",
    "Sanitizer",
    "SanitizerConfig",
    "SYNC_FREE_KERNELS",
    "SYNC_KERNELS",
    "SimResult",
    "SimulationDeadlock",
    "SimulationHang",
    "SimulationLivelock",
    "SimulationTimeout",
    "Workload",
    "WorkloadError",
    "assemble",
    "build_workload",
    "fermi_config",
    "hardware_cost",
    "hash_modulo",
    "hash_xor",
    "kernel_names",
    "lint_all",
    "lint_kernel",
    "lint_program",
    "pascal_config",
    "resume_simulation",
    "simulate",
    "__version__",
]
