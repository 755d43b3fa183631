"""DDOS detection-accuracy evaluation (paper Table I metrics).

Runs workloads under a given DDOS configuration and averages the scores
of their SIB-PT predictions against the kernels' ground-truth ``!sib``
annotations (:func:`repro.core.ddos.score_result`, computed in the lab
worker):

* **TSDR** (true spin detection rate): fraction of true spin-inducing
  branches that were confirmed;
* **FSDR** (false spin detection rate): fraction of non-spin-inducing
  *backward* branches falsely confirmed;
* **DPR** (detection phase ratio): (confirmation time - first encounter)
  / (last encounter - first encounter), averaged over the detected
  branches of the respective class — lower means faster detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.ddos import DetectionOutcome
from repro.lab import RunSpec
from repro.sim.config import DDOSConfig, GPUConfig
from repro.submit import submit_many


@dataclass
class AccuracySummary:
    """Aggregate Table I row."""

    avg_tsdr: float
    avg_true_dpr: float
    avg_fsdr: float
    avg_false_dpr: float
    outcomes: List[DetectionOutcome]

    def as_row(self) -> Dict[str, float]:
        return {
            "TSDR": round(self.avg_tsdr, 3),
            "DPR(true)": round(self.avg_true_dpr, 3),
            "FSDR": round(self.avg_fsdr, 3),
            "DPR(false)": round(self.avg_false_dpr, 3),
        }


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def summarize(outcomes: Iterable[DetectionOutcome]) -> AccuracySummary:
    outcomes = list(outcomes)
    tsdrs = [o.tsdr for o in outcomes if o.tsdr is not None]
    fsdrs = [o.fsdr for o in outcomes if o.fsdr is not None]
    true_dprs = [d for o in outcomes for d in o.true_dprs]
    false_dprs = [d for o in outcomes for d in o.false_dprs]
    return AccuracySummary(
        avg_tsdr=_mean(tsdrs),
        avg_true_dpr=_mean(true_dprs),
        avg_fsdr=_mean(fsdrs),
        avg_false_dpr=_mean(false_dprs),
        outcomes=outcomes,
    )


def evaluate_ddos(
    ddos: DDOSConfig,
    kernels: Sequence[str],
    kernel_params: Optional[Dict[str, Dict]] = None,
    base_config: Optional[GPUConfig] = None,
) -> AccuracySummary:
    """Run ``kernels`` with DDOS enabled (no BOWS) and score detections.

    Execution fans out through :func:`~repro.submit.submit_many`; the
    per-kernel :class:`DetectionOutcome` is computed inside the worker
    and travels back (and through the result cache) as plain data.
    """
    kernel_params = kernel_params or {}
    specs = []
    for name in kernels:
        config = (base_config or GPUConfig.preset("fermi")).replace(ddos=ddos)
        specs.append(RunSpec(
            kernel=name, config=config,
            params=dict(kernel_params.get(name, {})),
            label=f"ddos {name}",
        ))
    outcomes = []
    for run in submit_many(specs).results():
        assert run.ddos is not None, "DDOS scoring missing from run result"
        outcomes.append(DetectionOutcome(**run.ddos))
    return summarize(outcomes)
