"""repro.analysis — correctness tooling for the kernel zoo.

Two layers (see ``docs/analysis.md``):

* **Static lint** (:mod:`repro.analysis.lint`, CLI ``repro lint``):
  CFG/dataflow passes over assembled programs — spin-loop (SIB)
  classification that doubles as the Table I static oracle, lockset
  abstract interpretation of the ``atom.cas``/``atom.exch`` lock
  idioms, divergent-barrier detection, use-before-def and
  unreachable-code checks.
* **Dynamic sanitizer** (:mod:`repro.analysis.sanitizer`,
  ``simulate(sanitize=True)``): execution-time lockset/happens-before
  race detection on lock-protected addresses, runtime barrier
  divergence, and lock-discipline violations, with structured
  :class:`~repro.analysis.diagnostics.Diagnostic` records that ride
  hang reports and lab journals.
"""

from repro.analysis.diagnostics import Diagnostic, waiver_role
from repro.analysis.lint import (
    LintReport,
    lint_all,
    lint_kernel,
    lint_program,
    score_against_oracle,
    sib_candidates,
    static_sib_oracle,
)
from repro.analysis.sanitizer import Sanitizer, SanitizerConfig, as_sanitizer

__all__ = [
    "Diagnostic",
    "LintReport",
    "Sanitizer",
    "SanitizerConfig",
    "as_sanitizer",
    "lint_all",
    "lint_kernel",
    "lint_program",
    "score_against_oracle",
    "sib_candidates",
    "static_sib_oracle",
    "waiver_role",
]
