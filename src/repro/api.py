"""Old import path of ``simulate`` and ``submit_many``.

Kept only because the ledger (``benchmarks/ledger/workloads.py``)
imports these two names from here; ROADMAP item 7 (the ledger's next
change) deletes this module.  Everything else imports
:mod:`repro.sim.run` and :mod:`repro.submit`.
"""

from repro.sim.run import simulate
from repro.submit import submit_many

__all__ = ["simulate", "submit_many"]
