"""Moved to :mod:`repro.lab.core`; the benchmark ledger imports it here."""
from repro.lab.core import FairScheduler  # noqa: F401
