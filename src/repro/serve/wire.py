"""A served result's payload, under the names the benchmark ledger times.

A result crosses the socket as its ``result`` record
(:meth:`~repro.lab.results.RunResult.to_dict`, checked on the way back
by :meth:`~repro.lab.results.RunResult.from_dict`); the layout and its
one checker live in :mod:`repro.lab.journal`.
"""

from repro.lab.results import RunResult

result_to_wire = RunResult.to_dict
result_from_wire = RunResult.from_dict

__all__ = ["result_from_wire", "result_to_wire"]
