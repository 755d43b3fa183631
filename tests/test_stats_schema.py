"""The ``SimStats.summary()`` reporting schema is frozen and versioned.

Downstream artifacts — lab result caches, sweep manifests, the golden
fixtures, the plotting pipeline — key on summary dicts.
This suite pins the exact key set (and order) to ``SUMMARY_KEYS`` and
the embedded ``schema_version`` to ``SUMMARY_SCHEMA_VERSION``: changing
either without bumping the version is a contract break this test makes
loud.
"""

from __future__ import annotations

import pytest

from repro.sim.run import simulate
from repro.metrics.stats import (SUMMARY_KEYS, SUMMARY_SCHEMA_VERSION,
                                 SimStats)
from repro.sim.config import GPUConfig


def test_summary_keys_are_frozen():
    summary = SimStats().summary()
    assert tuple(summary.keys()) == SUMMARY_KEYS


def test_summary_embeds_schema_version():
    assert SimStats().summary()["schema_version"] == SUMMARY_SCHEMA_VERSION
    assert SUMMARY_SCHEMA_VERSION == 1


def test_real_run_summary_matches_schema():
    result = simulate(
        "vecadd",
        config=GPUConfig.preset("fermi"),
        params=dict(n_threads=64, per_thread=2, block_dim=64),
    )
    summary = result.stats.summary()
    assert tuple(summary.keys()) == SUMMARY_KEYS
    assert summary["schema_version"] == SUMMARY_SCHEMA_VERSION
    assert summary["cycles"] > 0


def test_summary_values_are_json_plain():
    """Every summary value must serialize as-is (no numpy scalars)."""
    import json

    summary = SimStats().summary()
    assert json.loads(json.dumps(summary)) == summary


# The one engine, as a parameter: these cases keep their ``fast`` ids.
@pytest.mark.parametrize("engine", ["fast"])
@pytest.mark.parametrize("kernel, params", [
    # Wait/signal kernel: the wait_exit_* counters are fed by lane
    # counts, which NumPy reductions return as NumPy scalars.
    ("st", dict(n_threads=128, n_cells=256, cell_work=4, block_dim=64)),
    ("reduction", dict(n_threads=128, block_dim=64)),
])
def test_summary_leaves_are_exact_python_types(kernel, params, engine):
    """``json.dumps`` is too lenient a check: ``numpy.float64`` passes
    it (a float subclass) and ``numpy.int64`` compares equal after a
    round trip.  Every leaf must be *exactly* a plain Python type."""
    result = simulate(
        kernel,
        config=GPUConfig.preset("fermi", bows="adaptive", ddos=True),
        params=params, engine=engine,
    )
    summary = result.stats.summary()
    if kernel == "st":
        assert summary["wait_exit_fail"] > 0
    plain = (int, float, str, bool, type(None))
    assert {k: type(v) for k, v in summary.items()
            if type(v) not in plain} == {}
