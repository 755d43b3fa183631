"""Frozen oracle: both engines reproduce committed golden summaries.

``tests/test_golden_equivalence.py`` compares the two engines to *each
other*, so a regression in a class they share (``RegisterFile``,
``SIMTStack``, ``GlobalMemory``/``MemorySubsystem``) moves both and stays
invisible.  ``tests/fixtures/golden_summaries.json`` pins the absolute
answer: for the 8 sync and 7 sync-free kernels at quick scale, plus
``ht`` / ``nw1`` / ``atm`` at full size (their builders' defaults),
under {GTO, GTO + adaptive BOWS + DDOS} it holds the full
``SimStats.summary()`` and the sha256 of the final ``memory.words``.

The fixture is regenerated only when the *model* changes on purpose::

    PYTHONPATH=src python tests/test_golden_fixtures.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.api import simulate
from repro.harness.params import QUICK_PARAMS, QUICK_SYNC_FREE
from repro.harness.runner import make_config

FIXTURE = Path(__file__).parent / "fixtures" / "golden_summaries.json"

CONFIGS = {
    "gto": dict(scheduler="gto"),
    "bows": dict(scheduler="gto", bows="adaptive", ddos=True),
}

#: Case prefix -> (kernel, builder params): every kernel at quick scale,
#: and the three hot-loop kernels at full size as ``<kernel>-full``.
WORKLOADS = {
    **{kernel: (kernel, params)
       for kernel, params in {**QUICK_PARAMS, **QUICK_SYNC_FREE}.items()},
    **{f"{kernel}-full": (kernel, {}) for kernel in ("ht", "nw1", "atm")},
}

CASES = [f"{name}-{label}" for name in WORKLOADS for label in CONFIGS]


def golden_record(case: str, engine: str) -> dict:
    """``summary()`` + memory-image hash of one (kernel, config) case."""
    name, label = case.rsplit("-", 1)
    kernel, params = WORKLOADS[name]
    result = simulate(kernel, config=make_config(**CONFIGS[label]),
                      params=params, engine=engine)
    words = result.memory.words
    return {
        "summary": result.stats.summary(),
        "memory_sha256": hashlib.sha256(words.tobytes()).hexdigest(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_the_matrix(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("engine", ["fast", "reference"])
@pytest.mark.parametrize("case", CASES)
def test_engine_reproduces_golden_fixture(golden, case, engine):
    # Through JSON so the comparison is on exactly what was committed
    # (and a NumPy scalar leaking into summary() fails to serialise).
    record = json.loads(json.dumps(golden_record(case, engine)))
    assert record == golden[case]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    records = {case: golden_record(case, "reference") for case in CASES}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} cases to {FIXTURE}")
