"""Configuration coverage and checkpoint resume: cases of the
equivalence matrix (``test_golden_fixtures.py``) under the ids they had
when this file compared two live runs.  Every case reads its expected
answer from the frozen oracle; seeded perturbation (RNG draw order) is
part of it.
"""

from __future__ import annotations

import pytest

from test_golden_fixtures import (CONFIG_ROWS, begin, check,
                                  checkpoint_bytes_roundtrip, expect,
                                  observe, oracle)

#: ``CONFIG_ROWS`` -> the id this file gave each.
CASES = dict(zip(CONFIG_ROWS, [
    "ht-gto", "ht-lrr", "ht-cawa", "ht-bows-adaptive", "ht-bows-fixed",
    "ht-static-sibs", "nw1-gto", "nw1-bows-adaptive", "atm-gto",
    "atm-bows-adaptive", "reduction-gto", "fence-first-gto",
    "fence-first-lrr-bows"]))


@pytest.mark.parametrize("row", CASES, ids=CASES.get)
def test_engines_bitwise_identical(row):
    check("direct", row)


def test_engines_identical_under_perturbation():
    """Seeded schedule perturbation draws its RNG in a fixed order — any
    divergence in draw order shows up as different cycle counts
    immediately."""
    for row in ("ht-small-perturb0", "ht-small-perturb7"):
        check("direct", row)


def test_engines_identical_on_pascal_preset():
    check("direct", "ht-small-pascal-bows")


# ``-fast``: the id suffix each case had while a second engine ran.
@pytest.mark.parametrize("row", CASES, ids=lambda row: f"{CASES[row]}-fast")
def test_checkpoint_resume_is_bitwise_identical(row):
    """Checkpoint/resume is invisible to the golden contract, with and
    without observability and the sanitizer attached (the ``resumed``
    way of the matrix, in each of its modes)."""
    for mode in ("plain", "obs", "sanitize", "observed"):
        check(f"resumed-{mode}", row)


def _fenced_before_release(sim):
    """Whether some warp's fence is its next event although a scoreboard
    release lands later: ``now < membar_until < release``.  Read from
    architectural state, not from the SM's issue cache."""
    now = sim.now
    for sm in sim.sms:
        for warp in sm.warps.values():
            if warp.finished or warp.at_barrier:
                continue
            release = max((warp.pending.get(key, 0)
                           for key in warp.program[warp.pc].hazard_keys),
                          default=0)
            if now < warp.membar_until < release:
                return True
    return False


@pytest.mark.parametrize("row", ["fence-first-gto"], ids=["fast"])
def test_fence_expiring_before_the_scoreboard_release(row):
    """The fence-first quirk, pinned: a fenced warp's next event is its
    ``membar_until`` even when the instruction behind the fence waits on
    a later scoreboard release, so the loop visits a cycle on which
    nothing issues and charges its issue slots.  The SM's wait heap is
    keyed by that next-event time; the kernels of the golden matrix
    reach the case too rarely to notice a wrong key."""
    golden = oracle()[row]
    # Frozen: 602 cycles.  A heap keyed by the first *issuable* cycle
    # skips the visit at each fence's expiry and charges fewer slots.
    assert (golden["summary"]["cycles"], golden["issue_slots"]) == (602, 136)

    sim = begin(row)
    restored = None
    while not sim.run_until(sim.now + 1):  # one visited cycle at a time
        if restored is None and _fenced_before_release(sim):
            restored = checkpoint_bytes_roundtrip(sim)
    assert restored, "no warp ever sat fenced ahead of its release"
    for result in (sim.result, restored.run()):
        expect(row, observe(result))


@pytest.mark.parametrize("row", ["ht-small-gto", "nw1-small-gto"],
                         ids=["ht", "nw1"])
def test_sanitizer_is_invisible_to_the_golden_contract(row):
    """The dynamic sanitizer is a pure observer: with it on, the run
    still lands on the oracle's cycles and full stats summary, and a
    correct kernel raises no finding."""
    check("sanitize", row)
