"""Unit tests for the DDOS accuracy-scoring layer (Table I metrics)."""

import pytest

from repro.core.ddos import DetectionOutcome
from repro.harness.ddos_eval import AccuracySummary, summarize


def outcome(**kwargs) -> DetectionOutcome:
    defaults = dict(kernel="k", true_sibs=0, detected_true=0,
                    false_candidates=0, detected_false=0)
    defaults.update(kwargs)
    return DetectionOutcome(**defaults)


def test_tsdr_undefined_without_true_sibs():
    assert outcome().tsdr is None
    assert outcome(true_sibs=2, detected_true=1).tsdr == 0.5


def test_fsdr_undefined_without_candidates():
    assert outcome().fsdr is None
    assert outcome(false_candidates=4, detected_false=1).fsdr == 0.25


def test_summarize_averages_over_defined_kernels():
    summary = summarize([
        outcome(kernel="a", true_sibs=1, detected_true=1),
        outcome(kernel="b", true_sibs=2, detected_true=1),
        outcome(kernel="c", false_candidates=2, detected_false=0),
    ])
    # TSDR averaged over kernels that have true SIBs: (1.0 + 0.5) / 2.
    assert summary.avg_tsdr == pytest.approx(0.75)
    assert summary.avg_fsdr == 0.0
    assert len(summary.outcomes) == 3


def test_summarize_pools_dprs():
    a = outcome(kernel="a", true_sibs=1, detected_true=1)
    a.true_dprs = [0.1, 0.3]
    b = outcome(kernel="b", true_sibs=1, detected_true=1)
    b.true_dprs = [0.2]
    summary = summarize([a, b])
    assert summary.avg_true_dpr == pytest.approx(0.2)


def test_summary_row_rounding():
    summary = AccuracySummary(
        avg_tsdr=1.0, avg_true_dpr=0.04111, avg_fsdr=0.0161,
        avg_false_dpr=0.0, outcomes=[],
    )
    row = summary.as_row()
    assert row["TSDR"] == 1.0
    assert row["DPR(true)"] == 0.041
    assert row["FSDR"] == 0.016


def test_empty_summary_is_zeroes():
    summary = summarize([])
    assert summary.avg_tsdr == 0.0
    assert summary.avg_fsdr == 0.0
