"""Static kernel lint: diagnostics, checkers, waivers, the SIB oracle.

The crafted failing programs live in ``tests/data/bad_kernels/`` — one
minimal kernel per diagnostic id with a golden JSON report next to it —
and double as the examples in ``docs/analysis.md``.  The property tests
pin the contract the CI lint gate relies on: every registered kernel
lints clean (or carries an explicit ``!waive_*`` role) and the static
SIB oracle reproduces the hand-written ``!sib`` ground truth exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    Diagnostic,
    lint_all,
    lint_kernel,
    lint_program,
    score_against_oracle,
    static_sib_oracle,
    waiver_role,
)
from repro.isa import assemble
from repro.kernels import build, kernel_names

BAD_KERNELS = Path(__file__).parent / "data" / "bad_kernels"

#: Fixture name -> the diagnostic ids its lint report must contain.
EXPECTED_IDS = {
    "spin_unannotated": ["SIB001"],
    "sib_mislabeled": ["SIB002"],
    "lock_leak": ["LOCK001", "LOCK003"],
    "rogue_release": ["LOCK002"],
    "exit_holding_lock": ["LOCK003"],
    "double_acquire": ["LOCK004"],
    "divergent_barrier": ["BAR001"],
    "undefined_register": ["REG001"],
    "dead_code": ["CFG001"],
}


# ----------------------------------------------------------------------
# Diagnostic records

def test_diagnostic_round_trip_and_optional_fields():
    diag = Diagnostic(id="SIB001", severity="warning", kernel="k", pc=3,
                      message="m", hint="h", warp=2, lane=None, cycle=40,
                      detail={"loop_blocks": [1]})
    data = diag.to_dict()
    assert data["id"] == "SIB001" and data["warp"] == 2
    assert "lane" not in data  # unset optionals are omitted
    assert Diagnostic.from_dict(data) == diag


def test_diagnostic_format_mentions_id_pc_and_hint():
    diag = Diagnostic(id="REG001", severity="error", kernel="k", pc=7,
                      message="bad register", hint="define it")
    text = diag.format()
    assert "REG001" in text and "k:7" in text
    assert "bad register" in text and "define it" in text


def test_waiver_role_is_lowercased_id():
    assert waiver_role("SIB001") == "waive_sib001"


# ----------------------------------------------------------------------
# Checkers on crafted bad kernels (goldens)

@pytest.mark.parametrize("name", sorted(EXPECTED_IDS))
def test_bad_kernel_matches_golden_json(name):
    source = (BAD_KERNELS / f"{name}.asm").read_text()
    golden = json.loads((BAD_KERNELS / f"{name}.json").read_text())
    report = lint_program(assemble(source, name=name))
    assert not report.ok
    assert [d.id for d in report.diagnostics] == EXPECTED_IDS[name]
    got = {
        "kernel": name,
        "ok": report.ok,
        "diagnostics": [d.to_dict() for d in report.diagnostics],
    }
    assert got == golden


def test_waiver_moves_finding_out_of_diagnostics():
    source = (BAD_KERNELS / "spin_unannotated.asm").read_text()
    waived_source = source.replace("@%p1 bra SPIN",
                                   "@%p1 bra SPIN !waive_sib001")
    report = lint_program(assemble(waived_source, name="waived"))
    assert report.ok
    assert [d.id for d in report.waived] == ["SIB001"]
    # The waived spin stays a candidate but leaves the oracle.
    assert report.sib_candidates and not report.sib_oracle


def test_report_render_lists_findings_and_waivers():
    source = (BAD_KERNELS / "rogue_release.asm").read_text()
    report = lint_program(assemble(source, name="rogue"))
    text = report.render()
    assert "LOCK002" in text and "rogue" in text
    clean = lint_program(assemble("    exit\n", name="empty"))
    assert "OK" in clean.render()


# ----------------------------------------------------------------------
# Property: registered kernels lint clean and the oracle matches truth

@pytest.mark.parametrize("name", kernel_names())
def test_registered_kernel_lints_clean_or_waived(name):
    report = lint_kernel(name)
    assert report.ok, report.render()


@pytest.mark.parametrize("name", kernel_names())
def test_static_oracle_matches_sib_annotations(name):
    program = build(name).launch.program
    assert static_sib_oracle(program) == program.true_sibs(), name


def test_lint_all_covers_every_registered_kernel():
    reports = lint_all()
    assert set(reports) == set(kernel_names())
    assert all(rep.ok for rep in reports.values())


# ----------------------------------------------------------------------
# Table I scoring: static oracle vs DDOS runtime detections

def test_score_against_oracle_on_crafted_program():
    program = assemble(
        """
        mov %r_lock, 64
        mov %r_i, 0
    SPIN:
        atom.cas %r_old, [%r_lock], 0, 1 !lock_try
        setp.ne %p1, %r_old, 0
        @%p1 bra SPIN !sib
        atom.exch %r_ig, [%r_lock], 0 !lock_release
    LOOP:
        add %r_i, %r_i, 1
        setp.lt %p2, %r_i, 10
        @%p2 bra LOOP
        exit
        """,
        name="scored",
    )
    (spin_pc,) = static_sib_oracle(program)
    counting = sorted(program.backward_branches() - {spin_pc})

    perfect = score_against_oracle(program, [spin_pc])
    assert perfect["tsdr"] == 1.0 and perfect["fsdr"] == 0.0

    noisy = score_against_oracle(program, [spin_pc] + counting)
    assert noisy["tsdr"] == 1.0 and noisy["fsdr"] == 1.0
    assert noisy["false_detected"] == counting

    missed = score_against_oracle(program, [])
    assert missed["tsdr"] == 0.0 and missed["fsdr"] == 0.0


#: Table I suite members exercised end-to-end here; spin-heavy and
#: loop-rich sync-free kernels both appear so FSDR has candidates.
DDOS_SUITE = {
    "ht": dict(n_threads=128, n_buckets=8, items_per_thread=1,
               block_dim=64),
    "atm": dict(n_threads=128, n_accounts=16, rounds=1, block_dim=64),
    "st": dict(n_threads=64, n_cells=64, cell_work=2, block_dim=64),
    "kmeans": dict(n_threads=64, per_thread=4, block_dim=32),
    "reduction": dict(n_threads=128, block_dim=64),
}


@pytest.mark.parametrize("kernel", sorted(DDOS_SUITE))
def test_static_oracle_agrees_with_ddos(kernel):
    """Paper Table I, XOR m=k=8 (the default DDOS config): runtime
    detections score TSDR 1.0 / FSDR 0.0 against the *static* oracle —
    i.e. the CFG-derived ground truth and DDOS agree exactly."""
    from repro.sim.config import GPUConfig
    from repro.sim.run import simulate

    config = GPUConfig.preset("fermi", ddos=True, num_sms=1,
                         max_warps_per_sm=8, max_cycles=5_000_000)
    result = simulate(kernel, config=config, params=DDOS_SUITE[kernel])
    program = result.launch.program
    score = score_against_oracle(program, result.predicted_sibs())
    assert score["tsdr"] == 1.0, score
    assert score["fsdr"] == 0.0, score
