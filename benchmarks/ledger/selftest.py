#!/usr/bin/env python3
"""Selftest of the ledger (<60 s): ``python3 benchmarks/ledger/selftest.py``.

* ``BENCHMARK.json`` keeps to the limits of the driver's contract;
* every workload, at a twentieth of its size, prints all nine end-to-end
  metrics, and its result line names exactly BENCHMARK.json's metrics
  with their units;
* a traced run prints every per-layer metric of BENCHMARK.json;
* ``sim_fingerprint`` is the same on two back-to-back runs (the second
  under another seed: the fingerprint covers the seed-independent specs);
* the correctness checks fire: a mutated ``summary()`` and a forced
  ``RunFailure`` (``Runner(run_fn=...)``) each give ``failed_frac > 0``
  and a non-zero exit.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
import time
from pathlib import Path

import run
from measure import END_TO_END_UNITS

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def check(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(what)
    print(f"  ok: {what}")


def check_contract(contract: dict) -> None:
    check(set(contract) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly the contract's keys")
    check(2 <= len(contract["workloads"]) <= 8
          and all(set(w) == {"name", "why"} and len(w["why"]) <= 200
                  and "\n" not in w["why"] for w in contract["workloads"]),
          "2-8 workloads, each a name and a one-line why")
    end_to_end, per_layer = contract["end_to_end"], contract["per_layer"]
    check(1 <= len(end_to_end) <= 16 and all(
        set(m) == {"name", "unit", "better", "bound"}
        and 0 <= m["bound"] <= 0.25 for m in end_to_end),
        "1-16 end-to-end metrics with bounds of at most 0.25")
    check({"name": "setup_s", "unit": "s", "better": "lower"}.items()
          <= next(m for m in end_to_end if m["name"] == "setup_s").items()
          and max(m["bound"] for m in end_to_end)
          == next(m["bound"] for m in end_to_end if m["name"] == "setup_s"),
          "setup_s is there, in s, lower is better, with the largest bound")
    check(1 <= len(per_layer) <= 128 and all(
        set(m) == {"name", "unit", "better"} for m in per_layer),
        "1-128 per-layer metrics, no bounds")
    names = [m["name"] for m in contract["workloads"] + end_to_end + per_layer]
    check(len(names) == len(set(names))
          and all(_NAME.match(n) for n in names)
          and all(_UNIT.match(m["unit"]) for m in end_to_end + per_layer)
          and all(m["better"] in ("lower", "higher")
                  for m in end_to_end + per_layer),
          "names are unique and well formed, units too")
    check(isinstance(contract["run_seconds"], int)
          and 1 <= contract["run_seconds"] <= 60, "run_seconds is 1-60")


def ledger(out: Path, *argv: str):
    """Run ``run.py`` in-process; returns (exit code, stdout, result)."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--scale", "quick", "--seconds", "1",
                         "--out", str(out), *argv])
    text = stdout.getvalue()
    return code, text, json.loads(text.strip().splitlines()[-1])


def check_result(result: dict, section: list, what: str) -> None:
    check(set(result) == {"correct", "attempted", "failed", "metrics"}
          and result["attempted"] >= 1,
          f"{what}: result line has the four keys")
    expected = {m["name"]: m["unit"] for m in section}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == expected, f"{what}: metrics and units match BENCHMARK.json")


def main() -> int:
    started = time.perf_counter()
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    print("BENCHMARK.json")
    check_contract(contract)
    (run.HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.HERE / ".work") as tmp:
        out = Path(tmp)
        for workload in (w["name"] for w in contract["workloads"]):
            print(workload)
            code, text, result = ledger(out, "--workload", workload)
            check(code == 0 and result["correct"] and result["failed"] == 0,
                  "runs clean, exit 0")
            check(all(re.search(rf"^  {re.escape(name)} ", text, re.M)
                      for name in END_TO_END_UNITS),
                  "prints all nine end-to-end metrics")
            check_result(result, contract["end_to_end"], "untraced")
            check(all(v["value"] > 0 for v in result["metrics"].values()),
                  "no end-to-end metric reads 0")
            first = re.search(r"sim_fingerprint +(\w+)", text).group(1)
            _, text, _ = ledger(out, "--workload", workload, "--seed", "7")
            again = re.search(r"sim_fingerprint +(\w+)", text).group(1)
            check(first == again, "sim_fingerprint repeats (seeds 0 and 7)")

        print("traced run")
        code, _, result = ledger(out, "--workload", "syncfree_sim",
                                 "--trace", "1")
        check(code == 0 and result["correct"], "runs clean, exit 0")
        check_result(result, contract["per_layer"], "traced")
        check(result["metrics"]["core.bows.select_calls"]["value"] == 0
              and result["metrics"]["sim.sm.step_calls"]["value"] > 0,
              "syncfree_sim steps SMs and never selects a backed-off warp")
        check((out / "trace_syncfree_sim.json").is_file(),
              "trace_syncfree_sim.json written")

        print("injected faults")
        code, text, result = ledger(out, "--workload", "syncfree_sim",
                                    "--inject", "summary")
        check(code != 0 and not result["correct"] and result["failed"] > 0
              and not re.search(r"failed_frac +0\.0+ ", text),
              "a mutated summary() raises failed_frac and the exit code")
        code, text, result = ledger(out, "--workload", "lab_quick_sweep",
                                    "--inject", "run_failure")
        check(code != 0 and not result["correct"]
              and result["failed"] == result["attempted"],
              "a forced RunFailure fails every op and the exit code")
    elapsed = time.perf_counter() - started
    print(f"selftest passed in {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
