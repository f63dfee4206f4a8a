#!/usr/bin/env python3
"""Self-test of the benchmark itself (not part of the repository's test suite).

    python3 bench/selftest.py

1. Runs every workload at tiny size, untraced and traced, and asserts that the
   last stdout line carries exactly the metrics BENCHMARK.json names, each
   with its unit, and that no job failed.
2. Asserts that corrupted outputs are counted as failed jobs: a ``NaN`` written
   into a results.json, and a threads=2 output whose bytes differ.
Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def expected_metrics(trace: int) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_emitted():
    assert expected_metrics(1) == {n: u for n, u, _ in tracing.LAYER_METRICS}
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace),
                 "--size", "tiny"], cwd=run.ROOT, capture_output=True, text=True,
                timeout=600, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0, (workload, trace, out.stderr)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected_metrics(trace), (workload, trace, got)
            assert "failed_frac" in out.stdout
            print(f"selftest: {workload} trace={trace}: {len(got)} metrics with units, "
                  f"{result['attempted']} job runs, 0 failed")


def check_corruption():
    sk = run.import_symbolkit()
    audit = run.EnsembleAudit(sk.symbols)
    jobs = wl.jobs_for("mc-ensemble", 5, tiny=True)
    root = run.OUT / "selftest"
    shutil.rmtree(root, ignore_errors=True)
    passes = []
    for threads in (1, 2):
        passdir = root / f"t{threads}"
        wall, errors, _, _ = run.run_pass(sk, jobs, threads, passdir, audit)
        passes.append((passdir, wall, errors))
    attempted, failed, problems = run.judge(jobs, passes, audit)
    assert (attempted, failed) == (2 * len(jobs), 0), problems

    # a NaN in the reference results.json: strict JSON rejects it
    target = root / "t1" / "feller-demo" / "results.json"
    saved = target.read_text()
    target.write_text(saved.replace('"frequency": ', '"frequency": NaN, "was": ', 1))
    _, failed, problems = run.judge(jobs, passes, audit)
    assert failed >= 1 and any("non-strict" in p[2] for p in problems), problems
    print(f"selftest: NaN in results.json counted, failed_frac = {failed / attempted:.3f}")
    target.write_text(saved)

    # one byte changed in a threads=2 output
    target = root / "t2" / "compare-bm_bump" / "results.csv"
    data = bytearray(target.read_bytes())
    data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
    target.write_bytes(bytes(data))
    _, failed, problems = run.judge(jobs, passes, audit)
    assert failed == 1 and "results.csv differs" in problems[0][2], problems
    print(f"selftest: threads=2 byte mismatch counted, failed_frac = {failed / attempted:.3f}")
    shutil.rmtree(root)


if __name__ == "__main__":
    check_corruption()
    check_emitted()
    print("selftest: PASS")
