"""Self-test: every workload at a tiny size, with all of its checks, and
planted faults that the checks must catch. Timings gate nothing here.

    python3 perfbench/selftest.py

Run from the root of a checkout. Exits 0 when every check behaves.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from checks import check_pair, check_report
from workloads import QUICK

SEED = 7


def expect(ok: bool, what: str, failures: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def declared_metrics(kind: str) -> list[str]:
    """Metric names of one kind ("end_to_end" or "per_layer") in BENCHMARK.json."""
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return sorted(m["name"] for m in spec[kind])


def planted_faults(workload: str, failures: list[str]) -> None:
    """One real report and the sampled pairs must pass; each planted wrong
    result must be caught."""
    src = run.program_src(Path.cwd())
    shape = QUICK[workload]
    prep = run.prepare(workload, SEED, quick=True)
    rnd = run.run_round(shape, prep, src, "untraced")
    report = json.loads((prep.root / "round" / "out" / "report.json").read_text("utf-8"))
    expect(rnd.ok and not rnd.problems and not check_report(report, prep.expected),
           f"{workload}: real report agrees with the oracle", failures)
    report["rows"][-1]["pearson"] += 1e-6
    expect(bool(check_report(report, prep.expected)),
           f"{workload}: a correlation shifted by 1e-6 is caught", failures)
    del report["rows"][0]
    expect(bool(check_report(report, prep.expected)),
           f"{workload}: a missing report row is caught", failures)

    want = prep.expected["sample"][0]
    recall = want["soft"] / want["ref_total"]
    soft = shape.match == "we"
    expect(not check_pair(want["soft"], want["ref_total"], want["cand_total"], recall, want,
                          soft), f"{workload}: the oracle's own pair passes", failures)
    expect(bool(check_pair(want["soft"] + 1e-6, want["ref_total"], want["cand_total"], recall,
                           want, soft)),
           f"{workload}: a pair match count shifted by 1e-6 is caught", failures)
    shutil.rmtree(prep.root / "round", ignore_errors=True)


def bare_directory_fails(failures: list[str]) -> None:
    """Without the program next to it, the benchmark must fail and print no result."""
    bare = run.HERE / ".cache" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".cache"))
    shutil.copy(run.HERE.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "aesop-exact",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    expect(done.returncode != 0 and "correct" not in done.stdout,
           "a directory without the program exits non-zero with no result", failures)
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failures: list[str] = []
    for workload in QUICK:
        result = run.run(workload, SEED, seconds=0, trace=True, quick=True)
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
               f"{workload}: traced quick run is correct with no failed pairs", failures)
        expect(sorted(result["metrics"]) == declared_metrics("per_layer"),
               f"{workload}: traced run reports every declared per-layer metric", failures)
        planted_faults(workload, failures)
    result = run.run("aesop-we", SEED, seconds=0, trace=False, quick=True)
    expect(result["correct"] and sorted(result["metrics"]) == declared_metrics("end_to_end")
           and all(m["value"] > 0 for m in result["metrics"].values()),
           "untraced quick run reports every end-to-end metric, none of them 0", failures)
    bare_directory_fails(failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
