"""Meta-eval benchmark: run one workload through ``rougewe meta-eval`` and check it.

    python3 perfbench/run.py --workload aesop-exact --seed 1 --seconds 45 --trace 0

Run from the root of a checkout: the program is imported from ``./src``.
Inputs and the oracle's expectations are made from ``--seed`` by
``prepare.py``, outside the timed region, and cached under
``perfbench/.cache``. Each round is a fresh process (``child.py``) that runs
the CLI on them. An untraced run makes ``max(1, round(seconds / round_s))``
rounds, where ``round_s`` is the workload's nominal round time, so every run
of a workload attempts the same operations; a traced run makes half as many
cycles of an untraced and a traced round. Every round's ``report.json`` is checked
against the oracle, and afterwards a fixed sample of pairs is scored through
the public ``rouge_score`` and checked pair by pair.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``. ``--quick`` runs the tiny inputs of the self-test.

This process imports nothing but the standard library until the last round
has ended, so that it stays small: a launched process's ``ru_maxrss``
includes the peak of the process that launched it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from workloads import QUICK, WORKLOADS, Shape  # noqa: E402

CACHE_VERSION = 2  # bump when the generator or the oracle changes; shapes are hashed in
CACHE_KEEP = 3  # cached seeds kept per workload; an aesop-we entry is ~120 MB
SETUPS_PER_RUN = 3  # set-up samples per untraced run; short of rounds, set-up-only launches
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "score_pairs_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Round:
    mode: str  # "untraced" | "traced" | "setup" (see child.py)
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    ok: bool = False  # the process exited 0 and left its result file
    failed_pairs: int = 0
    setup_s: float = 0.0
    score_s: float = 0.0
    child: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


@dataclass
class Prepared:
    root: Path
    expected: dict

    @property
    def corpus(self) -> Path:
        return self.root / "corpus"


def program_src(root: Path) -> Path:
    src = root / "src"
    if not (src / "rougewe" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {src / 'rougewe' / 'cli.py'} is missing; "
                         "run from the root of a checkout")
    return src


def prepare(workload: str, seed: int, quick: bool) -> Prepared:
    """Inputs and expectations for one seed, from the cache or made afresh in
    a separate process. The newest few entries of each workload are kept."""
    cache = HERE / ".cache" / workload
    shape = (QUICK if quick else WORKLOADS)[workload]
    key = hashlib.sha1(f"{CACHE_VERSION} {shape!r}".encode()).hexdigest()[:10]
    root = cache / f"{key}-s{seed}"
    expected_path = root / "expected.json"
    if not expected_path.is_file():
        old = sorted((p for p in cache.glob("*") if p.is_dir()), key=lambda p: p.stat().st_mtime)
        for stale in old[:max(0, len(old) - CACHE_KEEP + 1)] + [root]:
            shutil.rmtree(stale, ignore_errors=True)
        cmd = [sys.executable, str(HERE / "prepare.py"), str(root), workload, str(seed)]
        done = subprocess.run(cmd + (["--quick"] if quick else []), stdin=subprocess.DEVNULL)
        if done.returncode != 0:
            raise BenchError(f"input generation failed with exit code {done.returncode}")
    os.utime(root)
    return Prepared(root, json.loads(expected_path.read_text(encoding="utf-8")))


def cli_args(shape: Shape, prep: Prepared, out: Path) -> list[str]:
    args = ["meta-eval", "--corpus", str(prep.corpus),
            "--judgments", str(prep.root / "judgments.csv"), "--out", str(out),
            "--metrics", shape.metrics, "--match", shape.match]
    if shape.match == "we":
        args += ["--embeddings", str(prep.root / "vectors.bin"), "--oov", shape.oov]
    return args


def run_round(shape: Shape, prep: Prepared, src: Path, mode: str) -> Round:
    """Launch one measured process, then check its report outside the timing."""
    work = prep.root / "round"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    result_path = work / "child.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path), mode,
           "--", *cli_args(shape, prep, work / "out")]
    with open(work / "stdout.txt", "wb") as so, open(work / "stderr.txt", "wb") as se:
        launched = time.monotonic()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=so, stderr=se, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rnd = Round(mode, wall_s=exited - launched, cpu_s=usage.ru_utime + usage.ru_stime,
                peak_rss_mb=usage.ru_maxrss / 1024)
    if proc.returncode != 0 or not result_path.is_file():
        tail = (work / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
        rnd.failed_pairs = shape.pairs
        rnd.problems.append(f"meta-eval exited with code {proc.returncode}: {tail}")
        return rnd
    rnd.ok = True
    rnd.child = json.loads(result_path.read_text(encoding="utf-8"))
    if not Path(rnd.child["rougewe_file"]).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"the measured process imported rougewe from "
                         f"{rnd.child['rougewe_file']}, not from {src}")
    boundary = rnd.child["score_corpus"]  # enter, exit, enter, exit, ...
    if not boundary:
        raise BenchError("meta-eval never called harness.score_corpus")
    rnd.setup_s = boundary[0] - launched
    if mode == "setup":
        return rnd
    rnd.score_s = sum(boundary[1::2]) - sum(boundary[0::2])
    rnd.failed_pairs = rnd.child["failures_logged"] * shape.models
    try:
        report = json.loads((work / "out" / "report.json").read_text(encoding="utf-8"))
        csv_rows = (work / "out" / "report.csv").read_text(encoding="utf-8").splitlines()
    except (OSError, ValueError) as exc:
        rnd.problems.append(f"unreadable report: {exc}")
        return rnd
    rnd.problems += checks.check_report(report, prep.expected)
    if len(csv_rows) != 1 + len(prep.expected["correlations"]):
        rnd.problems.append(f"report.csv has {len(csv_rows)} lines")
    return rnd


def check_sample(shape: Shape, prep: Prepared, src: Path) -> tuple[list[str], list[str]]:
    """Score the sampled pairs through the public API, and check the loaded
    table against the load rules. Returns (table problems, one line per pair
    the oracle rejects)."""
    sys.path.insert(0, str(src))
    import numpy as np
    import rougewe

    import oracle

    if not Path(rougewe.__file__).resolve().is_relative_to(src.resolve()):
        raise BenchError(f"imported rougewe from {rougewe.__file__}, not from {src}")
    problems: list[str] = []
    match = rougewe.MatchFunction.exact()
    if shape.match == "we":
        path = prep.root / "vectors.bin"
        table = rougewe.load_binary(path)
        rules = oracle.read_vectors(path, wanted=set(prep.expected["vocab"]))
        s, w = table.load_summary, prep.expected["load"]
        got = (s.duplicates, s.case_collisions, s.zero_dropped)
        want_counts = (w["duplicates"], w["case_collisions"], w["zero_dropped"])
        if got != want_counts:
            problems.append(f"load summary (duplicates, case collisions, zero vectors) {got}, "
                            f"load rules {want_counts}")
        for word in prep.expected["vocab"]:
            have, ref = table.lookup(word), rules.vectors.get(word)
            if (have is None) != (ref is None) or (ref is not None
                                                   and not np.array_equal(have, ref)):
                problems.append(f"the vector loaded for {word!r} breaks the load rules")
                break
        match = rougewe.MatchFunction.we(table, oov_policy=shape.oov)

    def read(path: Path):
        return rougewe.tokenize(path.read_text(encoding="utf-8"), source_id=str(path))

    rejected = []
    for want in prep.expected["sample"]:
        topic = prep.corpus / want["topic"]
        cand = read(topic / "systems" / f"{want['system']}.txt")
        ref = read(topic / "models" / f"m{want['model']}.txt")
        score = rougewe.rouge_score(cand, [ref], rougewe.RougeVariant.parse(want["variant"]),
                                    match)
        found = checks.check_pair(score.soft_match_count, score.ref_total, score.cand_total,
                                  score.recall, want, soft_matching=shape.match == "we")
        if found:
            rejected.append(f"{want['variant']} {want['topic']}/{want['system']} vs "
                            f"m{want['model']}: " + "; ".join(found))
    return problems, rejected


def layer_metrics(traced: list[Round], untraced: list[Round], density: float
                  ) -> dict[str, tuple[float, str]]:
    """Per-layer figures: medians over the traced rounds."""
    def med(fn) -> float:
        return statistics.median(fn(r.child["trace"]) for r in traced)

    def secs(*keys):
        return lambda t: sum(t["seconds"].get(k, 0.0) for k in keys)

    def calls(key):
        return lambda t: t["calls"].get(key, 0)

    load = secs("embeddings.load_binary", "embeddings.load_text")
    extract_calls = calls("rouge.extract_units")
    return {
        "cli.import_s": (statistics.median(r.child["import_s"] for r in traced), "s"),
        "harness.load_corpus_s": (med(secs("harness.load_corpus")), "s"),
        "harness.load_judgments_s": (med(secs("harness.load_judgments")), "s"),
        "harness.score_corpus_s": (med(secs("harness.score_corpus")), "s"),
        "harness.meta_evaluate_s": (med(secs("harness.meta_evaluate")), "s"),
        "harness.write_reports_s": (med(secs("harness.write_reports")), "s"),
        "embeddings.load_s": (med(load), "s"),
        "embeddings.load_us_per_entry": (
            med(lambda t: load(t) / t["load_entries"] * 1e6 if t["load_entries"] else 0.0), "us"),
        "embeddings.load_peak_rss_mb": (med(lambda t: t["load_peak_rss_kb"] / 1024), "MB"),
        "embeddings.compose_calls": (med(calls("embeddings.compose")), "count"),
        "embeddings.compose_s": (med(secs("embeddings.compose")), "s"),
        "textpipe.tokenize_calls": (med(calls("textpipe.tokenize")), "count"),
        "textpipe.tokenize_s": (med(secs("textpipe.tokenize")), "s"),
        "textpipe.extract_s": (
            med(secs("textpipe.extract_ngrams", "textpipe.extract_skip_bigrams")), "s"),
        "textpipe.units_extracted": (med(lambda t: t["units_extracted"]), "count"),
        "rouge.rouge_score_calls": (med(calls("rouge.rouge_score")), "count"),
        "rouge.rouge_score_s": (med(secs("rouge.rouge_score")), "s"),
        "rouge.extract_units_calls": (med(extract_calls), "count"),
        "rouge.extract_units_unique_ratio": (
            med(lambda t: t["extract_unique_inputs"] / extract_calls(t)
                if extract_calls(t) else 0.0), "ratio"),
        "rouge.soft_overlap_calls": (med(calls("rouge.soft_overlap")), "count"),
        "rouge.soft_overlap_s": (med(secs("rouge.soft_overlap")), "s"),
        "rouge.positive_sim_density": (density, "ratio"),
        "correlation.s": (med(lambda t: t["module_seconds"].get("correlation", 0.0)), "s"),
        "proc.cpu_s": (statistics.median(r.cpu_s for r in untraced), "s"),
        "trace.overhead_s": (statistics.median(r.wall_s for r in traced)
                             - statistics.median(r.wall_s for r in untraced), "s"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    src = program_src(Path.cwd())
    shape = (QUICK if quick else WORKLOADS)[workload]
    prep = prepare(workload, seed, quick)

    # A fixed number of whole rounds; in a traced run each cycle is one
    # untraced round (the overhead baseline) and one traced round.
    kinds = ["untraced", "traced"] if trace else ["untraced"]
    cycles = max(1, round(seconds / (shape.round_s * len(kinds))))
    rounds = [run_round(shape, prep, src, mode) for _ in range(cycles) for mode in kinds]
    setups = [] if trace else [run_round(shape, prep, src, "setup")
                               for _ in range(SETUPS_PER_RUN - len(rounds))]
    shutil.rmtree(prep.root / "round", ignore_errors=True)
    for r in rounds + setups:
        print(f"round {r.mode}: wall {r.wall_s:.3f} s, setup {r.setup_s:.3f} s, "
              f"score {r.score_s:.3f} s, cpu {r.cpu_s:.3f} s, rss {r.peak_rss_mb:.1f} MB",
              file=sys.stderr)

    table_problems, rejected = check_sample(shape, prep, src)
    # A wrong result from a completed round makes the run incorrect; rounds
    # that did not complete and pairs the oracle rejects count as failed.
    problems = [p for r in rounds if r.ok for p in r.problems] + table_problems
    for p in problems + rejected + [p for r in rounds if not r.ok for p in r.problems]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    untraced = [r for r in rounds if r.ok and r.mode == "untraced"]
    traced = [r for r in rounds if r.ok and r.mode == "traced"]
    if not untraced or (trace and not traced):
        raise BenchError("no round of meta-eval completed")
    if trace:
        metrics = layer_metrics(traced, untraced, prep.expected["density"])
    else:
        # Times are pooled over the rounds rather than taken as a median: a
        # shared host's speed can drift in phases of seconds to minutes, and
        # a mean over the whole run follows the share of slow time smoothly
        # where a median of a few rounds jumps between the phases.
        metrics = {
            "wall_s": statistics.fmean(r.wall_s for r in untraced),
            "setup_s": statistics.median(r.setup_s for r in untraced + setups if r.ok),
            "score_pairs_per_s": shape.pairs * len(untraced) / sum(r.score_s for r in untraced),
            "peak_rss_mb": statistics.median(r.peak_rss_mb for r in untraced),
        }
        metrics = {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}
    return {
        "correct": not problems,
        "attempted": len(rounds) * shape.pairs + len(prep.expected["sample"]),
        "failed": sum(r.failed_pairs for r in rounds) + len(rejected),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs; timings gate nothing")
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
