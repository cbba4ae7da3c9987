"""Check that ``rougewe meta-eval`` and ``score`` give the same outputs at REV as here.

    python3 tools/same_outputs.py REV

Run it from any directory of a checkout; it needs only git, the standard
library and what ``perfbench/`` needs. For aesop-exact and aesop-we, each
with seeds 5 and 7, it makes the inputs with ``perfbench/prepare.py`` in a
temporary directory, then runs the benchmark's ``meta-eval`` command line
once with the ``src/`` of a ``git archive`` of REV and once with this
tree's, both with the same ``--out``. On seed 5 it also runs that command
line with flags the benchmark never gives: ``--multiref jackknife
--report-component f1``, and ``--report-component precision``; and for
aesop-we it runs it with a ``--config`` in place of the metric flags, whose
metrics mix both match kinds and both OOV policies over spans that rouge-1
and rouge-su4 share (MIXED_METRICS), so the scorer's per-call span cache
meets every key it keeps apart. ``meta-eval``
loads only the vectors of the corpus's words, so for aesop-we it also loads
the whole ``vectors.bin``, without a vocabulary, on both sides, once per
seed. No workload reads the text layout, so for aesop-we it also writes the
first TEXT_ENTRIES entries of ``vectors.bin`` as a text file with a header
line and as one without, and loads each on both sides, in full and filtered
by the workload's vocabulary; and it loads, in full, a text file whose NaN
line is followed by a malformed line. It prints one line per case and exits
1 if in any case ``report.csv``, ``report.json``, stdout, stderr or the exit
code differ, either side exits nonzero, or either side writes no report: the
benchmark's inputs always give a report; or if two loads differ in their
words in order, the sha256 of their vectors in that order, their load
summary or their error message, or either side fails to load a well-formed
file or loads the malformed one. Each case also runs ``rougewe score`` of
the first topic's first system against its model summaries, with the
case's metric flags, on both sides, and fails if stdout, stderr or the exit
code differ or either side exits nonzero. For each workload and seed it
also scores the sampled pairs of the inputs' ``expected.json`` through the
library, ``rougewe.tokenize`` and then ``rougewe.rouge_score``, under the
workload's match kind and OOV policy (PAIRS), on both sides, and fails if
any field of any score differs in its ``repr`` or either side exits
nonzero. For each ``meta-eval`` case it also prints each side's peak RSS
and minor page faults (``ru_maxrss`` and ``ru_minflt`` from ``os.wait4``);
they are for reading only and decide nothing. A child's ``ru_maxrss``
counts the peak of this process, so this process holds no whole input.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import operator
import os
import shutil
import struct
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Iterator

TREE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(TREE / "perfbench"))

from run import Prepared, cli_args  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Flags added to the benchmark's command line, by seed: none, and on seed 5
# the multiref policy and report components the benchmark never reaches.
EXTRA_FLAGS = {5: ([], ["--multiref", "jackknife", "--report-component", "f1"],
                   ["--report-component", "precision"]),
               7: ([],)}
# The metrics of the mixed ``--config`` case: the unigram span under exact
# matching and under each OOV policy, and the skip-bigrams under both kinds.
MIXED_METRICS = [{"variant": "rouge-1", "match": "exact"},
                 {"variant": "rouge-su4", "match": "exact"},
                 {"variant": "rouge-1", "match": "we", "oov": "zero"},
                 {"variant": "rouge-su4", "match": "we", "oov": "exact-fallback"}]
# The benchmark's flags that choose metrics, which a ``--config`` cannot override.
METRIC_FLAGS = ("--metrics", "--match", "--oov")
REPORTS = ("report.csv", "report.json")
# Prints one JSON line describing the load of the argv[2] file argv[1], filtered
# by the JSON word list in the file argv[3] if given: the table, or the error.
LOAD = """
import dataclasses, hashlib, json, sys
from rougewe.embeddings import EmbeddingFormatError, load_binary, load_text
vocabulary = json.load(open(sys.argv[3])) if len(sys.argv) > 3 else None
try:
    table = (load_text if sys.argv[2] == "text" else load_binary)(sys.argv[1], vocabulary)
except EmbeddingFormatError as exc:
    print(json.dumps({"error": str(exc)}))
    sys.exit()
words = list(table.words())
vectors = hashlib.sha256()
for word in words:
    vectors.update(table.lookup(word).tobytes())
print(json.dumps({"words": len(words),
                  "words_sha256": hashlib.sha256(json.dumps(words).encode()).hexdigest(),
                  "vectors_sha256": vectors.hexdigest(),
                  "load_summary": dataclasses.asdict(table.load_summary)}))
"""
# Prints, as one JSON line, the ``repr`` of every ``RougeScore`` field that
# ``rouge_score`` gives each sampled pair of the ``expected.json`` argv[1] over
# the corpus argv[2]: the system's summary against its sampled model summary
# alone, as the benchmark's sample check scores it, and against all the
# topic's model summaries under jackknife. Given the OOV policy argv[3] and the
# vector file argv[4], it matches by embeddings, over the vectors of the
# workload's vocabulary.
PAIRS = """
import dataclasses, json, sys
from pathlib import Path
import rougewe
expected = json.load(open(sys.argv[1]))
corpus = Path(sys.argv[2])
match = rougewe.MatchFunction.exact()
if len(sys.argv) > 3:
    table = rougewe.load_binary(sys.argv[4], expected["vocab"])
    match = rougewe.MatchFunction.we(table, oov_policy=sys.argv[3])
def read(path):
    return rougewe.tokenize(path.read_text(encoding="utf-8"), source_id=str(path))
scores = []
for want in expected["sample"]:
    topic = corpus / want["topic"]
    cand = read(topic / "systems" / f"{want['system']}.txt")
    model = [read(topic / "models" / f"m{want['model']}.txt")]
    models = [read(path) for path in sorted((topic / "models").glob("*.txt"))]
    variant = rougewe.RougeVariant.parse(want["variant"])
    for refs, multiref in ((model, "average"), (models, "jackknife")):
        score = rougewe.rouge_score(cand, refs, variant, match, multiref)
        scores.append([repr(value) for value in dataclasses.astuple(score)])
print(json.dumps(scores))
"""
# Entries of ``vectors.bin`` written as text: 23 blocks of the loaders' 218
# 300-d rows, each load under a second on either side.
TEXT_ENTRIES = 5000
# The line of the text file that holds a NaN; the next line is malformed. Both
# sit in one block of rows.
NAN_LINE = 100
STREAMS = ("exit code", "stdout", "stderr")
OUTPUTS = (*STREAMS, *REPORTS)
MISSING = b"(missing)"


def extract_src(rev: str, dest: Path) -> None:
    """Write the regular files under ``src/`` of a ``git archive`` of REV
    into ``dest``."""
    archive = subprocess.run(["git", "-C", str(TREE), "archive", "--format=tar", rev, "src"],
                             capture_output=True)
    if archive.returncode != 0:
        sys.exit(f"git archive {rev} failed: {archive.stderr.decode(errors='replace')}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        for member in tar:
            parts = Path(member.name).parts
            if member.isfile() and parts[0] == "src" and ".." not in parts:
                path = dest.joinpath(*parts)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(tar.extractfile(member).read())


def run_cli(src: Path, args: list[str], cwd: Path) -> tuple[dict[str, bytes], str]:
    """Run ``rougewe`` with the program in ``src``; its exit code, stdout
    and stderr by name, and its peak RSS and minor page faults."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryFile() as stdout, tempfile.TemporaryFile() as stderr:
        proc = subprocess.Popen([sys.executable, "-m", "rougewe.cli", *args],
                                stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr, env=env,
                                cwd=cwd)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        stderr.seek(0)
        outputs = {"exit code": str(proc.returncode).encode(), "stdout": stdout.read(),
                   "stderr": stderr.read()}
    return outputs, f"{usage.ru_maxrss / 1024:.2f} MB peak RSS, {usage.ru_minflt:,} minor faults"


def meta_eval(src: Path, args: list[str], out: Path) -> tuple[dict[str, bytes], str]:
    """Run ``meta-eval`` with the program in ``src``; its outputs by name,
    and its peak RSS and minor page faults. ``out`` is emptied first and after."""
    shutil.rmtree(out, ignore_errors=True)
    outputs, memory = run_cli(src, args, out.parent)
    for name in REPORTS:
        path = out / name
        outputs[name] = path.read_bytes() if path.is_file() else MISSING
    shutil.rmtree(out, ignore_errors=True)
    return outputs, memory


def score_args(meta_eval_args: list[str]) -> list[str]:
    """``rougewe score`` of the first topic's first system against the
    topic's model summaries, with the metric flags of ``meta_eval_args``
    (``meta-eval`` and then options that each take one value)."""
    options = dict(zip(meta_eval_args[1::2], meta_eval_args[2::2]))
    topic = min(path for path in Path(options.pop("--corpus")).iterdir() if path.is_dir())
    flags = [arg for name, value in options.items() if name not in ("--judgments", "--out")
             for arg in (name, value)]
    return ["score", str(min((topic / "systems").glob("*.txt"))),
            *map(str, sorted((topic / "models").glob("*.txt"))), *flags]


def mixed_args(args: list[str], config: Path) -> list[str]:
    """``args`` (``meta-eval`` and then options that each take one value)
    with ``--config config`` in place of the metric flags."""
    options = [(name, value) for name, value in zip(args[1::2], args[2::2])
               if name not in METRIC_FLAGS]
    return [args[0], *(arg for option in options for arg in option), "--config", str(config)]


def compare_score(rev_src: Path, args: list[str], cwd: Path) -> list[str]:
    """The differences between REV's and this tree's ``rougewe score``."""
    sides = {"REV": run_cli(rev_src, args, cwd)[0], "tree": run_cli(TREE / "src", args, cwd)[0]}
    problems = [f"{side} exit code {outputs['exit code'].decode()}"
                for side, outputs in sides.items() if outputs["exit code"] != b"0"]
    changed = [name for name in STREAMS if sides["REV"][name] != sides["tree"][name]]
    if changed:
        problems.append(f"different {', '.join(changed)}")
    return problems


def load(src: Path, args: list[str]) -> dict[str, object]:
    """Run LOAD on ``args`` with the program in ``src``; what the load gave,
    or its exit code and stderr."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", LOAD, *args], capture_output=True,
                          stdin=subprocess.DEVNULL, env=env, text=True)
    if done.returncode != 0:
        return {"exit code": done.returncode, "stderr": done.stderr[-2000:]}
    return json.loads(done.stdout)


def compare_pairs(rev_src: Path, args: list[str]) -> tuple[list[str], int]:
    """The differences between REV's and this tree's PAIRS of ``args``, and
    the number of scores compared."""
    sides = {}
    for side, src in (("REV", rev_src), ("tree", TREE / "src")):
        done = subprocess.run([sys.executable, "-c", PAIRS, *args], capture_output=True,
                              stdin=subprocess.DEVNULL, env={**os.environ, "PYTHONPATH": str(src)},
                              text=True)
        sides[side] = (json.loads(done.stdout) if done.returncode == 0
                       else f"{side} exit code {done.returncode}: {done.stderr[-2000:]}")
    problems = [got for got in sides.values() if isinstance(got, str)]
    if not problems and sides["REV"] != sides["tree"]:
        problems.append(f"different fields in {sum(map(operator.ne, *sides.values()))} of "
                        f"{len(sides['REV'])} scores")
    return problems, len(sides["REV"])


def compare_loads(rev_src: Path, args: list[str], fails: bool) -> list[str]:
    """The differences between REV's and this tree's LOAD of ``args``, and
    each side's error, or, if the file ``fails`` to load, each side's table."""
    sides = {"REV": load(rev_src, args), "tree": load(TREE / "src", args)}
    problems = [f"{side} exit code {got['exit code']}: {got['stderr']}"
                for side, got in sides.items() if "exit code" in got]
    if not problems:
        problems = [f"{side} loaded the file" if fails else f"{side} {got['error']}"
                    for side, got in sides.items() if ("error" in got) != fails]
        rev, tree = sides["REV"], sides["tree"]
        changed = [name for name in {**rev, **tree} if rev.get(name) != tree.get(name)]
        if changed:
            problems.append(f"different {', '.join(changed)}")
    return problems


def text_lines(fh, dim: int) -> Iterator[str]:
    """The entries of the binary vector file ``fh``, read past its header,
    as text lines without their newline, one entry at a time."""
    while True:
        word = bytearray()
        while (byte := fh.read(1)) != b" ":
            if not byte:
                return
            if word or byte != b"\n":
                word += byte
        values = fh.read(4 * dim)
        if len(values) < 4 * dim:
            return
        yield " ".join([word.decode("utf-8"), *map(repr, struct.unpack(f"<{dim}f", values))])


def write_text_vectors(vectors: Path, root: Path) -> tuple[Path, Path, Path]:
    """Write the first TEXT_ENTRIES entries of the binary file ``vectors`` as
    text, one line at a time: with a header line, without one, and with line
    NAN_LINE's first value made a NaN and the next line's last value not a
    number. Only the broken file's NAN_LINE + 1 lines are held at once."""
    headed, headerless, broken = root / "headed.txt", root / "headerless.txt", root / "broken.txt"
    bad: list[str] = []
    with open(vectors, "rb") as fh, open(headerless, "w", encoding="utf-8") as out:
        dim = int(fh.readline().split()[1])
        entries = 0
        for entries, line in enumerate(itertools.islice(text_lines(fh, dim), TEXT_ENTRIES), 1):
            out.write(f"{line}\n")
            if entries <= NAN_LINE + 1:
                bad.append(line)
    with open(headed, "w", encoding="utf-8") as out, open(headerless, encoding="utf-8") as lines:
        out.write(f"{entries} {dim}\n")
        shutil.copyfileobj(lines, out)
    word, _, values = bad[NAN_LINE - 1].partition(" ")
    bad[NAN_LINE - 1] = f"{word} nan {values.partition(' ')[2]}"
    bad[NAN_LINE] = bad[NAN_LINE].rpartition(" ")[0] + " oops"
    broken.write_text("".join(f"{line}\n" for line in bad), encoding="utf-8")
    return headed, headerless, broken


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare this tree with")
    rev = parser.parse_args().rev

    failing = 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        work = Path(tmp)
        extract_src(rev, work / "rev")
        for workload, seed in ((w, s) for w in ("aesop-exact", "aesop-we") for s in EXTRA_FLAGS):
            inputs = work / f"{workload}-s{seed}"
            subprocess.run([sys.executable, str(TREE / "perfbench" / "prepare.py"),
                            str(inputs), workload, str(seed)],
                           stdin=subprocess.DEVNULL, check=True)
            out = work / "out"
            base = cli_args(WORKLOADS[workload], Prepared(inputs, {}), out)
            cases = [(" ".join([workload, "seed", str(seed), *flags]), base + flags)
                     for flags in EXTRA_FLAGS[seed]]
            if WORKLOADS[workload].match == "we" and seed == 5:
                config = work / "mixed.json"
                config.write_text(json.dumps({"metrics": MIXED_METRICS}), encoding="utf-8")
                cases.append((f"{workload} seed {seed} mixed --config",
                              mixed_args(base, config)))
            for case, args in cases:
                runs = {"REV": meta_eval(work / "rev" / "src", args, out),
                        "tree": meta_eval(TREE / "src", args, out)}
                sides = {side: outputs for side, (outputs, _) in runs.items()}
                problems = [f"{side} exit code {outputs['exit code'].decode()}"
                            for side, outputs in sides.items() if outputs["exit code"] != b"0"]
                problems += [f"{side} wrote no {name}" for side, outputs in sides.items()
                             for name in REPORTS if outputs[name] == MISSING]
                changed = [name for name in OUTPUTS if sides["REV"][name] != sides["tree"][name]]
                if changed:
                    problems.append(f"different {', '.join(changed)}")
                failing += bool(problems)
                print(f"{case}: {'; '.join(problems) or 'same outputs'}", flush=True)
                print(f"{case} memory: "
                      + "; ".join(f"{side} {memory}" for side, (_, memory) in runs.items()),
                      flush=True)
                problems = compare_score(work / "rev" / "src", score_args(args), work)
                failing += bool(problems)
                print(f"{case} score: {'; '.join(problems) or 'same outputs'}", flush=True)
            pairs = [str(inputs / "expected.json"), str(inputs / "corpus")]
            if WORKLOADS[workload].match == "we":
                pairs += [WORKLOADS[workload].oov, str(inputs / "vectors.bin")]
            problems, scores = compare_pairs(work / "rev" / "src", pairs)
            failing += bool(problems)
            print(f"{workload} seed {seed} rouge_score: "
                  f"{'; '.join(problems) or f'same fields in all {scores} scores'}", flush=True)
            if WORKLOADS[workload].match == "we":
                vocabulary = work / "vocabulary.json"
                vocabulary.write_text(json.dumps(json.loads(
                    (inputs / "expected.json").read_text(encoding="utf-8"))["vocab"]))
                headed, headerless, broken = write_text_vectors(inputs / "vectors.bin", work)
                loads = {"full load": ([str(inputs / "vectors.bin"), "binary"], False)}
                for path in (headed, headerless):
                    loads[f"text {path.stem} full load"] = ([str(path), "text"], False)
                    loads[f"text {path.stem} filtered load"] = (
                        [str(path), "text", str(vocabulary)], False)
                loads["text NaN-then-malformed load"] = ([str(broken), "text"], True)
                for name, (load_args, fails) in loads.items():
                    problems = compare_loads(work / "rev" / "src", load_args, fails)
                    failing += bool(problems)
                    same = "same error" if fails else "same words, vectors and load summary"
                    print(f"{workload} seed {seed} {name}: {'; '.join(problems) or same}",
                          flush=True)
            shutil.rmtree(inputs)
    print(f"{failing} case(s) failing")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
