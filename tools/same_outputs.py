"""Check that ``rougewe meta-eval`` gives the same outputs at REV as in this tree.

    python3 tools/same_outputs.py REV

Run it from any directory of a checkout; it needs only git, the standard
library and what ``perfbench/`` needs. For aesop-exact and aesop-we, each
with seeds 5 and 7, it makes the inputs with ``perfbench/prepare.py`` in a
temporary directory, then runs the benchmark's ``meta-eval`` command line
once with the ``src/`` of a ``git archive`` of REV and once with this
tree's, both with the same ``--out``. ``meta-eval`` loads only the vectors
of the corpus's words, so for aesop-we it also loads the whole
``vectors.bin``, without a vocabulary, on both sides. It prints one line per
case and exits 1 if in any case ``report.csv``, ``report.json``, stdout,
stderr or the exit code differ, either side exits nonzero, or either side
writes no report: the benchmark's inputs always give a report; or if the
full loads differ in their words in order, the sha256 of their vectors in
that order, or their load summary. For each ``meta-eval`` case it also
prints each side's peak RSS and minor page faults (``ru_maxrss`` and
``ru_minflt`` from ``os.wait4``); they are for reading only and decide
nothing.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

TREE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(TREE / "perfbench"))

from run import Prepared, cli_args  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CASES = [(workload, seed) for workload in ("aesop-exact", "aesop-we") for seed in (5, 7)]
REPORTS = ("report.csv", "report.json")
# Prints one JSON line describing the full load of the binary file argv[1].
FULL_LOAD = """
import dataclasses, hashlib, json, sys
from rougewe.embeddings import load_binary
table = load_binary(sys.argv[1])
words = list(table.words())
vectors = hashlib.sha256()
for word in words:
    vectors.update(table.lookup(word).tobytes())
print(json.dumps({"words": len(words),
                  "words_sha256": hashlib.sha256(json.dumps(words).encode()).hexdigest(),
                  "vectors_sha256": vectors.hexdigest(),
                  "load_summary": dataclasses.asdict(table.load_summary)}))
"""
OUTPUTS = ("exit code", "stdout", "stderr", *REPORTS)
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


def meta_eval(src: Path, args: list[str], out: Path) -> tuple[dict[str, bytes], str]:
    """Run ``meta-eval`` with the program in ``src``; its outputs by name,
    and its peak RSS and minor page faults. ``out`` is emptied first and after."""
    shutil.rmtree(out, ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    with tempfile.TemporaryFile() as stdout, tempfile.TemporaryFile() as stderr:
        proc = subprocess.Popen([sys.executable, "-m", "rougewe.cli", *args],
                                stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr, env=env,
                                cwd=out.parent)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        stderr.seek(0)
        outputs = {"exit code": str(proc.returncode).encode(), "stdout": stdout.read(),
                   "stderr": stderr.read()}
    for name in REPORTS:
        path = out / name
        outputs[name] = path.read_bytes() if path.is_file() else MISSING
    shutil.rmtree(out, ignore_errors=True)
    return outputs, f"{usage.ru_maxrss / 1024:.2f} MB peak RSS, {usage.ru_minflt:,} minor faults"


def full_load(src: Path, vectors: Path) -> dict[str, object]:
    """Load all of ``vectors`` with the program in ``src``; what the load
    gave, or its exit code and stderr."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", FULL_LOAD, str(vectors)], capture_output=True,
                          stdin=subprocess.DEVNULL, env=env, text=True)
    if done.returncode != 0:
        return {"exit code": done.returncode, "stderr": done.stderr[-2000:]}
    return json.loads(done.stdout)


def compare_full_loads(rev_src: Path, vectors: Path) -> list[str]:
    """The differences between REV's and this tree's full load of ``vectors``."""
    sides = {"REV": full_load(rev_src, vectors), "tree": full_load(TREE / "src", vectors)}
    problems = [f"{side} exit code {got['exit code']}: {got['stderr']}"
                for side, got in sides.items() if "exit code" in got]
    if not problems:
        changed = [name for name in sides["REV"] if sides["REV"][name] != sides["tree"][name]]
        if changed:
            problems.append(f"different {', '.join(changed)}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare this tree with")
    rev = parser.parse_args().rev

    failing = 0
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        work = Path(tmp)
        extract_src(rev, work / "rev")
        for workload, seed in CASES:
            inputs = work / f"{workload}-s{seed}"
            subprocess.run([sys.executable, str(TREE / "perfbench" / "prepare.py"),
                            str(inputs), workload, str(seed)],
                           stdin=subprocess.DEVNULL, check=True)
            out = work / "out"
            args = cli_args(WORKLOADS[workload], Prepared(inputs, {}), out)
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
            print(f"{workload} seed {seed}: {'; '.join(problems) or 'same outputs'}", flush=True)
            print(f"{workload} seed {seed} memory: "
                  + "; ".join(f"{side} {memory}" for side, (_, memory) in runs.items()), flush=True)
            if WORKLOADS[workload].match == "we":
                problems = compare_full_loads(work / "rev" / "src", inputs / "vectors.bin")
                failing += bool(problems)
                same = "same words, vectors and load summary"
                print(f"{workload} seed {seed} full load: {'; '.join(problems) or same}",
                      flush=True)
            shutil.rmtree(inputs)
    print(f"{failing} case(s) failing")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
