"""Check that ``rougewe meta-eval`` gives the same outputs at REV as in this tree.

    python3 tools/same_outputs.py REV

Run it from any directory of a checkout; it needs only git, the standard
library and what ``perfbench/`` needs. For aesop-exact and aesop-we, each
with seeds 5 and 7, it makes the inputs with ``perfbench/prepare.py`` in a
temporary directory, then runs the benchmark's ``meta-eval`` command line
once with the ``src/`` of a ``git archive`` of REV and once with this
tree's, both with the same ``--out``. It prints one line per case and exits
1 if in any case ``report.csv``, ``report.json``, stdout, stderr or the
exit code differ, either side exits nonzero, or either side writes no
report: the benchmark's inputs always give a report.
"""

from __future__ import annotations

import argparse
import io
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


def meta_eval(src: Path, args: list[str], out: Path) -> dict[str, bytes]:
    """Run ``meta-eval`` with the program in ``src``; its outputs by name.
    ``out`` is emptied first and after."""
    shutil.rmtree(out, ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "rougewe.cli", *args], capture_output=True,
                          stdin=subprocess.DEVNULL, env=env, cwd=out.parent)
    outputs = {"exit code": str(done.returncode).encode(), "stdout": done.stdout,
               "stderr": done.stderr}
    for name in REPORTS:
        path = out / name
        outputs[name] = path.read_bytes() if path.is_file() else MISSING
    shutil.rmtree(out, ignore_errors=True)
    return outputs


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
            sides = {"REV": meta_eval(work / "rev" / "src", args, out),
                     "tree": meta_eval(TREE / "src", args, out)}
            problems = [f"{side} exit code {outputs['exit code'].decode()}"
                        for side, outputs in sides.items() if outputs["exit code"] != b"0"]
            problems += [f"{side} wrote no {name}" for side, outputs in sides.items()
                         for name in REPORTS if outputs[name] == MISSING]
            changed = [name for name in OUTPUTS if sides["REV"][name] != sides["tree"][name]]
            if changed:
                problems.append(f"different {', '.join(changed)}")
            failing += bool(problems)
            print(f"{workload} seed {seed}: {'; '.join(problems) or 'same outputs'}", flush=True)
            shutil.rmtree(inputs)
    print(f"{failing} case(s) failing")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
