"""Golden reports: ``meta-eval`` on a fixed synthetic corpus must write the
committed ``report.csv`` and ``report.json`` byte for byte.

The WE run uses a 16-d +-1/4 sign table written by ``conftest.save_binary``.
Its cosines are multiples of 1/8, exact in any summation order, so the
goldens depend on neither the BLAS kernel nor the CPU. ``config.out`` is dropped
from the JSON before comparing; every other path is relative to the run's
working directory.

Regenerate the goldens (only when a report change is intended) with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from rougewe.cli import main

from conftest import build_synthetic_corpus, save_binary, sign_table

DATA = Path(__file__).parent / "data"
SEED = 11
N_TOPICS = 3


def _metrics(match: str) -> list[dict]:
    return [
        {"variant": "rouge-1", "match": match},
        {"variant": "rouge-2", "match": match, "multiref": "jackknife", "report": "f1"},
        {"variant": "rouge-su4", "match": match},
    ]


RUNS = {
    "exact": {"metrics": _metrics("exact")},
    "we": {"metrics": _metrics("we"), "oov": "exact-fallback",
           "embeddings": "vectors.bin"},
}


def build_inputs(root: Path) -> None:
    """Corpus, judgments and sign table under ``root``, named as the runs use them.

    On top of ``build_synthetic_corpus``: each topic gets a third model
    summary (so jackknife differs from average), and one system lacks one
    topic's summary.
    """
    build_synthetic_corpus(root, n_systems=8, n_topics=N_TOPICS, summary_len=30, seed=SEED)
    rng = np.random.default_rng(SEED)
    for t in range(N_TOPICS):
        models = root / "corpus" / f"topic{t:02d}" / "models"
        words = (models / "m1.txt").read_text(encoding="utf-8").split()
        for pos in rng.choice(len(words), size=len(words) // 4, replace=False):
            words[pos] = f"t{t}word{int(rng.integers(0, 60))}"
        (models / "m3.txt").write_text(" ".join(words[::-1]), encoding="utf-8")
    (root / "corpus" / "topic01" / "systems" / "sys05.txt").unlink()
    # Every seventh pool word and all junk words stay out of vocabulary.
    vocab = [f"t{t}word{i}" for t in range(N_TOPICS) for i in range(60) if i % 7]
    save_binary(sign_table(SEED, vocab), root / "vectors.bin")


def run_reports(root: Path, name: str) -> tuple[bytes, bytes]:
    """Run one golden configuration in ``root``; return (report.csv, report.json) bytes."""
    config = root / f"{name}.json"
    config.write_text(json.dumps(RUNS[name]), encoding="utf-8")
    out = f"out-{name}"
    result = CliRunner().invoke(main, [
        "meta-eval", "--corpus", "corpus", "--judgments", "judgments.csv",
        "--out", out, "--config", config.name,
    ])
    assert result.exit_code == 0, result.output
    payload = json.loads((root / out / "report.json").read_text(encoding="utf-8"))
    del payload["config"]["out"]
    return ((root / out / "report.csv").read_bytes(),
            (json.dumps(payload, indent=2) + "\n").encode("utf-8"))


@pytest.fixture
def golden_root(tmp_path, monkeypatch):
    build_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", sorted(RUNS))
def test_reports_match_golden_bytes(golden_root, name):
    csv_bytes, json_bytes = run_reports(golden_root, name)
    assert csv_bytes == (DATA / f"golden_{name}" / "report.csv").read_bytes()
    assert json_bytes == (DATA / f"golden_{name}" / "report.json").read_bytes()


def _regenerate() -> None:
    root = Path(tempfile.mkdtemp())
    try:
        build_inputs(root)
        for name in RUNS:
            with pytest.MonkeyPatch.context() as mp:
                mp.chdir(root)
                csv_bytes, json_bytes = run_reports(root, name)
            target = DATA / f"golden_{name}"
            target.mkdir(parents=True, exist_ok=True)
            (target / "report.csv").write_bytes(csv_bytes)
            (target / "report.json").write_bytes(json_bytes)
            print(f"wrote {target}")
    finally:
        shutil.rmtree(root)


if __name__ == "__main__":
    _regenerate()
