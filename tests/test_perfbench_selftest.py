"""Smoke test of the benchmark: ``perfbench/selftest.py`` runs every workload
at a tiny size through the public entry points the benchmark hooks into
(``rougewe.cli.main``, ``rouge_score``, ``tokenize``, the functions and the
``EmbeddingTable.compose`` method the tracer wraps) and checks planted faults
are caught.
Timings gate nothing."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "0 failure(s)" in result.stdout, result.stdout
