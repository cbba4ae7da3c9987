"""Shared fixtures: toy embedding tables and synthetic corpora."""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from rougewe.embeddings import EmbeddingTable, _TableBuilder


def make_table(vectors: dict[str, Sequence[float]], normalize: bool = True) -> EmbeddingTable:
    """A table built from ``vectors`` by the loaders' build step."""
    dim = len(next(iter(vectors.values())))
    builder = _TableBuilder(dim, normalize, None, len(vectors))
    words = list(vectors)
    block = np.array([np.asarray(v, dtype=np.float64) for v in vectors.values()], dtype="<f4")
    for i in range(0, len(words), builder.rows):
        part = words[i:i + builder.rows]
        builder.take(block[i:i + builder.rows], part, part.__getitem__)
    return builder.table()


def identity_table(words: Sequence[str]) -> EmbeddingTable:
    """One distinct basis vector per word: similarity degenerates to identity."""
    eye = np.eye(len(words), dtype=np.float32)
    return make_table({w: eye[i] for i, w in enumerate(words)})


def sign_table(seed: int, words: Sequence[str]) -> EmbeddingTable:
    """Random 16-d vectors of +-1/4 entries. They are unit length, their
    element-wise products normalize back to +-1/4 entries, and every dot
    product is a multiple of 1/8, exact in any summation order: a matrix
    product and a per-pair dot agree bit for bit, on any BLAS kernel."""
    rng = np.random.default_rng(seed)
    return make_table({w: rng.choice([-0.25, 0.25], size=16) for w in words})


@pytest.fixture
def weather_table() -> EmbeddingTable:
    """Tiny table where rain words are near-synonyms (cosine 0.8)."""
    return make_table({
        "it": [1, 0, 0, 0],
        "is": [0, 1, 0, 0],
        "raining": [0, 0, 1, 0],
        "heavily": [0, 0, 0, 1],
        "pouring": [0, 0.6, 0.8, 0],
    })


def write_corpus(root: Path, topics: dict[str, tuple[dict[str, str], dict[str, str]]]) -> Path:
    """Materialize a corpus tree: topic -> (models, systems) text maps."""
    for topic_id, (models, systems) in topics.items():
        models_dir = root / topic_id / "models"
        models_dir.mkdir(parents=True)
        for model_id, text in models.items():
            (models_dir / f"{model_id}.txt").write_text(text, encoding="utf-8")
        systems_dir = root / topic_id / "systems"
        systems_dir.mkdir(parents=True)
        for system_id, text in systems.items():
            (systems_dir / f"{system_id}.txt").write_text(text, encoding="utf-8")
    return root


def build_synthetic_corpus(
    root: Path,
    n_systems: int = 10,
    n_topics: int = 3,
    summary_len: int = 40,
    seed: int = 20240601,
) -> tuple[Path, Path, list[str], list[float]]:
    """Corpus of progressively degraded copies of the model summaries.

    System k replaces a fraction k/n_systems of the first model summary's
    tokens with unique junk tokens, so summary quality decreases strictly
    with k. Returns (corpus_dir, judgments_csv, system_ids, quality) where
    quality is the known degradation rank (higher = better summary).
    """
    rng = np.random.default_rng(seed)
    system_ids = [f"sys{k:02d}" for k in range(n_systems)]
    topics: dict[str, tuple[dict[str, str], dict[str, str]]] = {}
    for t in range(n_topics):
        pool = [f"t{t}word{i}" for i in range(60)]
        base = [pool[i] for i in rng.integers(0, len(pool), size=summary_len)]
        variant = list(base)
        for pos in rng.choice(summary_len, size=summary_len // 8, replace=False):
            variant[pos] = pool[int(rng.integers(0, len(pool)))]
        models = {"m1": " ".join(base), "m2": " ".join(variant)}
        systems = {}
        for k, system_id in enumerate(system_ids):
            degraded = list(base)
            n_replace = round(summary_len * k / n_systems)
            positions = rng.choice(summary_len, size=n_replace, replace=False)
            for i, pos in enumerate(positions):
                degraded[pos] = f"junk{t}x{k}x{i}"
            systems[system_id] = " ".join(degraded)
        topics[f"topic{t:02d}"] = (models, systems)
    corpus_dir = root / "corpus"
    corpus_dir.mkdir()
    write_corpus(corpus_dir, topics)

    quality = [float(n_systems - k) for k in range(n_systems)]
    judgments = root / "judgments.csv"
    lines = ["system_id,pyramid,responsiveness,readability"]
    for k, system_id in enumerate(system_ids):
        lines.append(f"{system_id},{(n_systems - k) / n_systems:.4f},{5 - 0.4 * k:.4f},{4 - 0.3 * k:.4f}")
    judgments.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return corpus_dir, judgments, system_ids, quality
