"""Shared fixtures: toy embedding tables, synthetic corpora, and the
pair-level helpers the tests score and write vectors through."""

from __future__ import annotations

import os
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
import pytest
from hypothesis import settings

from rougewe.embeddings import EmbeddingTable, _TableBuilder
from rougewe.rouge import SCORE_FIELDS, MatchFunction, RougeVariant, score_fields
from rougewe.textpipe import encode_tokens

from exact_oracle import Words

# Tier-1 draws the same hypothesis inputs on every run of one tree, so its
# verdict depends on the code alone; each test's example count is its own.
# HYPOTHESIS_PROFILE=deep draws afresh on each run instead, DEEP_FACTOR
# times each test's example count.
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "tier1")
DEEP_FACTOR = 10
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("deep")
settings.load_profile(PROFILE)


def deepen(tests: Sequence[Callable], factor: int) -> None:
    """Multiply the example count of each hypothesis test among ``tests``
    by ``factor``, once per test function, however many items share it."""
    for test in {id(test): test for test in tests}.values():
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is not None and getattr(test, "is_hypothesis_test", False):
            test._hypothesis_internal_use_settings = settings(
                own, max_examples=own.max_examples * factor)


def pytest_collection_modifyitems(items):
    if PROFILE == "deep":
        deepen([getattr(item, "function", None) for item in items], DEEP_FACTOR)


def batch_scorer(refs: Sequence[Words], cands: Sequence[Words], variant: RougeVariant,
                 match: MatchFunction, multiref: str = "average"
                 ) -> tuple[Callable[[Sequence[np.ndarray]], np.ndarray], list[np.ndarray]]:
    """``score_fields`` of the one metric and every field, taking only the
    batch and giving its (fields × candidates) array, bound to the word ids
    of ``refs``, and the word ids of ``cands``: all coded together, as
    ``score_corpus`` codes a corpus, and under embedding matching with
    each word's table row."""
    words, ids = encode_tokens([*refs, *cands])
    rows = None if match.table is None else match.table.rows(words)
    metrics = [(variant, match, multiref, SCORE_FIELDS)]
    return (lambda batch: score_fields(ids[:len(refs)], batch, metrics, rows)[0],
            ids[len(refs):])


def field_columns(scores: Sequence[Sequence[float]]) -> np.ndarray:
    """Per-candidate field tuples in ``SCORE_FIELDS`` order laid out as
    ``score_fields`` gives them: one (fields × candidates) float64 array."""
    return np.array(scores, dtype=np.float64).reshape(len(scores), len(SCORE_FIELDS)).T


def joined_units(units: Counter, length: int, joint: str) -> Words:
    """A summary whose ``length``-grams are the units of that length in
    ``units`` plus windows that hold ``joint``: the units laid end to end,
    one ``joint`` word after each."""
    return tuple(chain.from_iterable(
        (*unit, joint) for unit in units.elements() if len(unit) == length))


def soft_overlap(cand: Counter, ref: Counter, match: MatchFunction) -> float:
    """Soft match count of two unit multisets, through the engine's own
    steps: per unit length n, in ascending order, ``cand``'s units of that
    length are scored against ``ref``'s by a one-reference ``score_fields``
    under ROUGE-n, each side laid out by ``joined_units`` with a joint word
    the other side never holds and no table holds, so only the units
    themselves can match."""
    total = 0.0
    for n in sorted(set(map(len, cand)) & set(map(len, ref))):
        score, cands = batch_scorer([joined_units(ref, n, "\0ref")],
                                    [joined_units(cand, n, "\0cand")], RougeVariant("n", n), match)
        total += score(cands)[SCORE_FIELDS.index("soft_match_count"), 0].item()
    return total


def save_binary(table: EmbeddingTable, path: Path) -> None:
    """Write ``table`` in the binary layout: its words in table order, each
    entry closed by a newline. Loading the file gives the table back."""
    with open(path, "wb") as fh:
        fh.write(f"{table.size} {table.dim}\n".encode("ascii"))
        for word in table.words():
            vec = np.asarray(table.lookup(word), dtype="<f4")
            fh.write(word.encode("utf-8") + b" " + vec.tobytes() + b"\n")


def make_table(vectors: dict[str, Sequence[float]], normalize: bool = True) -> EmbeddingTable:
    """A table built from ``vectors`` by the loaders' build step, or with
    ``normalize`` off, of the float32 vectors as given, zero vectors too."""
    dim = len(next(iter(vectors.values())))
    words = list(vectors)
    block = np.array([np.asarray(v, dtype=np.float64) for v in vectors.values()], dtype="<f4")
    if not normalize:
        block.setflags(write=False)
        return EmbeddingTable(dim, block, {w: i for i, w in enumerate(words)})
    builder = _TableBuilder(dim, None, len(vectors))
    for i in range(0, len(words), builder.rows):
        builder.add(block[i:i + builder.rows], words[i:i + builder.rows])
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


def gaussian_table(seed: int, words: Sequence[str], dim: int = 64) -> EmbeddingTable:
    """Seeded Gaussian vectors, normalized as the loaders store them. Unlike
    the sign, one-hot and Hadamard tables, their products round, so a
    product's bits follow its summation order and so its shape: in 64
    dimensions, a column slice of a larger product differs from the
    slice's own product in about half of random shapes. A fast path that
    reorders a sum shows here."""
    rng = np.random.default_rng(seed)
    return make_table({w: rng.standard_normal(dim) for w in words})


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
