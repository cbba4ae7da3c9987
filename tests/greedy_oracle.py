"""Sequential greedy soft assignment: the reference the engine is checked against.

The engine (``rouge.score_fields`` through ``_greedy_assign``, reached in
tests through ``conftest.soft_overlap``) computes the embedding assignment in
rounds of locally dominant pairs over a similarity matrix; this module keeps
the plain best-first loop over an arbitrary pair-similarity callable, the
scalar pair similarity of a ``MatchFunction``, and the plain product loop
that composes a unit's vector, so tests can compare the engine and
``EmbeddingTable.compose_many`` with them by ``==``.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable

import numpy as np

from rougewe.embeddings import ZERO_NORM_TOLERANCE, EmbeddingTable
from rougewe.rouge import MatchFunction

Words = tuple[str, ...]


def compose(table: EmbeddingTable, words: Words) -> np.ndarray | None:
    """Element-wise product of the word vectors, renormalized, one factor at
    a time in sorted word order; a single word is its stored row, uncopied.

    None (OOV) when any word is missing or the raw product's norm is below
    tolerance.
    """
    if len(words) == 1:
        return table.lookup(words[0])
    vectors = []
    for word in sorted(words):
        vec = table.lookup(word)
        if vec is None:
            return None
        vectors.append(vec)
    product = vectors[0].astype(np.float64)
    for vec in vectors[1:]:
        product = product * vec
    norm = float(np.linalg.norm(product))
    if norm < ZERO_NORM_TOLERANCE:
        return None
    return product / norm


def pair_similarity(match: MatchFunction) -> Callable[[Words, Words], float]:
    """Similarity of one (reference, candidate) unit pair under ``match``.

    Exact matching is word-tuple identity. Embedding matching is the cosine
    of the composed vectors clamped into [0, 1]; when either side is out of
    vocabulary it is 0, or identity under ``exact-fallback``.
    """
    def sim(w1: Words, w2: Words) -> float:
        identical = 1.0 if w1 == w2 else 0.0
        if match.kind == "exact":
            return identical
        v1, v2 = compose(match.table, w1), compose(match.table, w2)
        if v1 is None or v2 is None:
            return identical if match.oov_policy == "exact-fallback" else 0.0
        return min(1.0, max(0.0, float(np.dot(v1, v2))))

    return sim


def _greedy_consume(
    pairs: list[tuple[float, tuple[str, ...], tuple[str, ...]]],
    ref_counts: dict[tuple[str, ...], int],
    cand_counts: dict[tuple[str, ...], int],
) -> float:
    """Best-first one-to-one assignment over grouped instances.

    Pairs are taken in descending similarity, ties broken by n-gram order
    (reference side first). All instances within a group are identical, so
    consuming min(remaining) per group equals instance-level greedy.
    """
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
    rem_ref = dict(ref_counts)
    rem_cand = dict(cand_counts)
    total = 0.0
    for sim, ref_words, cand_words in pairs:
        take = min(rem_ref[ref_words], rem_cand[cand_words])
        if take:
            total += take * sim
            rem_ref[ref_words] -= take
            rem_cand[cand_words] -= take
    return total


def _by_length(units: Counter[Words]) -> dict[int, dict[Words, int]]:
    parts: dict[int, dict[Words, int]] = {}
    for words, count in units.items():
        parts.setdefault(len(words), {})[words] = count
    return parts


def greedy_soft_overlap(
    cand: Counter[Words],
    ref: Counter[Words],
    simfn: Callable[[Words, Words], float],
) -> float:
    """Greedy soft match count over every same-length (ref, cand) group pair
    with positive similarity; partitions are summed in ascending length."""
    total = 0.0
    cand_parts = _by_length(cand)
    for length, ref_groups in sorted(_by_length(ref).items()):
        cand_groups = cand_parts.get(length)
        if not cand_groups:
            continue
        pairs = []
        for ref_words in ref_groups:
            for cand_words in cand_groups:
                sim = simfn(ref_words, cand_words)
                if sim > 0.0:
                    pairs.append((sim, ref_words, cand_words))
        total += _greedy_consume(pairs, ref_groups, cand_groups)
    return total
