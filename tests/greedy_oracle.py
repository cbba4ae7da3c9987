"""Sequential greedy soft assignment: the reference the engine is checked against.

``soft_overlap`` computes the embedding assignment in rounds of locally
dominant pairs; this module keeps the plain best-first loop over an
arbitrary similarity callable, so tests can compare the two with ``==``.
"""

from __future__ import annotations

from typing import Callable

from rougewe.textpipe import NGram, NGramMultiset


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


def _by_length(multiset: NGramMultiset) -> dict[int, dict[tuple[str, ...], int]]:
    parts: dict[int, dict[tuple[str, ...], int]] = {}
    for words, count in multiset.by_words().items():
        parts.setdefault(len(words), {})[words] = count
    return parts


def greedy_soft_overlap(
    cand: NGramMultiset,
    ref: NGramMultiset,
    simfn: Callable[[NGram, NGram], float],
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
                sim = simfn(NGram(ref_words), NGram(cand_words))
                if sim > 0.0:
                    pairs.append((sim, ref_words, cand_words))
        total += _greedy_consume(pairs, ref_groups, cand_groups)
    return total
