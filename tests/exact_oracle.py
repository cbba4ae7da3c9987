"""Clipped n-gram counting spelled out on ``Counter``s: the oracle for exact
matching.

Under exact matching ``rouge.score_fields`` codes a candidate's units as
integers, finds their columns in its references' codes and clips against
every reference with one numpy step. This module is the per-pair
definition it must agree with, built from the tokens with nothing of the
engine's: a summary's unit multiset by index loops, the sum over shared
units of the smaller count (Lin 2004), and one pair's recall, precision
and f1 in scalar arithmetic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import astuple
from typing import Sequence

from rougewe.rouge import RougeScore, RougeVariant

Words = tuple[str, ...]


def units(toks: Words, variant: RougeVariant) -> Counter:
    """The units a variant scores over: every contiguous n-gram, or for
    ROUGE-SU every unigram and every ordered pair with at most ``max_skip``
    words between."""
    found = Counter()
    if variant.family == "n":
        for i in range(len(toks) - variant.n + 1):
            found[toks[i:i + variant.n]] += 1
        return found
    for i in range(len(toks)):
        found[(toks[i],)] += 1
        for j in range(i + 1, min(len(toks), i + variant.max_skip + 2)):
            found[(toks[i], toks[j])] += 1
    return found


def clipped_count(cand: Counter, ref: Counter) -> int:
    """How many of the candidate's units the reference has, each unit
    clipped to the reference's count of it."""
    common = cand.keys() & ref.keys()
    return sum(map(min, map(cand.__getitem__, common), map(ref.__getitem__, common)))


def score_pair(soft: float, ref_total: int, cand_total: int) -> RougeScore:
    """One pair's score from its match count and unit totals; a count above
    the smaller total fails."""
    if soft > min(ref_total, cand_total) + 1e-9:
        raise ValueError(f"match count {soft} exceeds clip bound {min(ref_total, cand_total)}")
    recall = soft / ref_total if ref_total > 0 else 0.0
    precision = soft / cand_total if cand_total > 0 else 0.0
    f1 = 2 * recall * precision / (recall + precision) if recall + precision > 0 else 0.0
    return RougeScore(recall, precision, f1, soft, ref_total, cand_total)


def oracle_fields(cand: Words, refs: Sequence[Words], variant: RougeVariant,
                  multiref: str = "average") -> tuple[float, ...]:
    """Every ``RougeScore`` field of the candidate under exact matching, one
    reference at a time, as ``score_fields`` gives it: each the ``fsum`` of
    the references' or the folds' values over their number, the unit
    totals too."""
    cand_units = units(cand, variant)
    per_ref = []
    for ref in refs:
        ref_units = units(ref, variant)
        per_ref.append(score_pair(float(clipped_count(cand_units, ref_units)),
                                  ref_units.total(), cand_units.total()))
    if multiref == "jackknife" and len(per_ref) > 1:
        per_ref = [max((s for i, s in enumerate(per_ref) if i != left_out),
                       key=lambda s: (s.f1, s.recall, s.precision))
                   for left_out in range(len(per_ref))]
    return tuple(math.fsum(values) / len(values) for values in zip(*map(astuple, per_ref)))


def oracle_rouge_score(cand: Words, refs: Sequence[Words], variant: RougeVariant,
                       multiref: str = "average") -> RougeScore:
    """``rouge_score`` under exact matching: ``oracle_fields`` with the unit
    totals rounded."""
    *scores, ref_total, cand_total = oracle_fields(cand, refs, variant, multiref)
    return RougeScore(*scores, round(ref_total), round(cand_total))
