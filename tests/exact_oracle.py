"""Clipped n-gram counting spelled out on ``Counter``s: the oracle for exact
matching.

Under exact matching a ``TopicPlan`` streams a candidate's units through
its references' columns and clips against every reference with one numpy
step. This module is the per-pair definition it must agree with: a
candidate's and a reference's unit multisets, their shared keys, and the
sum of the smaller count of each (Lin 2004).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from rougewe.rouge import RougeScore, RougeVariant, extract_units
from rougewe.textpipe import TokenSequence


def clipped_count(cand: Counter, ref: Counter) -> int:
    """How many of the candidate's units the reference has, each unit
    clipped to the reference's count of it."""
    common = cand.keys() & ref.keys()
    return sum(map(min, map(cand.__getitem__, common), map(ref.__getitem__, common)))


def _mean(scores: Sequence[RougeScore]) -> RougeScore:
    if len(scores) == 1:
        return scores[0]

    def mean(field: str) -> float:
        values = [getattr(s, field) for s in scores]
        return math.fsum(values) / len(values)

    return RougeScore(mean("recall"), mean("precision"), mean("f1"), mean("soft_match_count"),
                      round(mean("ref_total")), scores[0].cand_total)


def oracle_rouge_score(cand: TokenSequence, refs: Sequence[TokenSequence],
                       variant: RougeVariant, multiref: str = "average") -> RougeScore:
    """``rouge_score`` under exact matching, one reference at a time."""
    cand_units = extract_units(cand, variant)
    per_ref = []
    for ref in refs:
        ref_units = extract_units(ref, variant)
        per_ref.append(RougeScore.from_counts(float(clipped_count(cand_units, ref_units)),
                                              ref_units.total(), cand_units.total()))
    if multiref == "average" or len(per_ref) == 1:
        return _mean(per_ref)
    folds = [max((s for i, s in enumerate(per_ref) if i != left_out),
                 key=lambda s: (s.f1, s.recall, s.precision))
             for left_out in range(len(per_ref))]
    return _mean(folds)
