"""ROUGE-N / ROUGE-SU scoring under exact or embedding-based word matching.

The classic metrics count clipped n-gram overlap; the embedding variants
replace the 0/1 word-identity test with cosine similarity of composed
n-gram vectors, scored through a greedy one-to-one soft assignment.
Matching never crosses unit types: unigrams pair with unigrams, bigrams
with bigrams, so the embedding metrics reduce exactly to the classic ones
when the similarity degenerates to an identity test. Both kinds find
units the same way: as integer codes built from the summaries' word ids
(``textpipe.encode``, which numbers a corpus's words once for every metric),
counted into one matrix over the codes the summaries hold, whose columns
run in sorted word-tuple order within each unit length. Under exact
matching the references are coded once, and a whole batch of candidates
is coded by the same steps, finds its columns by a table gather or a
binary search, and is counted and clipped against them at once. Under
embedding matching the references and the batch are coded together; each
unit length's columns are read back as word ids, mapped to the table rows
looked up once per word list, and each side's vectors composed in one
gather and product (``EmbeddingTable.compose_many``). A ``TopicPlan``
holds one topic's references and scores a batch of candidates in one
``score_many`` call, whose per-reference counts become recall, precision
and f1 as arrays; a candidate's score does not depend on the rest of its
batch. The per-pair reference definitions are the test suite's oracles.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain, repeat
from math import fsum
from typing import Sequence

import numpy as np

from .embeddings import EmbeddingTable
from .textpipe import TokenSequence, encode_tokens

OOV_POLICIES = ("zero", "exact-fallback")
MULTIREF_POLICIES = ("average", "jackknife")
# Closes every level's sorted codes: above any code, so a search always
# lands on a key.
_NO_CODES = np.array([np.iinfo(np.int64).max])
# No word ids: what the summaries' ids are laid after, so that no list of
# summaries is too short to concatenate.
_NO_IDS = np.empty(0, dtype=np.int32)
# A word id past every word list's: the pads between summaries.
_PAST_IDS = np.iinfo(np.int32).max


@dataclass(frozen=True, eq=False)
class MatchFunction:
    """Pluggable word/n-gram similarity: exact identity or embedding cosine.

    Immutable: a match kind, the embedding table it composes from, and the
    out-of-vocabulary policy. Two matchers are equal only when they are the
    same object, so comparing them never compares a table's matrix.
    """

    kind: str
    table: EmbeddingTable | None = None
    oov_policy: str = "zero"

    def __post_init__(self):
        if self.kind not in ("exact", "embedding"):
            raise ValueError(f"unknown match kind {self.kind!r}")
        if self.kind == "embedding" and self.table is None:
            raise ValueError("embedding match requires an embedding table")
        if self.oov_policy not in OOV_POLICIES:
            raise ValueError(f"unknown oov policy {self.oov_policy!r}")

    @classmethod
    def exact(cls) -> "MatchFunction":
        return cls("exact")

    @classmethod
    def we(cls, table: EmbeddingTable, oov_policy: str = "zero") -> "MatchFunction":
        return cls("embedding", table=table, oov_policy=oov_policy)


@dataclass(frozen=True)
class RougeVariant:
    """Which units get compared: contiguous n-grams or skip-bigrams (+unigrams)."""

    family: str  # "n" | "su"
    n: int = 0
    max_skip: int = 0

    def __post_init__(self):
        if self.family == "n":
            if self.n < 1:
                raise ValueError("family 'n' requires n >= 1")
        elif self.family == "su":
            if self.max_skip < 0:
                raise ValueError("family 'su' requires max_skip >= 0")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    @classmethod
    def parse(cls, name: str) -> "RougeVariant":
        """Parse names like rouge-1, rouge-2, rouge-su4."""
        if not isinstance(name, str):
            raise ValueError(f"ROUGE variant name must be a string, not {name!r}")
        m = re.fullmatch(r"rouge-(\d+)", name.strip().lower())
        if m:
            return cls(family="n", n=int(m.group(1)))
        m = re.fullmatch(r"rouge-su(\d+)", name.strip().lower())
        if m:
            return cls(family="su", max_skip=int(m.group(1)))
        raise ValueError(f"unknown ROUGE variant {name!r}")

    @property
    def name(self) -> str:
        if self.family == "n":
            return f"rouge-{self.n}"
        return f"rouge-su{self.max_skip}"


ROUGE_1 = RougeVariant(family="n", n=1)
ROUGE_2 = RougeVariant(family="n", n=2)
ROUGE_SU4 = RougeVariant(family="su", max_skip=4)


@dataclass(frozen=True)
class RougeScore:
    recall: float
    precision: float
    f1: float
    soft_match_count: float
    ref_total: int
    cand_total: int


class _UnitCodes:
    """Summaries' units coded as integers, and one count matrix over the
    codes they hold: the package's only unit finder, for both kinds of matching.

    The summaries come as arrays of word ids over one word list in sorted
    order (``textpipe.encode``). ``words`` holds the ids they use, and
    ``remap`` numbers those words from 1 by one gather, so the numbering
    too runs in sorted word order; 0 is a word in none of them. A unit is
    coded one word at a time: its first word's number is its first rank,
    and each next word makes the code ``rank * base + word number``, whose
    rank is its place in that level's ``keys`` (the sorted codes the
    summaries hold, closed by a sentinel) counted from ``first``, or 0 when
    no summary holds it. A code stays below (ranks + 1) * base, so it fits
    in int64 for any n. A unit's column is its last rank: a unigram's is
    its word number, and a longer unit's comes after the word columns
    under ROUGE-SU. So each unit length's columns run in sorted word-tuple
    order, the assignment's tie-break. Row i of ``counts`` is summary i's
    count in each column; column 0, the sink, is 0 for every summary, so a
    unit no summary has lands there and clips to 0.

    Candidates are coded against the keys by the same steps. A level's rank
    is one gather from a dense int32 table over (prefix rank, word id) when
    the batch's own count matrix is at least the table's size, and a binary
    search in its keys otherwise. A table is made for one level's lookup
    and dropped after it, so a batch holds at most one, never larger than
    its count matrix. No unit outgrows the longest summary coded, and
    neither do the levels walked or the pads between summaries, whatever
    n or the skip distance.
    """

    __slots__ = ("variant", "reach", "words", "remap", "base", "first", "keys", "width",
                 "counts", "totals")

    def __init__(self, summaries: Sequence[np.ndarray], variant: RougeVariant):
        self.variant = variant
        # How far past its first word a unit reaches.
        self.reach = variant.n - 1 if variant.family == "n" else variant.max_skip + 1
        ids = np.concatenate([_NO_IDS, *summaries], dtype=np.intp)
        held = np.zeros(int(ids.max(initial=-1)) + 2, dtype=bool)
        held[ids] = True
        self.words = held.nonzero()[0]
        # Each word id's number here, 0 for a word no summary holds; the
        # last entry is 0, and ids past it clip to it.
        self.remap = np.zeros(len(held), dtype=np.intp)
        self.remap[self.words] = np.arange(1, len(self.words) + 1)
        self.base = np.int64(len(self.words) + 1)
        self.first = self.base if variant.family == "su" else 1
        self.keys: list[np.ndarray] = []
        cols, lengths = self._columns(summaries, 0)
        # The sink and the word columns, or the sink and the last level's
        # ranks, after the word columns under ROUGE-SU.
        self.width = int(self.first - 1 + len(self.keys[-1]) if self.keys else self.base)
        self.counts = self._count(cols, lengths)
        self.counts[:, 0] = 0
        self.totals = self._totals(lengths)

    def _rank(self, level: int, codes: np.ndarray, budget: int) -> np.ndarray:
        """Each code's rank at ``level`` (the unit's word ``level``, from 0),
        0 for a code no summary holds. The first codes to reach a level
        are the coder's own summaries', and they make its keys."""
        if level > len(self.keys):
            # Sorted and deduplicated by hand: under numpy 2.4, np.unique's
            # hash path costs about 1.5 MB of resident memory on first use.
            held = np.sort(codes[(codes >= self.base) & (codes % self.base > 0)])
            # The first code, each code unlike the one before it, the sentinel.
            self.keys.append(np.concatenate((held[:1], held[1:][held[1:] != held[:-1]],
                                             _NO_CODES)))
        keys = self.keys[level - 1]
        # Prefix ranks run to the previous level's: word ids at level 1.
        size = (self.base if level == 1 else len(self.keys[level - 2])) * self.base
        if 4 * size > budget:
            found = np.searchsorted(keys, codes)
            return np.where(keys[found] == codes, found + self.first, 0)
        table = np.zeros(size, dtype=np.int32)
        table[keys[:-1]] = np.arange(self.first, self.first + len(keys) - 1)
        return table[codes]

    def _pad(self, lengths: np.ndarray) -> int:
        """The zeros that follow each summary: enough that no unit window
        spans two summaries, and no more than the longest summary."""
        return min(self.reach, max(lengths.tolist(), default=0))

    def _columns(self, seqs: Sequence[np.ndarray], budget: int) -> tuple[np.ndarray, np.ndarray]:
        """The column of every unit window of ``seqs``, as a (windows per
        position × positions) array, and each summary's length.

        The summaries' words are numbered by one gather and laid end to end
        in one array, each followed by ``_pad`` zeros, so no window spans
        two summaries: a window that runs past its summary's end holds a 0
        and lands in the sink. A position belongs to the summary it starts
        in. The walk through the levels stops once no window is held, which
        is at the latest at the longest summary's length.
        """
        lengths = np.fromiter(map(len, seqs), np.int64, len(seqs))
        # Ids past every word: they clip to the last entry of ``remap``, 0.
        pad = np.full(self._pad(lengths), _PAST_IDS, dtype=np.intp)
        ids = self.remap.take(np.concatenate([_NO_IDS, *chain.from_iterable(
            zip(seqs, repeat(pad)))], dtype=np.intp), mode="clip")
        n = len(ids) - len(pad)
        rank = ids[:n]
        if self.variant.family == "n":
            for level in range(1, self.variant.n):
                if not rank.any():
                    break
                rank = self._rank(level, rank * self.base + ids[level:level + n], budget)
            return rank[None], lengths
        pairs = np.array([ids[skip:skip + n] for skip in range(1, len(pad) + 1)], np.int64)
        codes = rank * self.base + pairs.reshape(len(pad), n)
        return np.vstack([rank, self._rank(1, codes, budget)]), lengths

    def _count(self, cols: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Each summary's count in each column, a (summaries × columns) matrix
        made by one ``np.bincount``."""
        rows = np.arange(0, len(lengths) * self.width, self.width).repeat(
            lengths + self._pad(lengths))[:cols.shape[1]]
        return np.bincount((cols + rows).ravel(), minlength=len(lengths) * self.width
                           ).reshape(len(lengths), self.width)

    def _totals(self, lengths: np.ndarray) -> np.ndarray:
        """Each summary's unit total, from its length: its n-grams, or its
        unigrams and the pairs within ``max_skip + 1`` places."""
        if self.variant.family == "n":
            return np.maximum(lengths - self.reach, 0)
        starts = np.minimum(lengths, self.reach + 1)  # offsets 0, 1, ... that fit
        return starts * lengths - starts * (starts - 1) // 2

    def spans(self) -> list[tuple[int, np.ndarray]]:
        """Each unit length's first column and its units' word ids, one
        column a row in column order: under ROUGE-SU the unigrams, then
        the skip-bigrams. Each level's keys are read back by one
        ``divmod`` into the prefix's rank and the last word's id."""
        words = np.arange(1, self.base)[:, None]
        spans = [(1, words)] if self.variant.family == "su" else []
        for keys in self.keys:
            prefix, last = divmod(keys[:-1], self.base)
            # A prefix's rank counts from 1: a word id, or an n-gram's column.
            words = np.column_stack([words[prefix - 1], last])
        return spans + [(int(self.first), words)]

    def overlaps(self, cands: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Each candidate's clipped count against each reference, as a
        (candidates × references) array, and each candidate's total.

        The candidates are counted into one (candidates × columns) matrix,
        whose size is the budget for the lookup tables. Each reference then
        takes one element-wise minimum with it, into one reused buffer, and
        one row sum; no (candidates × references × columns) array is made.
        """
        cols, lengths = self._columns(cands, len(cands) * self.width * 8)
        cand_counts = self._count(cols, lengths)
        clipped = np.empty_like(cand_counts)
        overlaps = np.empty((len(self.counts), len(cands)), dtype=np.int64)
        for ref_counts, overlap in zip(self.counts, overlaps):
            np.minimum(cand_counts, ref_counts, out=clipped)
            clipped.sum(axis=1, out=overlap)
        return overlaps.T, self._totals(lengths)


def _greedy_assign(sims: np.ndarray, ref_counts: np.ndarray, cand_counts: np.ndarray,
                   matched: int = 0) -> float:
    """Best-first one-to-one assignment over grouped instances.

    Sequential greedy takes the positive pairs in the strict order
    (-sim, ref index, cand index), consuming min(remaining) per group pair;
    all instances within a group are identical, so that equals
    instance-level greedy. The same pairs are found here in rounds: a pair
    that is the best remaining one in both its row and its column (locally
    dominant) is reached by sequential greedy with the counts it has now,
    since every pair ahead of it lies in other rows and columns (Preis,
    STACS 1999; Manne & Bisseling, PPAM 2007). ``argmax`` returns the first
    maximum, which is exactly that order's tie-break. After each round the
    rows and columns that are exhausted or hold no positive pair are left
    out of the next round's matrix, a gathered copy, so the arguments are
    never written to. Entries of ``sims`` at or below 0 are never taken,
    and they are never a positive row's or column's first maximum, so a
    matrix needs no lower clip: its negatives assign as zeros would.

    ``matched`` instances were paired outside ``sims`` at similarity 1.
    Sequential greedy sums the pairs at similarity 1 first, and whole-number
    partial sums are exact, so the total starts from ``matched`` and then
    sums the taken pairs in sequential order, by one ``np.add.accumulate``
    (strictly left to right): it is bitwise the total of one assignment
    over all pairs.
    """
    index = np.arange(max(sims.shape))
    ref_ids, cand_ids = index[:sims.shape[0]], index[:sims.shape[1]]
    rem_ref = ref_counts.copy()
    rem_cand = cand_counts.copy()
    taken: list[tuple[np.ndarray, ...]] = []
    while sims.size:
        n, m = sims.shape
        best_cand = sims.argmax(axis=1)
        best_ref = sims.argmax(axis=0)
        row_best = sims[index[:n], best_cand]
        # A row with no positive pair left is no positive column's first
        # maximum, so it blocks no pair; it is dropped after this round.
        keep_ref = row_best > 0.0
        dominant = best_ref[best_cand] == index[:n]
        dominant &= keep_ref
        rows = dominant.nonzero()[0]
        if not len(rows):
            break
        cols = best_cand[rows]
        take = np.minimum(rem_ref[rows], rem_cand[cols])
        taken.append((row_best[rows], ref_ids[rows], cand_ids[cols], take))
        rem_ref[rows] -= take
        rem_cand[cols] -= take
        keep_ref &= rem_ref > 0
        keep_cand = sims[best_ref, index[:m]] > 0.0
        keep_cand &= rem_cand > 0
        sims = sims[keep_ref][:, keep_cand]
        ref_ids, rem_ref = ref_ids[keep_ref], rem_ref[keep_ref]
        cand_ids, rem_cand = cand_ids[keep_cand], rem_cand[keep_cand]
    if not taken:
        return float(matched)
    sim, ref_idx, cand_idx, take = (np.concatenate(parts) for parts in zip(*taken))
    order = np.lexsort((cand_idx, ref_idx, -sim))
    terms = np.empty(len(order) + 1)
    terms[0] = matched
    np.multiply(take[order], sim[order], out=terms[1:])
    return float(np.add.accumulate(terms)[-1])


def _side(units: np.ndarray, counts: np.ndarray, table: EmbeddingTable) -> tuple:
    """A summary's units of one length, from its ``counts`` in columns whose
    units have the table rows ``units``: the composed rows of those it holds
    that compose, in column order, their counts, and the other (out of
    vocabulary) columns it holds."""
    held = np.flatnonzero(counts)
    matrix, known = table.compose_many(units[held])
    return matrix, counts[held[known]], held[~known]


def _row_means(values: np.ndarray) -> list[float]:
    """``fmean`` of each row: its ``fsum`` over its length."""
    return (np.fromiter(map(fsum, values.tolist()), np.float64, len(values))
            / values.shape[1]).tolist()


def _combine(soft: np.ndarray, ref_totals: np.ndarray, cand_totals: np.ndarray,
             multiref: str) -> list[RougeScore]:
    """One ``RougeScore`` per candidate from its soft match counts ``soft``
    against each reference (candidates × references), per the multiref
    policy (see ``rouge_score``).

    A count above min(ref total, cand total) fails, naming the first such
    pair. Recall is soft / ref_total, precision soft / cand_total (0.0 for
    a zero total), f1 2 * recall * precision / (recall + precision) (0.0
    for a zero sum): for every pair at once, the IEEE operations of scalar
    arithmetic. ``average`` then takes each candidate's ``fmean`` over its
    references. ``jackknife`` first puts in each fold's place the score
    ``max`` would pick from that fold: the first reference, in index
    order, with the highest (f1, recall, precision), other than the one
    left out. One reference is its own mean under both policies.
    """
    bound = np.minimum(ref_totals, cand_totals[:, None])
    over = soft > bound + 1e-9
    if over.any():
        cand, ref = np.argwhere(over)[0]
        raise ValueError(f"match count {soft[cand, ref]} exceeds clip bound {bound[cand, ref]}")
    # Recall, precision, f1, soft count and reference total of every pair,
    # one (candidates × references) plane each, all averaged in one pass.
    fields = np.empty((5, *soft.shape))
    recall, precision, f1 = fields[:3]
    fields[3], fields[4] = soft, ref_totals
    with np.errstate(divide="ignore", invalid="ignore"):
        recall[:] = np.where(ref_totals > 0, soft / ref_totals, 0.0)
        precision[:] = np.where(cand_totals[:, None] > 0, soft / cand_totals[:, None], 0.0)
        both = recall + precision
        f1[:] = np.where(both > 0, 2 * recall * precision / both, 0.0)
    if multiref == "jackknife" and soft.shape[1] > 1:
        # A stable sort keeps index order among equal keys, as max does.
        order = np.lexsort((-precision, -recall, -f1), axis=-1)
        left_out = np.arange(soft.shape[1])
        best = np.where(order[:, :1] == left_out, order[:, 1:2], order[:, :1])
        fields = np.take_along_axis(fields, best[None], axis=2)
    means, k = _row_means(fields.reshape(-1, fields.shape[2])), len(soft)
    *means, ref_total = (means[i * k:(i + 1) * k] for i in range(5))
    return list(map(RougeScore, *means, map(round, ref_total), cand_totals.tolist()))


class TopicPlan:
    """One topic's references under one metric; scores candidates against
    them, all of a batch in one pass.

    Every summary comes as its word ids over one word list in sorted order,
    as ``textpipe.encode`` gives them, and under embedding matching ``rows``
    holds each word's table row (``EmbeddingTable.rows`` of the list). Under
    exact matching the references are coded at construction, and a
    ``score_many`` call codes the batch against their codes at once,
    counts it into one (candidates × columns) matrix, and clips it against
    each reference in one step. Under embedding matching a ``score_many``
    call codes the references and the batch together. Per unit length it
    composes each reference's units once and each candidate's in turn; a
    pair costs its product, clip, shared-OOV count and assignment. The
    unigram span, the same for rouge-1 and every rouge-SU, can be scored
    once for all of them (``score_many``'s ``shared``). Either way the
    whole batch's scores are combined as arrays, and each is bitwise that
    of a batch of one.
    """

    def __init__(
        self,
        refs: Sequence[np.ndarray],
        variant: RougeVariant,
        match: MatchFunction,
        multiref: str = "average",
        rows: np.ndarray | None = None,
    ):
        if not refs:
            raise ValueError("at least one reference is required")
        if multiref not in MULTIREF_POLICIES:
            raise ValueError(f"unknown multiref policy {multiref!r}")
        if match.kind == "embedding" and rows is None:
            raise ValueError("embedding matching needs each word's table row")
        self.variant = variant
        self.match = match
        self.multiref = multiref
        self.refs = list(refs)
        self.rows = rows
        self.codes = _UnitCodes(refs, variant) if match.kind == "exact" else None

    def score_many(self, cands: Sequence[np.ndarray],
                   shared: dict | None = None) -> list[RougeScore]:
        """Score each candidate against every reference, combined per the
        multiref policy (see ``rouge_score``); one score per candidate, in
        order.

        ``shared`` is a dict that the caller keeps for one batch of one
        topic, passed to each metric's plan that scores that batch. Under
        embedding matching rouge-1's one span and every rouge-SU's first
        are the unigrams, scored alike: the first such metric keeps their
        (candidates × references) soft counts there under its OOV policy,
        and the others read them instead of scoring the span again. Only
        that array is kept, no composed rows. A batch that is not the one
        the dict was kept for must not be given it.
        """
        if self.match.kind == "exact":
            overlaps, cand_totals = self.codes.overlaps(cands)
            return _combine(overlaps.astype(np.float64), self.codes.totals, cand_totals,
                            self.multiref)
        codes = _UnitCodes([*self.refs, *cands], self.variant)
        # Each word's table row by its number here; the numbers of a unit,
        # sorted, are its words in sorted order, as ``compose`` multiplies them.
        rows = np.append(-1, self.rows[codes.words])
        spans = codes.spans()
        soft = []
        if self.variant.family == "su" or self.variant.n == 1:
            shared = {} if shared is None else shared
            key = self.match.oov_policy
            if key not in shared:
                shared[key] = self._soft_counts(codes, rows, *spans[0])
            soft.append(shared[key])
            spans = spans[1:]
        soft += [self._soft_counts(codes, rows, first, words) for first, words in spans]
        # Summed span by span from 0, as one pair's counts are.
        n_refs = len(self.refs)
        return _combine(sum(soft), codes.totals[:n_refs], codes.totals[n_refs:], self.multiref)

    def _soft_counts(self, codes: _UnitCodes, rows: np.ndarray, first: int,
                     words: np.ndarray) -> np.ndarray:
        """Each candidate's soft count against each reference (candidates ×
        references) over the span of ``codes`` whose columns start at
        ``first`` and hold ``words``; ``rows`` maps word numbers to table rows."""
        table = self.match.table
        fallback = self.match.oov_policy == "exact-fallback"
        units = rows[np.sort(words, axis=1)]
        counts = codes.counts[:, first:first + len(units)]
        n_refs = len(self.refs)
        refs = [_side(units, ref_counts, table) for ref_counts in counts[:n_refs]]
        soft = np.empty((len(counts) - n_refs, n_refs))
        for cand_counts, pair_soft in zip(counts[n_refs:], soft):
            matrix, held, _ = _side(units, cand_counts, table)
            for i, (ref_matrix, ref_held, oov) in enumerate(refs):
                # An out-of-vocabulary unit is similar 0 to every other unit,
                # or under exact-fallback 1 to itself: such pairs share no
                # row or column, so they match outside ``sims``. Similarities
                # at or below 0 are never taken, so only 1 bounds them.
                matched = np.minimum(counts[i, oov], cand_counts[oov]).sum() if fallback else 0
                sims = ref_matrix @ matrix.T
                np.minimum(sims, 1.0, out=sims)
                pair_soft[i] = _greedy_assign(sims, ref_held, held, matched)
                # Dropped before the next pair's, and the candidate's rows
                # before the next candidate's: at most one of each is held.
                del sims
            del matrix
        return soft


def rouge_score(
    cand: TokenSequence,
    refs: Sequence[TokenSequence],
    variant: RougeVariant,
    match: MatchFunction,
    multiref: str = "average",
) -> RougeScore:
    """Score one candidate against one or more references.

    Per-reference triples are combined per the multiref policy: ``average``
    is the component-wise mean; ``jackknife`` averages, over leave-one-out
    folds, the best per-reference score in each fold (best by f1, then
    recall, then precision). A single reference makes both policies the
    plain single-reference score. The texts are coded by
    ``textpipe.encode_tokens`` and scored by a one-candidate ``TopicPlan``.
    """
    words, ids = encode_tokens([*refs, cand])
    rows = None if match.table is None else match.table.rows(words)
    return TopicPlan(ids[:-1], variant, match, multiref, rows).score_many(ids[-1:])[0]
