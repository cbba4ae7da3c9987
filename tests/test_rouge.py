import dataclasses
import random
import tracemalloc
import weakref
from collections import Counter
from functools import reduce
from operator import xor
from statistics import fmean
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rougewe import rouge
from rougewe.embeddings import EmbeddingTable
from rougewe.rouge import (
    ROUGE_1,
    ROUGE_2,
    ROUGE_SU4,
    SCORE_FIELDS,
    MatchFunction,
    RougeScore,
    RougeVariant,
    _greedy_assign,
    _planes,
    _UnitCodes,
    _row_means,
    rouge_score,
    score_fields,
)
from rougewe.textpipe import encode_tokens, tokenize

from conftest import (batch_scorer, field_columns, identity_table, make_table, sign_table,
                      soft_overlap)
from exact_oracle import Words, clipped_count, oracle_fields, oracle_rouge_score, units
from greedy_oracle import _greedy_consume, greedy_soft_overlap, pair_similarity


def seq(text: str) -> Words:
    return tokenize(text)


def skip_bigrams(text: str) -> Counter:
    """The skip-bigrams of ``text`` under ROUGE-SU4: its units of length 2."""
    return Counter({unit: k for unit, k in units(seq(text), ROUGE_SU4).items() if len(unit) == 2})


def unigrams(*words) -> Counter:
    return Counter((word,) for word in words)


def pair_overlap(w1: tuple[str, ...], w2: tuple[str, ...], match: MatchFunction) -> float:
    """Soft overlap of two one-unit multisets: the similarity of one unit pair."""
    return soft_overlap(Counter([w1]), Counter([w2]), match)


class TestFExact:
    """The paper's f_exact: word-tuple identity, through soft_overlap."""

    def test_identity(self):
        assert pair_overlap(("it", "is"), ("it", "is"), MatchFunction.exact()) == 1.0

    def test_different_words(self):
        assert pair_overlap(("raining",), ("pouring",), MatchFunction.exact()) == 0.0

    def test_order_sensitive(self):
        assert pair_overlap(("a", "b"), ("b", "a"), MatchFunction.exact()) == 0.0

    def test_gap_ignored(self):
        # The skip distance only bounds the window: (a, b) adjacent in one
        # text matches (a, b) three words apart in the other.
        cand = skip_bigrams("a b")
        ref = skip_bigrams("a x y z b")
        assert soft_overlap(cand, ref, MatchFunction.exact()) == 1.0


class TestFWe:
    """The paper's f_we: clamped cosine of composed vectors, through soft_overlap."""

    def test_identical_in_vocab_unigrams(self):
        match = MatchFunction.we(identity_table(["cat"]))
        assert pair_overlap(("cat",), ("cat",), match) == 1.0

    def test_both_oov_policy_zero(self):
        match = MatchFunction.we(identity_table(["cat"]), oov_policy="zero")
        assert pair_overlap(("ghost",), ("ghost",), match) == 0.0

    def test_both_oov_exact_fallback(self):
        match = MatchFunction.we(identity_table(["cat"]), oov_policy="exact-fallback")
        assert pair_overlap(("ghost",), ("ghost",), match) == 1.0
        assert pair_overlap(("ghost",), ("spirit",), match) == 0.0

    def test_near_synonyms(self, weather_table):
        sim = pair_overlap(("raining",), ("pouring",), MatchFunction.we(weather_table))
        assert sim == pytest.approx(0.8, abs=1e-6)

    def test_composed_bigrams(self):
        match = MatchFunction.we(make_table({"a": [0.6, 0.8], "b": [0.8, 0.6]}))
        assert pair_overlap(("a", "b"), ("a", "b"), match) == pytest.approx(1.0, abs=1e-6)


class TestMatchFunction:
    def test_embedding_requires_table(self):
        with pytest.raises(ValueError):
            MatchFunction("embedding")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            MatchFunction("fuzzy")

    def test_unknown_oov_policy(self):
        with pytest.raises(ValueError):
            MatchFunction("embedding", table=identity_table(["a"]), oov_policy="panic")

    def test_exact_never_consults_table(self):
        match = MatchFunction.exact()
        assert match.table is None
        assert pair_overlap(("x",), ("x",), match) == 1.0

    @pytest.mark.parametrize("field, value", [
        ("kind", "embedding"), ("table", None), ("oov_policy", "exact-fallback"),
    ])
    def test_fields_cannot_be_assigned(self, field, value):
        match = MatchFunction.we(identity_table(["a"]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(match, field, value)
        assert (match.kind, match.oov_policy) == ("embedding", "zero")
        assert match.table is not None

    def test_equality_is_identity(self):
        table = identity_table(["a"])
        assert MatchFunction.we(table) != MatchFunction.we(table)
        assert len({MatchFunction.exact(), MatchFunction.exact()}) == 2


class TestSoftOverlap:
    def test_identical_multisets_exact(self):
        ms = unigrams("a", "b", "b")
        assert soft_overlap(ms, ms, MatchFunction.exact()) == 3.0

    def test_clipping(self):
        cand = unigrams("a", "a", "a")
        ref = unigrams("a")
        assert soft_overlap(cand, ref, MatchFunction.exact()) == 1.0

    def test_toy_soft_count(self, weather_table):
        cand = unigrams("it", "is", "raining", "heavily")
        ref = unigrams("it", "is", "pouring")
        got = soft_overlap(cand, ref, MatchFunction.we(weather_table))
        assert got == pytest.approx(2.8, abs=1e-6)

    def test_empty_sides(self):
        assert soft_overlap(Counter(), unigrams("a"), MatchFunction.exact()) == 0.0
        assert soft_overlap(unigrams("a"), Counter(), MatchFunction.exact()) == 0.0

    def test_greedy_engine_matches_fast_paths(self, weather_table):
        rng = np.random.default_rng(42)
        vocab = ["it", "is", "raining", "heavily", "pouring", "ghost", "wraith"]
        for _ in range(50):
            cand = unigrams(*rng.choice(vocab, size=rng.integers(0, 8)))
            ref = unigrams(*rng.choice(vocab, size=rng.integers(1, 8)))
            exact = MatchFunction.exact()
            assert (greedy_soft_overlap(cand, ref, pair_similarity(exact))
                    == soft_overlap(cand, ref, exact))
            for policy in ("zero", "exact-fallback"):
                we = MatchFunction.we(weather_table, oov_policy=policy)
                assert greedy_soft_overlap(cand, ref, pair_similarity(we)) == soft_overlap(cand, ref, we)

    def test_greedy_can_be_suboptimal_but_never_better(self):
        # sims: (r1,c1)=0.9 dominates, but optimal pairs r1-c2 + r2-c1 = 1.6
        sims = {
            (("r1",), ("c1",)): 0.9,
            (("r1",), ("c2",)): 0.8,
            (("r2",), ("c1",)): 0.8,
        }
        simfn = lambda w1, w2: sims.get((w1, w2), 0.0)
        got = greedy_soft_overlap(unigrams("c1", "c2"), unigrams("r1", "r2"), simfn)
        assert got == pytest.approx(0.9)

    def test_no_cross_length_matching(self):
        # one-hot table: bigram (a,a) composes to the same basis vector as (a)
        table = identity_table(["a", "b"])
        cand = Counter([("a",)])
        ref = Counter([("a", "a")])
        match = MatchFunction.we(table, oov_policy="exact-fallback")
        assert soft_overlap(cand, ref, match) == 0.0


TABLE_WORDS = ["a", "b", "c", "d", "e"]
UNIT_WORDS = TABLE_WORDS + ["ghost", "wraith"]  # the last two are out of vocabulary


@st.composite
def unit_multisets(draw) -> Counter:
    """Unigrams and bigrams (contiguous or skip) with counts up to 3."""
    units = Counter()
    for words, count in draw(st.lists(st.tuples(
        st.lists(st.sampled_from(UNIT_WORDS), min_size=1, max_size=2).map(tuple),
        st.integers(1, 3),
    ), max_size=14)):
        units[words] += count
    return units


def tiny_sign_table(seed: int) -> EmbeddingTable:
    """``sign_table``'s vectors, stored as found, with the words after the
    first two scaled by 2**-24. A product of two scaled words has entries of
    2**-52 and a norm under ZERO_NORM_TOLERANCE, so it is out of vocabulary;
    every other product normalizes back to +-1/4 entries, and every dot
    product stays exact."""
    signs = sign_table(seed, TABLE_WORDS)
    return make_table({w: signs.lookup(w) * (1.0 if i < 2 else 2.0**-24)
                       for i, w in enumerate(TABLE_WORDS)}, normalize=False)


class TestEngineMatchesSequentialGreedy:
    @given(
        cand=unit_multisets(),
        ref=unit_multisets(),
        table_seed=st.none() | st.integers(0, 2**32 - 1),
        tiny=st.booleans(),
        policy=st.sampled_from(["zero", "exact-fallback"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_differential(self, cand, ref, table_seed, tiny, policy):
        # None: a one-hot table, where every positive similarity ties at 1
        # and distinct-word bigrams compose to zero (out of vocabulary).
        table = (identity_table(TABLE_WORDS) if table_seed is None
                 else tiny_sign_table(table_seed) if tiny
                 else sign_table(table_seed, TABLE_WORDS))
        match = MatchFunction.we(table, oov_policy=policy)
        assert soft_overlap(cand, ref, match) == greedy_soft_overlap(cand, ref,
                                                                    pair_similarity(match))


    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_assignment_on_any_matrix(self, data):
        # Up to 40 x 40, with values from a few levels, so that ties and
        # several compaction rounds occur, and in some matrices arbitrary
        # floats too, so that the total also pins the summation order.
        n_ref, n_cand = data.draw(st.integers(0, 40)), data.draw(st.integers(0, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        sims = rng.choice([0.0, 0.25, 0.5, 1.0], size=(n_ref, n_cand))
        floats = rng.random(sims.shape) < data.draw(st.sampled_from([0.0, 0.5]))
        sims[floats] = rng.random(int(floats.sum()))
        ref_counts = rng.integers(1, 4, n_ref).tolist()
        cand_counts = rng.integers(1, 4, n_cand).tolist()
        # ``matched``: pairs at similarity 1 that share no row or column with
        # another positive pair, as out-of-vocabulary units matched by identity
        # are. The oracle sees them in the matrix, in rows and columns drawn
        # among the others.
        isolated = data.draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                                      max_size=3))
        k = len(isolated)
        ref_pos = sorted(data.draw(st.permutations(range(n_ref + k)))[:n_ref])
        cand_pos = sorted(data.draw(st.permutations(range(n_cand + k)))[:n_cand])
        ref_free = [i for i in range(n_ref + k) if i not in ref_pos]
        cand_free = [j for j in range(n_cand + k) if j not in cand_pos]
        pairs = [(float(sims[i, j]), ref_pos[i], cand_pos[j])
                 for i in range(n_ref) for j in range(n_cand) if sims[i, j] > 0.0]
        pairs += [(1.0, i, j) for i, j in zip(ref_free, cand_free)]
        all_ref = dict(zip(ref_pos, ref_counts)) | dict(zip(ref_free, (r for r, _ in isolated)))
        all_cand = dict(zip(cand_pos, cand_counts)) | dict(zip(cand_free,
                                                                (c for _, c in isolated)))
        expected = _greedy_consume(pairs, all_ref, all_cand)
        args = (sims, np.array(ref_counts, dtype=np.int64), np.array(cand_counts, dtype=np.int64))
        before = [arg.copy() for arg in args]
        got = _greedy_assign(*args, matched=sum(min(r, c) for r, c in isolated))
        assert got == expected
        for arg, copy in zip(args, before):
            assert np.array_equal(arg, copy)

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_non_positive_entries_assign_as_zeros(self, data):
        # Products of real vectors are clipped only above, so the matrix
        # holds negatives. Drawn from levels on both sides of 0, and in some
        # matrices arbitrary floats in [-1, 1], whole rows and columns can
        # hold no positive entry, and a negative can be a row's or a
        # column's only nonzero.
        n_ref, n_cand = data.draw(st.integers(0, 40)), data.draw(st.integers(0, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        sims = rng.choice([-1.0, -0.5, -0.25, -0.0, 0.0, 0.25, 0.5, 1.0], size=(n_ref, n_cand))
        floats = rng.random(sims.shape) < data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        sims[floats] = rng.uniform(-1.0, 1.0, int(floats.sum()))
        ref_counts = rng.integers(1, 4, n_ref)
        cand_counts = rng.integers(1, 4, n_cand)
        # The oracle sees the ``matched`` instances as one more pair at
        # similarity 1, in a row and a column of their own.
        matched = data.draw(st.integers(0, 3))
        pairs = [(float(sims[i, j]), i, j) for i in range(n_ref) for j in range(n_cand)
                 if sims[i, j] > 0.0] + [(1.0, n_ref, n_cand)]
        expected = _greedy_consume(pairs, dict(enumerate([*ref_counts.tolist(), matched])),
                                   dict(enumerate([*cand_counts.tolist(), matched])))
        got = _greedy_assign(sims, ref_counts, cand_counts, matched)
        assert got.hex() == expected.hex()
        assert got.hex() == _greedy_assign(np.clip(sims, 0.0, 1.0), ref_counts, cand_counts,
                                           matched).hex()

class TestTieBreak:
    """Equal similarities are taken in sorted word-tuple order of the
    reference's units, then the candidate's, whatever order the words come
    in. Under these +-1/2 sign vectors x, p and q are similar 0.5 to each
    other, and so are y and p, but y and q are not: taking (x, p) first
    leaves (y, q) at 0, while taking (x, q) first leaves (y, p) at 0.5."""

    TABLE = make_table({"p": [0.5, 0.5, 0.5, -0.5], "q": [0.5, 0.5, -0.5, 0.5],
                        "x": [0.5, 0.5, 0.5, 0.5], "y": [0.5, -0.5, 0.5, -0.5]})

    @pytest.mark.parametrize("cand, ref", [("q p", "x y"), ("y x", "q p"), ("p q", "y x")])
    def test_groups_are_taken_in_sorted_order(self, cand, ref):
        match = MatchFunction.we(self.TABLE)
        assert rouge_score(seq(cand), [seq(ref)], ROUGE_1, match).soft_match_count == 0.5
        assert greedy_soft_overlap(units(seq(cand), ROUGE_1),
                                   units(seq(ref), ROUGE_1), pair_similarity(match)) == 0.5


class TestRougeVariant:
    @pytest.mark.parametrize("name,family,value", [
        ("rouge-1", "n", 1),
        ("rouge-2", "n", 2),
        ("ROUGE-2", "n", 2),
        ("rouge-su4", "su", 4),
        ("rouge-su0", "su", 0),
    ])
    def test_parse(self, name, family, value):
        variant = RougeVariant.parse(name)
        assert variant.family == family
        assert (variant.n if family == "n" else variant.max_skip) == value

    def test_parse_rejects_garbage(self):
        for bad in ("rouge", "rouge-l", "bleu", "rouge--1"):
            with pytest.raises(ValueError):
                RougeVariant.parse(bad)

    def test_invalid_fields(self):
        with pytest.raises(ValueError):
            RougeVariant(family="n", n=0)
        with pytest.raises(ValueError):
            RougeVariant(family="su", max_skip=-1)
        with pytest.raises(ValueError):
            RougeVariant(family="x")

    def test_names_round_trip(self):
        for name in ("rouge-1", "rouge-2", "rouge-su4"):
            assert RougeVariant.parse(name).name == name

    def test_su_units_pool_unigrams(self):
        text = "police killed the gunman"
        pooled = units(seq(text), ROUGE_SU4)
        assert pooled.total() == 6 + 4
        assert pooled == skip_bigrams(text) + units(seq(text), ROUGE_1)
        assert skip_bigrams(text).total() == 6


def combine_one(soft: float, ref_total: int, cand_total: int):
    """The ``_planes`` of a single pair, as a ``RougeScore``."""
    planes = _planes(np.array([[soft]]), np.array([ref_total]), np.array([cand_total]), "average")
    return RougeScore(*planes[:, 0, 0].tolist())


class TestRougeScore:
    def test_relations(self):
        score = combine_one(3.0, 6, 10)
        assert score.recall == 0.5
        assert score.precision == 0.3
        assert score.f1 == pytest.approx(2 * 0.5 * 0.3 / 0.8)
        assert (score.soft_match_count, score.ref_total, score.cand_total) == (3.0, 6, 10)

    def test_zero_totals(self):
        score = combine_one(0.0, 0, 0)
        assert (score.recall, score.precision, score.f1) == (0.0, 0.0, 0.0)

    def test_clip_guard(self):
        with pytest.raises(ValueError):
            combine_one(2.0, 1, 5)
        # Every pair is checked, and the first over its bound is named.
        soft = np.array([[1.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError, match="match count 2.0 exceeds clip bound 1"):
            _planes(soft, np.array([1, 1]), np.array([5, 5]), "average")

    def test_identical_pair_rouge2(self):
        s = seq("it is pouring")
        score = rouge_score(s, [s], ROUGE_2, MatchFunction.exact())
        assert score.recall == 1.0 and score.precision == 1.0 and score.f1 == 1.0

    def test_weather_pair_rouge2(self):
        score = rouge_score(seq("It is raining heavily"), [seq("It is pouring")],
                            ROUGE_2, MatchFunction.exact())
        assert score.recall == 0.5
        assert score.precision == pytest.approx(1 / 3)

    def test_weather_pair_rouge1(self):
        score = rouge_score(seq("It is raining heavily"), [seq("It is pouring")],
                            ROUGE_1, MatchFunction.exact())
        assert score.recall == pytest.approx(2 / 3)

    def test_empty_refs_rejected(self):
        with pytest.raises(ValueError):
            rouge_score(seq("a"), [], ROUGE_1, MatchFunction.exact())

    def test_unknown_multiref_rejected(self):
        with pytest.raises(ValueError):
            rouge_score(seq("a"), [seq("a")], ROUGE_1, MatchFunction.exact(), multiref="best")

    def test_embedding_batch_without_rows_rejected(self):
        words, ids = encode_tokens([seq("a b"), seq("a c")])
        match = MatchFunction.we(make_table({"a": [1, 0], "b": [0, 1]}))
        with pytest.raises(ValueError, match="embedding matching needs each word's table row"):
            score_fields(ids[:1], ids[1:], [(ROUGE_1, match, "average", SCORE_FIELDS)])

    @pytest.mark.parametrize("cand, refs, name", [
        ("a b", [seq("a b")], "cand"),
        (seq("a b"), [seq("a"), "a b"], "refs\\[1\\]"),
    ], ids=["candidate", "reference"])
    def test_a_str_in_place_of_words_fails(self, cand, refs, name):
        # A str would otherwise be scored as a sequence of one-letter words.
        with pytest.raises(TypeError, match=f"^{name} is a str; pass its words"):
            rouge_score(cand, refs, ROUGE_1, MatchFunction.exact())

    def test_empty_candidate_scores_zero(self):
        score = rouge_score(seq(""), [seq("a b")], ROUGE_1, MatchFunction.exact())
        assert (score.recall, score.precision, score.f1) == (0.0, 0.0, 0.0)


class TestMultiRef:
    def test_average_is_componentwise_mean(self):
        cand = seq("a b")
        score = rouge_score(cand, [seq("a b"), seq("a x")], ROUGE_1, MatchFunction.exact())
        assert score.recall == pytest.approx(0.75)
        assert score.precision == pytest.approx(0.75)
        assert score.f1 == pytest.approx(0.75)
        assert score.soft_match_count == pytest.approx(1.5)

    def test_jackknife_takes_fold_best(self):
        cand = seq("a b c")
        refs = [seq("a b c"), seq("x y z"), seq("p q r")]
        jack = rouge_score(cand, refs, ROUGE_1, MatchFunction.exact(), multiref="jackknife")
        # folds: best of {junk, junk}=0, best of {perfect, junk}=1, twice
        assert jack.recall == pytest.approx(2 / 3)
        avg = rouge_score(cand, refs, ROUGE_1, MatchFunction.exact(), multiref="average")
        assert avg.recall == pytest.approx(1 / 3)

    def test_jackknife_single_ref_degenerates(self):
        cand = seq("a b")
        ref = [seq("a z")]
        jack = rouge_score(cand, ref, ROUGE_1, MatchFunction.exact(), multiref="jackknife")
        avg = rouge_score(cand, ref, ROUGE_1, MatchFunction.exact(), multiref="average")
        assert jack == avg

    def test_jackknife_two_refs_equals_average(self):
        cand = seq("a b c d")
        refs = [seq("a b q"), seq("c d q")]
        jack = rouge_score(cand, refs, ROUGE_1, MatchFunction.exact(), multiref="jackknife")
        avg = rouge_score(cand, refs, ROUGE_1, MatchFunction.exact(), multiref="average")
        assert jack.recall == pytest.approx(avg.recall)


@st.composite
def token_pair(draw):
    vocab = "abcdefgh"
    cand = draw(st.lists(st.sampled_from(vocab), max_size=15))
    ref = draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=15))
    return tuple(cand), tuple(ref)


class TestScoreProperties:
    @settings(max_examples=150)
    @given(token_pair(), st.sampled_from([ROUGE_1, ROUGE_2, ROUGE_SU4]))
    def test_bounds(self, pair, variant):
        cand, ref = pair
        score = rouge_score(cand, [ref], variant, MatchFunction.exact())
        for value in (score.recall, score.precision, score.f1):
            assert 0.0 <= value <= 1.0

    @settings(max_examples=150)
    @given(token_pair(), st.sampled_from([ROUGE_1, ROUGE_2, ROUGE_SU4]))
    def test_swap_exchanges_recall_precision(self, pair, variant):
        cand, ref = pair
        if len(cand) == 0:
            return
        forward = rouge_score(cand, [ref], variant, MatchFunction.exact())
        backward = rouge_score(ref, [cand], variant, MatchFunction.exact())
        assert forward.recall == backward.precision
        assert forward.precision == backward.recall

    @settings(max_examples=100, deadline=None)
    @given(token_pair(), st.sampled_from([ROUGE_1, ROUGE_2, ROUGE_SU4]))
    def test_identity_table_degenerates_to_exact(self, pair, variant):
        cand, ref = pair
        table = identity_table(list("abcdefgh"))
        exact = rouge_score(cand, [ref], variant, MatchFunction.exact())
        we = rouge_score(cand, [ref], variant,
                         MatchFunction.we(table, oov_policy="exact-fallback"))
        assert we.recall == pytest.approx(exact.recall, abs=1e-9)
        assert we.precision == pytest.approx(exact.precision, abs=1e-9)
        assert we.f1 == pytest.approx(exact.f1, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(token_pair(), st.sampled_from([ROUGE_1, ROUGE_2, ROUGE_SU4]))
    def test_embedding_dominates_exact(self, pair, variant):
        # synonyms share a basis vector, so identical-word similarity is
        # exactly 1 and soft counts can only gain over exact matching
        cand, ref = pair
        eye = np.eye(4, dtype=np.float32)
        table = make_table({
            "a": eye[0], "b": eye[1], "c": eye[2], "d": eye[3],
            "e": eye[0], "f": eye[1], "g": eye[2], "h": eye[3],
        })
        match = MatchFunction.we(table, oov_policy="exact-fallback")
        cand_units = units(cand, variant)
        ref_units = units(ref, variant)
        exact_soft = soft_overlap(cand_units, ref_units, MatchFunction.exact())
        we_soft = soft_overlap(cand_units, ref_units, match)
        assert we_soft >= exact_soft - 1e-9


def hadamard_table(classes: dict[str, int]) -> EmbeddingTable:
    """Each word's vector is the row of its class id in the order-256
    Sylvester-Hadamard matrix, scaled by 1/16 to unit length. The
    element-wise product of rows i and j is row i XOR j, distinct rows are
    orthogonal, and every entry, product, norm and cosine is exact in
    float32 and float64: a composed unit is the row of the XOR of its
    words' classes, and two units are similar 1 or 0."""
    h = np.ones((1, 1), dtype=np.float32)
    while len(h) < 256:
        h = np.block([[h, h], [h, -h]])
    matrix = h[list(classes.values())] / np.float32(16)
    matrix.setflags(write=False)
    return EmbeddingTable(256, matrix, {w: i for i, w in enumerate(classes)})


# 40 words in 12 synonym classes, and 4 words the table does not hold.
CLASS_WORDS = [f"w{i:02d}" for i in range(40)]
HADAMARD_WORDS = CLASS_WORDS + ["oov0", "oov1", "oov2", "oov3"]
hadamard_summaries = st.lists(st.sampled_from(HADAMARD_WORDS), max_size=14).map(tuple)


def class_units(seq: Words, variant: RougeVariant, classes: dict[str, int],
                policy: str) -> Counter:
    """The units of ``seq`` keyed by their length and the XOR of their words'
    classes; an out-of-vocabulary unit by its words under exact-fallback,
    and dropped under zero."""
    keys = Counter()
    for unit, count in units(seq, variant).items():
        if all(w in classes for w in unit):
            keys[len(unit), reduce(xor, map(classes.__getitem__, unit))] += count
        elif policy == "exact-fallback":
            keys[unit] += count
    return keys


class TestHadamardParaphrases:
    """Soft matches between different words, checked exactly: under a
    Hadamard table ROUGE-WE is clipped counting of class-keyed units."""

    @settings(max_examples=300, deadline=None)
    @given(cand=hadamard_summaries, ref=hadamard_summaries,
           ids=st.lists(st.integers(0, 15), min_size=12, max_size=12, unique=True)
           | st.lists(st.integers(0, 255), min_size=12, max_size=12, unique=True),
           variant=st.sampled_from([RougeVariant.parse(name)
                                    for name in ("rouge-1", "rouge-2", "rouge-3", "rouge-su4")]),
           policy=st.sampled_from(["zero", "exact-fallback"]))
    def test_soft_count_is_clipped_count_of_class_keys(self, cand, ref, ids, variant, policy):
        # Class ids from 0-15 make different bigrams share an XOR often.
        classes = {w: ids[i % 12] for i, w in enumerate(CLASS_WORDS)}
        match = MatchFunction.we(hadamard_table(classes), oov_policy=policy)
        expected = clipped_count(class_units(cand, variant, classes, policy),
                                 class_units(ref, variant, classes, policy))
        assert rouge_score(cand, [ref], variant, match).soft_match_count == expected


# Every exact variant family and size the oracle tests cover: n-grams up
# to 9, and skip windows from adjacent pairs to wider than most summaries.
EXACT_VARIANTS = [RougeVariant.parse(f"rouge-{n}") for n in range(1, 10)] + [
    RougeVariant.parse(f"rouge-su{k}") for k in range(9)]
# Summaries of one-letter words. Few words, so units repeat within and
# across summaries; or up to 40 tokens over 15 words, so a topic has
# hundreds of columns.
summaries = (st.text("abcd", max_size=6) | st.text("abcdefghijklmno", max_size=40)).map(tuple)
# Candidates also hold words that no reference can.
cand_summaries = (st.text("abcdxy", max_size=6)
                  | st.text("abcdefghijklmnoxy", max_size=40)).map(tuple)


@st.composite
def batches(draw):
    """Candidates with an empty one and a one-token one among them."""
    cands = draw(st.lists(cand_summaries, max_size=8))
    for short in ((), (draw(st.sampled_from("ax")),)):
        cands.insert(draw(st.integers(0, len(cands))), short)
    return cands


# The same under embedding matching, with out-of-vocabulary words too.
we_summaries = st.lists(st.sampled_from(UNIT_WORDS), max_size=6).map(tuple)


def column_units(codes: _UnitCodes, words: list[str]) -> dict[int, tuple[str, ...]]:
    """Each column of a coder but the sink, read back from its codes
    through the word list its summaries were coded over as the word tuple
    it counts."""
    names = {i: words[w] for i, w in enumerate(codes.words.tolist(), 1)}
    ranks = {i: (word,) for i, word in names.items()}
    for keys in codes.keys:
        ranks = {rank: ranks[code // codes.base] + (names[code % codes.base],)
                 for rank, code in enumerate(keys[:-1].tolist(), 1)}
    return ranks


class TestExactEngineMatchesOracle:
    """Clipping a candidate against all references at once gives the scores
    of clipping it against each reference on its own."""

    @given(cand=cand_summaries, refs=st.lists(summaries, min_size=1, max_size=4),
           variant=st.sampled_from(EXACT_VARIANTS),
           multiref=st.sampled_from(["average", "jackknife"]))
    @settings(max_examples=400, deadline=None)
    def test_score_one_candidate(self, cand, refs, variant, multiref):
        score, cands = batch_scorer(refs, [cand], variant, MatchFunction.exact(), multiref)
        expected = oracle_fields(cand, refs, variant, multiref)
        assert np.array_equal(score(cands), field_columns([expected]))
        assert (rouge_score(cand, refs, variant, MatchFunction.exact(), multiref)
                == oracle_rouge_score(cand, refs, variant, multiref))

    @given(cands=batches(), refs=st.lists(summaries, min_size=1, max_size=4),
           variant=st.sampled_from(EXACT_VARIANTS),
           multiref=st.sampled_from(["average", "jackknife"]))
    @settings(max_examples=300, deadline=None)
    def test_score_many(self, cands, refs, variant, multiref):
        # A batch's count matrix sets the budget for the dense lookup tables:
        # batches of one mostly search, and the whole batch mostly gathers.
        score, ids = batch_scorer(refs, cands, variant, MatchFunction.exact(), multiref)
        expected = field_columns([oracle_fields(cand, refs, variant, multiref) for cand in cands])
        assert np.array_equal(np.hstack([score([cand]) for cand in ids]), expected)
        assert np.array_equal(score(ids), expected)
        assert np.array_equal(score([]), field_columns([]))

    @given(cands=st.lists(we_summaries, max_size=6),
           refs=st.lists(we_summaries, min_size=1, max_size=4),
           variant=st.sampled_from([ROUGE_1, ROUGE_2, RougeVariant.parse("rouge-3"), ROUGE_SU4]),
           multiref=st.sampled_from(["average", "jackknife"]),
           table_seed=st.integers(0, 2**32 - 1),
           policy=st.sampled_from(["zero", "exact-fallback"]))
    @settings(max_examples=150, deadline=None)
    def test_score_many_we_is_score_per_candidate(self, cands, refs, variant, multiref,
                                                   table_seed, policy):
        match = MatchFunction.we(sign_table(table_seed, TABLE_WORDS), oov_policy=policy)
        score, ids = batch_scorer(refs, cands, variant, match, multiref)
        alone = np.hstack([field_columns([]), *(score([cand]) for cand in ids)])
        assert np.array_equal(score(ids), alone)
        assert np.array_equal(score([]), field_columns([]))

    @given(cand=summaries, ref=summaries, variant=st.sampled_from(EXACT_VARIANTS))
    @settings(max_examples=200, deadline=None)
    def test_soft_overlap(self, cand, ref, variant):
        cand_units, ref_units = units(cand, variant), units(ref, variant)
        got = soft_overlap(cand_units, ref_units, MatchFunction.exact())
        assert got == float(clipped_count(cand_units, ref_units))
        assert type(got) is float

    @given(cand=cand_summaries, refs=st.lists(summaries, min_size=1, max_size=3),
           variant=st.sampled_from(EXACT_VARIANTS), rows=st.sampled_from([0, 2**40]))
    @settings(max_examples=200, deadline=None)
    def test_unit_stream_is_extract_units(self, cand, refs, variant, rows):
        # The engine's coded units, read back as words, are the oracle's
        # units: each reference's counts rows, and the candidate's row of
        # the coder keyed by the references, summed over the variant's
        # spans: rouge-N's n-grams, or rouge-SU's unigrams and its
        # skip-bigrams. Every level is ranked with ``rows`` in place of the
        # batch's summaries, so by a binary search at 0 and by a table
        # gather at 2**40, on the same input.
        words, ids = encode_tokens([*refs, cand])
        summaries = [*refs, cand]
        ref_units = [Counter() for _ in refs]
        joint_units = [Counter() for _ in summaries]
        cand_units = Counter()
        ref_totals, cand_total, joint_totals, levels = 0, 0, 0, 0
        rank = _UnitCodes._rank

        def forced(coder, codes, keyed, _):
            return rank(coder, codes, keyed, rows)

        with (mock.patch.object(_UnitCodes, "_rank", forced),
              mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as search):
            for span in (variant,) if variant.family == "n" else (ROUGE_1, variant):
                exact = _UnitCodes(ids, span, len(refs))
                unit_at = column_units(exact, words)
                assert exact.counts.shape[1] == len(unit_at) + 1
                # One span a coder: its n-grams, or only its skip-bigrams.
                assert {len(unit) for unit in unit_at.values()} <= {span.n or 2}
                for row, found in zip(exact.counts.tolist(), [*ref_units, cand_units]):
                    assert row[0] == 0
                    found.update({unit_at[c]: k for c, k in enumerate(row) if k})
                ref_totals += exact.totals[:-1]
                cand_total += exact.totals[-1:]
                # Keyed by every summary, as embedding matching codes them,
                # every unit has a column, and the columns read back
                # through the vocabulary in sorted word-tuple order.
                joint = _UnitCodes(ids, span, len(ids))
                vocabulary = [words[w] for w in joint.words.tolist()]
                assert vocabulary == sorted(set().union(*map(set, summaries)))
                column_words = joint.units()
                assert len(column_words) + 1 == joint.width
                for row, found in zip(joint.counts, joint_units):
                    held = np.flatnonzero(row[1:])
                    tuples = [tuple(vocabulary[w - 1] for w in unit)
                              for unit in column_words[held].tolist()]
                    assert tuples == sorted(tuples)
                    found.update(dict(zip(tuples, row[1 + held].tolist())))
                joint_totals += joint.totals
                levels += len(exact.keys) + len(joint.keys)
        assert search.call_count == (levels if rows == 0 else 0)
        assert ref_units == [units(ref, variant) for ref in refs]
        assert ref_totals.tolist() == [units(ref, variant).total() for ref in refs]
        assert cand_units == Counter({unit: k for unit, k in units(cand, variant).items()
                                      if any(unit in found for found in ref_units)})
        assert cand_total.tolist() == [units(cand, variant).total()]
        assert joint_units == [units(summary, variant) for summary in summaries]
        assert joint_totals.tolist() == [units(s, variant).total() for s in summaries]

    @given(refs=st.lists(summaries, min_size=1, max_size=4), cands=batches(), more=batches(),
           variant=st.sampled_from(EXACT_VARIANTS))
    @settings(max_examples=100, deadline=None)
    def test_exact_coders_are_keyed_by_the_references(self, refs, cands, more, variant):
        # Under exact matching the coders a batch is scored with, one a
        # span, are keyed by the references: their words, keys, reference
        # rows and totals are those of the references scored alone,
        # whatever candidates the batch holds, and each candidate's row is
        # the one it gets in a batch of its own.
        _, ids = encode_tokens([*refs, *cands, *more])
        n, k = len(refs), len(cands)
        refs, cands, more = ids[:n], ids[n:n + k], ids[n + k:]

        def coders(batch: list[np.ndarray]) -> list[_UnitCodes]:
            made = []

            def keep(*args):
                made.append(_UnitCodes(*args))
                return made[-1]

            with mock.patch.object(rouge, "_UnitCodes", keep):
                score_fields(refs, batch, [(variant, MatchFunction.exact(), "average",
                                            SCORE_FIELDS)])
            return made

        alone = coders([])
        for batch in (cands, cands[::-1], cands + more):
            singles = [coders([cand]) for cand in batch]
            for span, (codes, own) in enumerate(zip(coders(batch), alone, strict=True)):
                assert codes.words.tolist() == own.words.tolist()
                assert list(map(np.ndarray.tolist, codes.keys)) == list(
                    map(np.ndarray.tolist, own.keys))
                assert codes.counts[:n].tolist() == own.counts.tolist()
                assert codes.totals[:n].tolist() == own.totals.tolist()
                assert codes.counts[n:].tolist() == [
                    single[span].counts[-1].tolist() for single in singles]


SHARED_METRICS = [ROUGE_1, ROUGE_2, *(RougeVariant("su", max_skip=k) for k in range(5))]


class TestSharedSpans:
    """One ``score_fields`` call of several metrics, which scores each span
    once, gives every metric bitwise the values that a call of it alone
    gets."""

    @given(cands=st.lists(we_summaries, max_size=4),
           refs=st.lists(we_summaries, min_size=1, max_size=3),
           variants=st.lists(st.sampled_from(SHARED_METRICS), min_size=1, max_size=5),
           kind=st.sampled_from(["exact", "zero", "exact-fallback"]),
           multiref=st.sampled_from(["average", "jackknife"]),
           table_seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_shared_equals_alone(self, cands, refs, variants, kind, multiref, table_seed):
        match = (MatchFunction.exact() if kind == "exact"
                 else MatchFunction.we(sign_table(table_seed, TABLE_WORDS), oov_policy=kind))
        words, ids = encode_tokens([*refs, *cands])
        rows = match.table.rows(words) if match.table else None
        metrics = [(variant, match, multiref, SCORE_FIELDS) for variant in variants]
        assert_together_equals_alone(ids[:len(refs)], ids[len(refs):], metrics, rows)

    def test_match_kinds_and_policies_keep_their_own_spans(self):
        # The other table holds the same words at the same rows.
        vectors = {"a": [1.0, 0.0], "b": [0.6, 0.8], "c": [0.8, 0.6]}
        table, other = make_table(vectors), make_table({**vectors, "c": [0.6, 0.8]})
        words, ids = encode_tokens([seq("a ghost b"), seq("ghost c a")])
        exact, zero = MatchFunction.exact(), MatchFunction.we(table)
        fallback = MatchFunction.we(table, oov_policy="exact-fallback")
        matches = [(ROUGE_1, exact), (ROUGE_SU4, zero), (ROUGE_1, fallback),
                   (ROUGE_SU4, exact), (ROUGE_1, zero), (ROUGE_SU4, fallback),
                   (ROUGE_1, MatchFunction.we(other))]
        metrics = [(variant, match, "average", SCORE_FIELDS) for variant, match in matches]
        alone = assert_together_equals_alone(ids[:1], ids[1:], metrics, table.rows(words))
        soft = SCORE_FIELDS.index("soft_match_count")
        # The unigram spans differ (a and ghost match exactly; b and c are
        # similar 0.96 in float32, 1 in the other table, and ghost matches
        # ghost only under exact-fallback), so a span kept under a key
        # without the match kind, the table or the OOV policy would change
        # a score.
        assert [round(float(values[soft, 0]), 6) for (variant, _), values in zip(matches, alone)
                if variant == ROUGE_1] == [2.0, 2.96, 1.96, 2.0]

    @pytest.mark.parametrize("kind", ["exact", "zero"])
    def test_each_coder_is_dropped_before_the_next(self, kind):
        # A span's coder holds the batch's count matrix; once its counts
        # are kept, it is dropped, so a call holds one matrix at a time.
        made = []

        class Watched(_UnitCodes):
            __slots__ = ("__weakref__",)

            def __init__(self, *args):
                assert [ref() for ref in made] == [None] * len(made)
                super().__init__(*args)
                made.append(weakref.ref(self))

        table = sign_table(0, TABLE_WORDS)
        match = MatchFunction.exact() if kind == "exact" else MatchFunction.we(table)
        words, ids = encode_tokens([seq("a b c d a"), seq("b a d"), seq("c d e a")])
        with mock.patch.object(rouge, "_UnitCodes", Watched):
            score_fields(ids[:2], ids[2:], [(variant, match, "average", SCORE_FIELDS)
                                            for variant in (ROUGE_1, ROUGE_2, ROUGE_SU4)],
                         table.rows(words))
        assert len(made) == 3


def assert_together_equals_alone(refs, cands, metrics, rows) -> list[np.ndarray]:
    """Require one ``score_fields`` call of ``metrics`` to give each metric
    bitwise the array of a call of it alone, and return those arrays."""
    together = score_fields(refs, cands, metrics, rows)
    alone = [score_fields(refs, cands, [metric], rows)[0] for metric in metrics]
    assert [(values.shape, values.tobytes()) for values in together] == [
        (values.shape, values.tobytes()) for values in alone]
    return alone


class TestExactEdgeCases:
    def test_empty_candidate(self):
        score_cands, cands = batch_scorer([seq("a b c"), seq("a d")], [seq("")], ROUGE_1,
                                          MatchFunction.exact())
        assert np.array_equal(score_cands(cands), field_columns([(0, 0, 0, 0, 2.5, 0)]))

    def test_candidate_sharing_no_unit(self):
        score_cands, cands = batch_scorer([seq("a b c"), seq("a d")], [seq("x y x y")], ROUGE_2,
                                          MatchFunction.exact())
        assert np.array_equal(score_cands(cands), field_columns([(0, 0, 0, 0, 1.5, 3)]))

    def test_references_shorter_than_n(self):
        words, ids = encode_tokens([seq("a b"), seq("a"), seq(""), seq("a b a b")])
        variant = RougeVariant.parse("rouge-3")
        codes = _UnitCodes(ids, variant, 3)
        # No code reaches a unit's third word, so the sink is the only column.
        assert column_units(codes, words) == {}
        assert codes.counts.tolist() == [[0], [0], [0], [0]]
        [scores] = score_fields(ids[:3], ids[3:], [(variant, MatchFunction.exact(), "average",
                                                    SCORE_FIELDS)])
        assert np.array_equal(scores, field_columns([(0, 0, 0, 0, 0, 2)]))

    def test_lookup_tables_follow_the_batch_budget(self):
        # Six words and seven bigram columns: the 7 x 7 int32 table (196
        # bytes) is made only when the count matrix of the level's eight
        # keys for the whole batch is at least as large. The references
        # alone (2 rows of int64, 128 bytes) and a batch of one (3 rows, 192
        # bytes) search; the batch of four (6 rows, 384 bytes) gathers.
        refs = [seq("a b c d e f"), seq("b c a f")]
        cands = [seq("a b c a f"), seq("x b c"), seq(""), seq("f e d c b a")]
        score, ids = batch_scorer(refs, cands, ROUGE_2, MatchFunction.exact())
        expected = field_columns([oracle_fields(cand, refs, ROUGE_2) for cand in cands])
        with mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as search:
            for batch, searches in ((slice(0), 1), (slice(0, 1), 1), (slice(None), 0),
                                    (slice(1, 2), 1)):
                search.reset_mock()
                assert np.array_equal(score(ids[batch]), expected[:, batch])
                assert search.call_count == searches

    def test_soft_overlap_counts_above_one(self):
        cand = Counter({("a",): 3, ("b",): 1, ("c", "d"): 2, ("e",): 4})
        ref = Counter({("a",): 2, ("b",): 5, ("c", "d"): 2, ("f",): 7})
        assert soft_overlap(cand, ref, MatchFunction.exact()) == 2.0 + 1.0 + 2.0
        assert soft_overlap(ref, cand, MatchFunction.exact()) == 5.0

    def test_columns_span_every_reference(self):
        words, ids = encode_tokens([seq("a b"), seq("c"), seq("c b"), seq("c c")])
        codes = _UnitCodes(ids, ROUGE_1, 3)
        assert column_units(codes, words) == {1: ("a",), 2: ("b",), 3: ("c",)}
        assert codes.counts.tolist() == [[0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 1, 1], [0, 0, 0, 2]]
        [scores] = score_fields(ids[:3], ids[3:], [(ROUGE_1, MatchFunction.exact(), "average",
                                                    ["soft_match_count"])])
        assert scores.tolist() == [[(0 + 1 + 1) / 3]]


class TestCostFollowsText:
    """No unit is longer than the longest summary, so a skip distance or an
    n past it changes neither the scores nor the memory scoring takes."""

    @pytest.mark.parametrize("match, longest, n_cands", [("exact", 60, 20), ("we", 20, 4)])
    @pytest.mark.parametrize("family", ["su", "n"])
    def test_variants_past_the_longest_summary(self, match, longest, n_cands, family):
        words = [f"w{i}" for i in range(40)]
        matcher = (MatchFunction.exact() if match == "exact"
                   else MatchFunction.we(sign_table(0, words), oov_policy="exact-fallback"))
        rng = random.Random(0)
        texts = [rng.choices(words, k=rng.randint(longest // 2, longest))
                 for _ in range(3 + n_cands)] + [rng.choices(words, k=longest)]
        refs, cands = ([tuple(text) for text in part] for part in (texts[-4:], texts[:-4]))
        # Every skip-bigram of a summary is within ``longest`` places; no
        # summary holds an n-gram past ``longest`` words.
        names = ((f"rouge-su{longest}", f"rouge-su{4 * longest}") if family == "su"
                 else (f"rouge-{longest + 1}", f"rouge-{4 * longest}"))
        scores, peaks = [], []
        for name in names:
            tracemalloc.start()
            try:
                score, ids = batch_scorer(refs, cands, RougeVariant.parse(name), matcher)
                scores.append(score(ids).tolist())
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert scores[0] == scores[1]
        assert peaks[1] < 1.25 * peaks[0] + 16 * 1024


class TestMeanScores:
    @given(width=st.integers(1, 5), data=st.data())
    def test_row_means_are_fmean(self, width, data):
        rows = data.draw(st.lists(st.lists(st.floats(0.0, 1.0) | st.integers(0, 500),
                                           min_size=width, max_size=width), max_size=6))
        values = np.array(rows, dtype=np.float64).reshape(len(rows), width)
        assert _row_means(values).tolist() == [fmean(row) for row in rows]

    @given(values=st.lists(st.floats(0.0, 1.0) | st.integers(0, 10**6), min_size=1, max_size=6))
    def test_fmean_of_list_is_fmean_of_generator(self, values):
        assert fmean(list(values)) == fmean(v for v in values)
