from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rougewe.rouge import RougeVariant
from rougewe.textpipe import (
    _STRIP_CHARS,
    DEFAULT_CONFIG,
    InputError,
    TokenizeConfig,
    encode,
    encode_tokens,
    load_stopwords,
    read_text,
    tokenize,
)

from exact_oracle import units

BOM = "\ufeff".encode("utf-8")


class TestTokenize:
    def test_default_lowercase_and_punctuation(self):
        assert tokenize("It is raining heavily.") == ("it", "is", "raining", "heavily")

    def test_empty_input(self):
        assert tokenize("") == ()
        assert tokenize("   \t\n ") == ()

    def test_plain_words(self):
        assert tokenize("It is pouring") == ("it", "is", "pouring")

    def test_strips_wrapping_punctuation_keeps_inner(self):
        assert tokenize('("Hello," she said -- don\'t!)') == ("hello", "she", "said", "don't")

    def test_pure_punctuation_chunks_vanish(self):
        assert tokenize("a -- b ... !!") == ("a", "b")

    def test_always_lowercases(self):
        """No setting keeps case: the embedding loaders key every word lowercased."""
        assert tokenize("It IS", TokenizeConfig(stem=False)) == ("it", "is")
        with pytest.raises(TypeError):
            TokenizeConfig(lowercase=False)

    def test_stopword_removal(self):
        config = TokenizeConfig(stopwords=frozenset({"it", "is"}))
        assert tokenize("It is raining heavily.", config) == ("raining", "heavily")

    def test_stemming(self):
        config = TokenizeConfig(stem=True)
        assert tokenize("running dogs pounced", config) == ("run", "dog", "pounc")

    def test_same_word_is_one_object_across_texts(self):
        # Both texts build "raining" afresh: one by lowercasing, one by
        # stripping a comma.
        first = tokenize("It is RAINING heavily")[2]
        second = tokenize("raining, pouring")[0]
        assert first == second == "raining"
        assert first is second

    def test_source_id_is_ignored(self):
        assert tokenize("x y", source_id="sys1") == ("x", "y")

    def test_load_stopwords(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("The\nis\n\n  a\n", encoding="utf-8")
        assert load_stopwords(path) == frozenset({"the", "is", "a"})

    @given(st.text(max_size=200))
    def test_idempotent_on_own_output(self, raw):
        first = tokenize(raw)
        again = tokenize(" ".join(first))
        assert again == first

    @given(st.text(max_size=200))
    def test_tokens_are_clean(self, raw):
        for token in tokenize(raw):
            assert token
            assert not any(ch.isspace() for ch in token)

    def test_idempotent_with_stopwords(self):
        config = TokenizeConfig(stopwords=frozenset({"the"}))
        first = tokenize("The cat, the hat.", config)
        assert tokenize(" ".join(first), config) == first


# Texts made of words that stemming or a stopword list changes, words whose
# lowercase depends on context or is longer (a final sigma, a dotted capital
# I), every stripped punctuation mark, letters and Unicode whitespace (no-break
# and em spaces). Stripping can leave a chunk empty, or bare a sigma at its
# end.
TEXT_PIECES = ["the", "The", "cats", "Cat", "running", "ΣΑΣ", "Σa", "İ", "a", "b",
               *_STRIP_CHARS, " ", "\n", "\u00a0", "\u2003"]
ENCODER_CONFIGS = [DEFAULT_CONFIG, TokenizeConfig(stem=True),
                   TokenizeConfig(stopwords=frozenset({"the", "a", "σας"})),
                   TokenizeConfig(stem=True, stopwords=frozenset({"cat", "i̇"}))]


class TestEncode:
    """``encode`` gives every text the words ``tokenize`` gives it, as ids
    over one word list in sorted order."""

    @given(texts=st.lists(st.lists(st.sampled_from(TEXT_PIECES), max_size=24).map("".join),
                          max_size=5),
           config=st.sampled_from(ENCODER_CONFIGS))
    @settings(max_examples=200, deadline=None)
    def test_decodes_to_tokenize(self, texts, config):
        words, ids = encode(texts, config)
        tokens = [tokenize(text, config) for text in texts]
        assert words == sorted(set().union(*tokens))
        assert [tuple(words[i] for i in text.tolist()) for text in ids] == tokens
        assert all(text.dtype == np.int32 for text in ids)

    def test_chunks_are_normalized_per_config(self):
        texts = ["The cats, THE dog", "the\u00a0cats\u2003—"]
        stem_stop = TokenizeConfig(stem=True, stopwords=frozenset({"the"}))
        for config, want in ((DEFAULT_CONFIG, (["cats", "dog", "the"], [[2, 0, 2, 1], [2, 0]])),
                             (stem_stop, (["cat", "dog"], [[0, 1], [0]]))):
            words, ids = encode(texts, config)
            assert (words, [text.tolist() for text in ids]) == want

    def test_token_sequences(self):
        words, ids = encode_tokens(iter([("b", "A,", "b"), (), ["A,"]]))
        assert words == ["A,", "b"]
        assert [text.tolist() for text in ids] == [[1, 0, 1], [], [0]]


class TestReadText:
    """Every text input is read through ``read_text``: one leading byte-order
    mark is dropped after decoding, and nothing else changes."""

    @pytest.mark.parametrize("blob, text", [
        (b"the cat", "the cat"),
        (BOM + b"the cat", "the cat"),
        (BOM + BOM + b"the cat", "\ufeffthe cat"),
        (b"the \xef\xbb\xbfcat", "the \ufeffcat"),
        (BOM, ""),
    ])
    def test_drops_one_leading_mark(self, tmp_path, blob, text):
        path = tmp_path / "f.txt"
        path.write_bytes(blob)
        assert read_text(path) == text

    def test_error_offset_counts_the_mark(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(BOM + b"ab\xff")
        with pytest.raises(InputError) as err:
            read_text(path)
        assert str(err.value) == f"file {path} is not valid UTF-8 (byte offset 5)"

    def test_unreadable_file_names_it_as_what(self, tmp_path):
        with pytest.raises(InputError) as err:
            read_text(tmp_path, "stopword file")
        assert str(err.value).startswith(f"unreadable stopword file {tmp_path}: ")
        assert isinstance(err.value.__cause__, OSError)


def ngram_units(seq: tuple[str, ...], n: int) -> Counter:
    """The exact oracle's ROUGE-n units."""
    return units(seq, RougeVariant("n", n=n))


def skip_bigram_units(seq: tuple[str, ...], max_skip: int) -> Counter:
    """The exact oracle's ROUGE-SU units less the unigrams they pool."""
    return Counter({unit: k for unit, k in units(seq, RougeVariant("su", max_skip=max_skip)).items()
                    if len(unit) == 2})


class TestExtractNgrams:
    """Hand-worked n-gram units of the exact oracle, the reference definition
    that the engine's coded units are checked against."""

    def test_bigrams(self):
        ms = ngram_units(("it", "is", "pouring"), 2)
        assert ms == {("it", "is"): 1, ("is", "pouring"): 1}

    def test_multiplicity(self):
        ms = ngram_units(("a", "a", "a"), 1)
        assert ms == {("a",): 3}
        assert ms.total() == 3

    def test_four_token_bigrams(self):
        ms = ngram_units(("police", "killed", "the", "gunman"), 2)
        assert ms == {
            ("police", "killed"): 1,
            ("killed", "the"): 1,
            ("the", "gunman"): 1,
        }

    def test_pooled_units_sum_counts(self):
        left = ngram_units(("a", "b"), 1)
        right = ngram_units(("b", "c"), 1)
        left.update(right)
        assert left == {("a",): 1, ("b",): 2, ("c",): 1}
        assert left.total() == 4

    def test_too_short_sequence(self):
        assert ngram_units(("a",), 2).total() == 0
        assert ngram_units((), 1).total() == 0

    @given(st.lists(st.sampled_from("abcde"), max_size=30), st.integers(1, 5))
    def test_total_formula(self, tokens, n):
        seq = tuple(tokens)
        assert ngram_units(seq, n).total() == max(0, len(tokens) - n + 1)


class TestExtractSkipBigrams:
    """Hand-worked skip-bigram units of the exact oracle: its ROUGE-SU units
    of length 2."""

    def test_all_pairs_within_skip(self):
        ms = skip_bigram_units(("police", "killed", "the", "gunman"), 4)
        assert ms.total() == 6
        assert ms == {
            ("police", "killed"): 1,
            ("police", "the"): 1,
            ("police", "gunman"): 1,
            ("killed", "the"): 1,
            ("killed", "gunman"): 1,
            ("the", "gunman"): 1,
        }

    def test_adjacent_only(self):
        ms = skip_bigram_units(("a", "b"), 0)
        assert ms == {("a", "b"): 1}

    def test_single_token_no_pairs(self):
        assert skip_bigram_units(("a",), 4).total() == 0

    def test_window_larger_than_sequence(self):
        seq = ("a", "b", "c")
        assert skip_bigram_units(seq, 10**12) == skip_bigram_units(seq, 1)

    @given(st.lists(st.sampled_from("abc"), min_size=2, max_size=20))
    def test_unbounded_skip_total(self, tokens):
        seq = tuple(tokens)
        n = len(tokens)
        assert skip_bigram_units(seq, n - 2).total() == n * (n - 1) // 2

    @given(st.lists(st.sampled_from("abc"), max_size=20))
    def test_zero_skip_equals_bigrams_modulo_gap(self, tokens):
        seq = tuple(tokens)
        assert skip_bigram_units(seq, 0) == ngram_units(seq, 2)

    @settings(max_examples=100)
    @given(st.lists(st.sampled_from("abcd"), max_size=15), st.integers(0, 6))
    def test_gaps_within_bound(self, tokens, max_skip):
        # Brute force: every pair i < j <= i + max_skip + 1, counted by its words.
        expected = Counter(
            (tokens[i], tokens[j])
            for i in range(len(tokens))
            for j in range(i + 1, len(tokens))
            if j <= i + max_skip + 1
        )
        assert skip_bigram_units(tuple(tokens), max_skip) == expected
