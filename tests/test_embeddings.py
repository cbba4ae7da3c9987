import dataclasses
import functools
import math
import re
import struct
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greedy_oracle
import load_oracle
from rougewe import embeddings
from rougewe.embeddings import (
    EmbeddingFormatError,
    EmbeddingTruncationError,
    load_binary,
    load_text,
)
from rougewe.rouge import MatchFunction

from conftest import make_table, save_binary, soft_overlap


def binary_entry(word: str, values) -> bytes:
    return word.encode("utf-8") + b" " + struct.pack(f"<{len(values)}f", *values) + b"\n"


def write_binary(path, entries, header=None):
    dim = len(entries[0][1]) if entries else 300
    blob = f"{len(entries) if header is None else header[0]} {dim if header is None else header[1]}\n".encode()
    for word, values in entries:
        blob += binary_entry(word, values)
    path.write_bytes(blob)
    return path


class TestLoadText:
    def test_two_unit_vectors(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1 0\nb 0 1\n", encoding="utf-8")
        table = load_text(path)
        assert table.size == 2 and table.dim == 2
        assert np.array_equal(table.lookup("a"), np.array([1, 0], dtype=np.float32))
        assert np.array_equal(table.lookup("b"), np.array([0, 1], dtype=np.float32))

    def test_normalizes_to_unit(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("c 3 4\n", encoding="utf-8")
        vec = load_text(path).lookup("c")
        assert vec == pytest.approx([0.6, 0.8], abs=1e-7)

    def test_inconsistent_arity_names_line(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1 0\nb 0 1 5\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            load_text(path)

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1 oops\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="line 1"):
            load_text(path)

    def test_header_accepted(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("2 3\na 1 0 0\nb 0 1 0\n", encoding="utf-8")
        table = load_text(path)
        assert table.size == 2 and table.dim == 3

    def test_header_count_mismatch(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("3 2\na 1 0\nb 0 1\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="declares 3"):
            load_text(path)

    def test_header_dim_mismatch(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("1 3\na 1 0\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="dimension"):
            load_text(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("", encoding="utf-8")
        assert load_text(path).size == 0

    @pytest.mark.parametrize("blob", ["0 -3\n", "0 0\n", "-1 2\n", "1 0\na 1 0\n"])
    def test_header_out_of_range_names_line_1(self, tmp_path, blob):
        # As load_binary, a header needs vocab_size >= 0 and dim >= 1.
        path = tmp_path / "vecs.txt"
        path.write_text(blob, encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="^line 1: malformed header"):
            load_text(path)

    def test_non_utf8_names_line_and_offset(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_bytes(b"2 2\na 1 0\nb\xff 0 1\n")
        with pytest.raises(EmbeddingFormatError, match=r"line 3: not valid UTF-8 \(byte offset 11\)"):
            load_text(path)

    def test_byte_order_mark_is_not_part_of_the_first_word(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_bytes(b"\xef\xbb\xbfcat 1 0 0\ndog 0 1 0\n")
        table = load_text(path, vocabulary={"cat", "dog"})
        assert sorted(table.words()) == ["cat", "dog"]
        assert np.array_equal(table.lookup("cat"), np.array([1, 0, 0], dtype=np.float32))

    def test_byte_order_mark_before_header(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_bytes(b"\xef\xbb\xbf2 3\ncat 1 0 0\ndog 0 1 0\n")
        table = load_text(path)
        assert (table.size, table.dim) == (2, 3)
        assert sorted(table.words()) == ["cat", "dog"]
        # Lines keep their numbers, and byte offsets count the mark.
        path.write_bytes(b"\xef\xbb\xbf2 3\ncat 1 0 0\ndog 0 1\n")
        with pytest.raises(EmbeddingFormatError, match="line 3: expected 3 values, found 2"):
            load_text(path)
        path.write_bytes(b"\xef\xbb\xbf2 3\nc\xff 1 0 0\n")
        with pytest.raises(EmbeddingFormatError, match=r"line 2: not valid UTF-8 \(byte offset 8\)"):
            load_text(path)

    def test_float32_overflow_rejected(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1 0\nb 1e40 1\n", encoding="utf-8")
        with pytest.raises(EmbeddingFormatError, match="non-finite vector value at line 2"):
            load_text(path)

class TestLoadBinary:
    def test_hand_built_file(self, tmp_path):
        path = write_binary(tmp_path / "v.bin", [("cat", [1, 0, 0]), ("dog", [0, 3, 4])])
        table = load_binary(path)
        assert table.size == 2 and table.dim == 3
        assert np.array_equal(table.lookup("cat"), np.array([1, 0, 0], dtype=np.float32))
        assert table.lookup("dog") == pytest.approx([0, 0.6, 0.8], abs=1e-7)

    def test_no_trailing_newlines(self, tmp_path):
        blob = b"2 2\n" + b"a " + struct.pack("<2f", 1, 0) + b"b " + struct.pack("<2f", 0, 1)
        path = tmp_path / "v.bin"
        path.write_bytes(blob)
        table = load_binary(path)
        assert table.size == 2
        assert np.array_equal(table.lookup("b"), np.array([0, 1], dtype=np.float32))

    def test_empty_vocab_header(self, tmp_path):
        path = tmp_path / "v.bin"
        path.write_bytes(b"0 300\n")
        table = load_binary(path)
        assert table.size == 0 and table.dim == 300

    def test_truncated_vector_reports_offset(self, tmp_path):
        good = b"2 3\n" + binary_entry("cat", [1, 0, 0])
        blob = good + b"dog " + struct.pack("<2f", 1.0, 2.0)  # one float short
        path = tmp_path / "v.bin"
        path.write_bytes(blob)
        with pytest.raises(EmbeddingTruncationError) as err:
            load_binary(path)
        assert err.value.offset == len(good) + len(b"dog ")

    def test_truncated_word(self, tmp_path):
        path = tmp_path / "v.bin"
        path.write_bytes(b"1 3\ncat")  # no space terminator, no payload
        with pytest.raises(EmbeddingTruncationError):
            load_binary(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "v.bin"
        path.write_bytes(b"not a header\n")
        with pytest.raises(EmbeddingFormatError, match="header"):
            load_binary(path)

    @pytest.mark.parametrize("header", [b"-1 4", b"2 0"])
    def test_header_out_of_range(self, tmp_path, header):
        path = tmp_path / "v.bin"
        path.write_bytes(header + b"\n")
        with pytest.raises(EmbeddingFormatError, match=f"^malformed header {header!r}"):
            load_binary(path)

    def test_missing_header_newline(self, tmp_path):
        path = tmp_path / "v.bin"
        path.write_bytes(b"2 3")
        with pytest.raises(EmbeddingFormatError, match="header"):
            load_binary(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "v.bin"
        path.write_bytes(b"1 2\n" + binary_entry("a", [1, 0]) + b"extra")
        with pytest.raises(EmbeddingFormatError, match="trailing"):
            load_binary(path)

    def test_duplicate_word_last_wins(self, tmp_path):
        """Of three rows of one word, the third is kept, in both formats, with
        and without a vocabulary, whether the repeats share a block or not; a
        case collision between them is counted and skipped."""
        entries = [("cat", [1, 0]), ("dog", [0, 1]), ("cat", [0, -1]), ("CAT", [1, 1]),
                   ("cat", [-1, 0])]
        binary = write_binary(tmp_path / "v.bin", entries)
        text = tmp_path / "v.txt"
        text.write_text("".join(f"{w} {x} {y}\n" for w, (x, y) in entries), encoding="utf-8")
        # Blocks of all five rows, of two (the first repeat shares the second
        # with the collision, the last repeat is alone in the third) and of one.
        for chunk in (embeddings.CHUNK_BYTES, 256, 64):
            for path, load in ((binary, load_binary), (text, load_text)):
                for vocabulary in (None, {"cat"}):
                    with mock.patch.object(embeddings, "CHUNK_BYTES", chunk):
                        table = load(path, vocabulary=vocabulary)
                    assert table.lookup("cat").tolist() == [-1, 0], (chunk, path, vocabulary)
                    assert table.load_summary.duplicates == 2
                    assert table.load_summary.case_collisions == 1

    def test_case_collision_first_wins(self, tmp_path):
        path = write_binary(tmp_path / "v.bin", [("Cat", [1, 0]), ("cat", [0, 1])])
        table = load_binary(path)
        assert table.size == 1
        assert np.array_equal(table.lookup("cat"), np.array([1, 0], dtype=np.float32))
        assert table.load_summary.case_collisions == 1

    def test_zero_vector_dropped(self, tmp_path):
        path = write_binary(tmp_path / "v.bin", [("zero", [0, 0]), ("ok", [1, 0])])
        table = load_binary(path)
        assert "zero" not in table
        assert table.load_summary.zero_dropped == 1

    def test_non_finite_rejected(self, tmp_path):
        path = write_binary(tmp_path / "v.bin", [("bad", [math.nan, 1.0])])
        with pytest.raises(EmbeddingFormatError, match="non-finite"):
            load_binary(path)

    def test_empty_word_rejected(self, tmp_path):
        path = tmp_path / "v.bin"
        path.write_bytes(b"1 2\n " + struct.pack("<2f", 1, 0))
        with pytest.raises(EmbeddingFormatError, match="empty word"):
            load_binary(path)

    @pytest.mark.parametrize("chunk", [64, 200, 4096])
    def test_non_utf8_word_in_a_later_chunk_names_entry_and_offset(self, tmp_path, chunk):
        entries = [(f"w{i:03d}", [1.0, 0.0, 0.0, 0.0]) for i in range(60)]
        path = write_binary(tmp_path / "v.bin", entries)
        blob = path.read_bytes()
        entry = len(binary_entry("w000", [0.0] * 4))
        start = len(b"60 4\n") + 41 * entry  # the word of entry 41
        path.write_bytes(blob[:start + 2] + b"\xff" + blob[start + 3:])
        message = f"entry 41: word bytes are not valid UTF-8 (byte offset {start + 2})"
        with mock.patch.object(embeddings, "CHUNK_BYTES", chunk):
            with pytest.raises(EmbeddingFormatError, match=re.escape(message)):
                load_binary(path)
        with pytest.raises(EmbeddingFormatError, match=re.escape(message)):
            load_oracle.load_binary(path)

    @pytest.mark.parametrize("eol", [b"", b"\n"])
    def test_empty_word_at_every_fill_boundary(self, tmp_path, eol):
        """Without a newline before it, an empty word's entry scans to an empty
        group, as the unfinished tail of a fill does. Across chunk sizes the
        fills end before, inside and just after it, and each load names it
        as the oracle does."""
        values = struct.pack("<4f", 1.0, 0.0, 0.0, 0.0)
        words = [f"w{i:03d}".encode() for i in range(60)]
        words[41] = b""
        path = tmp_path / "v.bin"
        path.write_bytes(b"60 4\n" + b"".join(word + b" " + values + eol for word in words))
        with pytest.raises(EmbeddingFormatError) as want:
            load_oracle.load_binary(path)
        assert re.fullmatch(r"entry 41: empty word at byte \d+", str(want.value))
        for chunk in range(24, 201):
            with mock.patch.object(embeddings, "CHUNK_BYTES", chunk):
                with pytest.raises(EmbeddingFormatError) as got:
                    load_binary(path)
            assert str(got.value) == str(want.value), chunk

    def test_header_count_beyond_file_size(self, tmp_path):
        path = tmp_path / "v.bin"
        path.write_bytes(b"1000000000000 300\n" + binary_entry("cat", [1.0] * 300))
        with pytest.raises(EmbeddingTruncationError, match="entry 1"):
            load_binary(path)


class TestRoundTrip:
    def test_load_save_load_fixed_point(self, tmp_path):
        # "owl" is unit within NORM_TOLERANCE but not to the last bit, so it
        # is stored as written; renormalizing it would change its bits.
        owl = np.array([0.6, 0.8000005, 0], dtype=np.float32)
        path = write_binary(tmp_path / "v.bin", [("cat", [0.3, -1.2, 0.05]), ("dog", [2, 2, 1]),
                                                 ("owl", owl.tolist())])
        first = load_binary(path)
        assert first.lookup("owl").tobytes() == owl.tobytes()
        out = tmp_path / "copy.bin"
        save_binary(first, out)
        second = load_binary(out)
        assert list(second.words()) == list(first.words())
        assert second.dim == first.dim
        for word in first.words():
            assert np.array_equal(first.lookup(word), second.lookup(word))

    def test_all_loaded_vectors_unit(self, tmp_path):
        rng = np.random.default_rng(7)
        entries = [(f"w{i}", rng.normal(size=5) * rng.uniform(0.1, 8)) for i in range(20)]
        path = write_binary(tmp_path / "v.bin", entries)
        table = load_binary(path)
        for word in table.words():
            norm = np.linalg.norm(np.asarray(table.lookup(word), dtype=np.float64))
            assert abs(norm - 1.0) <= 1e-6


class TestLookupAndCompose:
    def test_lookup_hit_and_misses(self):
        table = make_table({"cat": [1, 0]})
        assert np.array_equal(table.lookup("cat"), np.array([1, 0], dtype=np.float32))
        assert table.lookup("dog") is None
        assert table.lookup("") is None

    def test_compose_single_is_lookup_object(self):
        table = make_table({"cat": [0.6, 0.8]})
        composed = table.compose(("cat",))
        assert np.array_equal(composed, table.lookup("cat"))
        assert np.shares_memory(composed, table.lookup("cat"))

    def test_compose_pair(self):
        table = make_table({"a": [0.6, 0.8], "b": [0.8, 0.6]})
        composed = table.compose(("a", "b"))
        assert composed == pytest.approx([1 / math.sqrt(2)] * 2, abs=1e-6)
        assert composed.dtype == np.float64 and not composed.flags.writeable

    def test_compose_oov_propagates(self):
        table = make_table({"a": [1, 0]})
        assert table.compose(("a", "missing")) is None

    def test_compose_zero_product_is_oov(self):
        table = make_table({"a": [1, 0], "b": [0, 1]})
        assert table.compose(("a", "b")) is None

    def test_compose_empty_rejected(self):
        table = make_table({"a": [1, 0]})
        with pytest.raises(ValueError):
            table.compose(())

    @given(st.permutations(["x", "y", "z"]))
    def test_compose_order_insensitive_exactly(self, order):
        table = make_table({"x": [0.3, 0.5, 0.9], "y": [0.8, 0.2, 0.4], "z": [0.1, 0.9, 0.6]})
        base = table.compose(("x", "y", "z"))
        assert np.array_equal(table.compose(tuple(order)), base)


COMPOSE_WORDS = ["p", "q", "r", "s"]


@st.composite
def float_tables(draw):
    """Random float32 tables, normalized or stored as found. A word's vector
    is scaled by 0 (dropped when normalizing), 1e-7, 1e-4 or 1, so that
    unnormalized products of small words fall under ZERO_NORM_TOLERANCE."""
    dim = draw(st.sampled_from([1, 2, 3, 5, 16, 300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = draw(st.lists(st.sampled_from([0.0, 1e-7, 1e-4, 1.0]),
                           min_size=len(COMPOSE_WORDS), max_size=len(COMPOSE_WORDS)))
    vectors = {w: rng.standard_normal(dim) * scale for w, scale in zip(COMPOSE_WORDS, scales)}
    return make_table(vectors, normalize=draw(st.booleans()))


class TestComposeMany:
    @given(table=float_tables(), length=st.integers(1, 4), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_compose(self, table, length, data):
        # "missing" is never in the table; repeated words such as (p, p) are
        # drawn too. Each unit's rows go in sorted word order, the order the
        # oracle's ``compose`` multiplies in; four words is the shortest unit
        # whose factor order can change a bit of the product.
        word = st.sampled_from(COMPOSE_WORDS + ["missing"])
        units = data.draw(st.lists(st.tuples(*[word] * length), max_size=10))
        ids = np.array([table.rows(sorted(unit)) for unit in units], np.intp)
        rows, known = table.compose_many(ids.reshape(len(units), length))
        expected = [greedy_oracle.compose(table, unit) for unit in units]
        assert known.tolist() == [vec is not None for vec in expected]
        assert rows.dtype == np.float64 and rows.shape == (int(known.sum()), table.dim)
        for row, vec in zip(rows, (vec for vec in expected if vec is not None)):
            assert row.tobytes() == np.asarray(vec, dtype=np.float64).tobytes()


def word_similarity(table, w1: str, w2: str) -> float:
    """Similarity of two words as scored: the soft overlap of one-word multisets."""
    return soft_overlap(Counter([(w1,)]), Counter([(w2,)]), MatchFunction.we(table))


class TestSimilarity:
    def test_self_similarity_is_one(self):
        table = make_table({"a": [1, 0, 0], "b": [0.6, 0.8, 0]})
        for word in ("a", "b"):
            assert word_similarity(table, word, word) == pytest.approx(1.0, abs=3e-6)

    def test_orthogonal_is_zero(self):
        table = make_table({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        assert word_similarity(table, "a", "b") == 0.0

    def test_opposite_clamps_to_zero(self):
        table = make_table({"a": [1.0, 0.0], "b": [-1.0, 0.0]})
        assert word_similarity(table, "a", "b") == 0.0

    @given(
        st.lists(st.floats(-1, 1, allow_nan=False), min_size=3, max_size=3),
        st.lists(st.floats(-1, 1, allow_nan=False), min_size=3, max_size=3),
    )
    def test_symmetric_and_bounded(self, a, b):
        if np.linalg.norm(a) < 1e-6 or np.linalg.norm(b) < 1e-6:
            return
        table = make_table({"a": a, "b": b})
        assert word_similarity(table, "a", "b") == word_similarity(table, "b", "a")
        assert 0.0 <= word_similarity(table, "a", "b") <= 1.0


# Differential checks against the per-entry loaders kept in ``load_oracle``.

# Besides ASCII and Latin-1 case pairs: a Greek word whose capital sigma
# lowers to a final sigma, a capital whose lowercase form is two code points
# (U+0130 -> "i" + U+0307), and a non-BMP case pair (Deseret), so a batched
# decode or lowering is checked against the oracle's word-by-word one.
WORDS = ["cat", "Cat", "CAT", "dog", "Dog", "\u00e9t\u00e9", "\u00c9t\u00e9", "x",
         "\u039f\u0394\u039f\u03a3", "\u039f\u03b4\u03bf\u03c2", "\u0130", "i\u0307",
         "\U00010400", "\U00010428"]
# Binary files also hold words no text line can: a newline after the first
# byte, and the Kelvin sign, a 3-byte capital that lowers to the 1-byte "k",
# with "k" itself, so the two collide as a case pair. A decode that strips
# every newline, or keys or names sliced as if lowering kept byte lengths,
# differ from the oracle.
BINARY_WORDS = [*WORDS, "a\nb", "\u212a", "k"]
# Word bytes that are not UTF-8, each past the word's first byte: a sequence
# cut short, a stray continuation byte, and an encoded surrogate.
NOT_UTF8 = [b"ca\xc3", b"c\x80t", b"x\xed\xa0\x80"]
# The word of at most one entry of a binary file may be one of these, or empty.
BAD_WORDS = [*NOT_UTF8, b""]


@st.composite
def vector_entries(draw, max_entries=8, words=WORDS):
    dim = draw(st.integers(1, 4))
    unit = st.builds(lambda k, sign: [sign * float(i == k) for i in range(dim)],
                     st.integers(0, dim - 1), st.sampled_from([1.0, -1.0]))
    zero = st.just([0.0] * dim)
    any_values = st.lists(st.floats(-4, 4, width=32), min_size=dim, max_size=dim)
    # Unit within NORM_TOLERANCE but not to the last bit: stored as found.
    near_unit = st.builds(
        lambda v, eps: (np.array(v) * ((1 + eps) / np.linalg.norm(v))).astype(np.float32).tolist(),
        any_values.filter(any), st.floats(-9e-7, 9e-7))
    non_finite = st.builds(lambda values, k, bad: values[:k] + [bad] + values[k + 1:],
                           any_values, st.integers(0, dim - 1),
                           st.sampled_from([math.nan, math.inf, -math.inf]))
    vector = st.one_of(unit, near_unit, zero, any_values, any_values, non_finite)
    entries = draw(st.lists(st.tuples(st.sampled_from(words), vector), max_size=max_entries))
    return dim, entries


def binary_blob(draw, dim, entries) -> bytes:
    declared = len(entries) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    bad = draw(st.one_of(st.none(), st.integers(0, len(entries) - 1))) if entries else None
    blob = f"{max(declared, 0)} {dim}\n".encode()
    blob += b"\n" * draw(st.integers(0, 2))
    for i, (word, values) in enumerate(entries):
        raw = draw(st.sampled_from(BAD_WORDS)) if i == bad else word.encode("utf-8")
        blob += raw + b" " + struct.pack(f"<{dim}f", *values)
        blob += b"\n" * draw(st.integers(0, 2))
    return blob


def text_blob(draw, dim, entries) -> bytes:
    eol = draw(st.sampled_from(["\n", "\r\n", "\r", "\x0c"]))
    lines = [""] * draw(st.sampled_from([0, 0, 0, 1, 2]))
    if draw(st.booleans()):
        lines.append(f"{len(entries) + draw(st.sampled_from([0, 0, 1]))} {dim}")
    for word, values in entries:
        lines.append(" ".join([word, *(repr(v) for v in values)]))
        lines.extend([""] * draw(st.integers(0, 1)))
    junk_at = draw(st.one_of(st.none(), st.integers(0, len(lines))))
    if junk_at is not None:
        lines.insert(junk_at, draw(st.sampled_from(["junk", "junk 1 2 3 4 5", "junk 1 oops"])))
    return eol.join(lines).encode("utf-8") + eol.encode() * draw(st.integers(0, 2))


def outcome(load, path):
    """What a loader makes of a file: its table, or the error it raised."""
    try:
        table = load(path)
    except EmbeddingFormatError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)
    except UnicodeDecodeError as exc:  # the oracle's text loader
        return UnicodeDecodeError, exc.start
    return table


def within_one_ulp(a: np.ndarray, b: np.ndarray) -> bool:
    gap = np.abs(a.astype(np.float64) - b.astype(np.float64))
    return bool(np.all(gap <= np.spacing(np.maximum(np.abs(a), np.abs(b)))))


def check_against_oracle(path, blob, entries, text, chunk):
    """Load ``blob`` with the streaming loader (reading ``chunk`` bytes at a
    time) and with the oracle, and require the same table or the same error."""
    new, old = (load_text, load_oracle.load_text) if text else (load_binary, load_oracle.load_binary)
    path.write_bytes(blob)
    with mock.patch.object(embeddings, "CHUNK_BYTES", chunk):
        got = outcome(new, path)
    want = outcome(old, path)
    if isinstance(want, tuple) and want[0] is UnicodeDecodeError:
        # The oracle decodes the whole text before parsing it; streaming meets
        # the faults of the lines before the bad byte first.
        start = blob.rfind(b"\n", 0, want[1]) + 1
        path.write_bytes(blob[:start])
        before = outcome(old, path)
        if isinstance(got, tuple) and "not valid UTF-8" in got[1]:
            line = blob[:start].count(b"\n") + 1
            assert got == (EmbeddingFormatError,
                           f"line {line}: not valid UTF-8 (byte offset {want[1]})", None)
            assert not isinstance(before, tuple) or before[1].startswith("header declares")
        else:
            assert got == before
        return
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return
    assert list(got.words()) == list(want.words())
    assert got.load_summary == want.load_summary
    assert got.dim == want.dim
    for word in want.words():
        have, ref = got.lookup(word), want.lookup(word)
        stored_as_found = any(
            np.array_equal(ref, np.float32(values)) for w, values in entries if w.lower() == word
        )
        # Rows the load rules keep as stored are copied bytes; renormalized rows
        # divide by a norm summed in another order, so they may move by one ulp.
        assert np.array_equal(have, ref) if stored_as_found else within_one_ulp(have, ref)


def vocabularies(words=WORDS):
    """Corpus vocabularies: lowercased file words, words no file holds, and a
    capitalized token, which matches no key because keys are lowercased."""
    return st.frozensets(st.sampled_from(sorted({w.lower() for w in words}) + ["absent", "Cat"]))


def check_filter_against_full(path, blob, text, chunk, vocabulary):
    """A load filtered to ``vocabulary`` is the full load of the file's wanted
    entries: it fails exactly as the full load does, or keeps the full load's
    dim and, of its words, those in ``vocabulary``, in order, with bitwise the
    same vectors, and a summary that counts only the wanted entries (as the
    oracle given the vocabulary counts them)."""
    load = load_text if text else load_binary
    oracle = load_oracle.load_text if text else load_oracle.load_binary
    path.write_bytes(blob)
    with mock.patch.object(embeddings, "CHUNK_BYTES", chunk):
        full = outcome(load, path)
        kept = outcome(functools.partial(load, vocabulary=vocabulary), path)
    if isinstance(full, tuple) or isinstance(kept, tuple):
        assert kept == full
        return
    assert kept.load_summary == oracle(path, vocabulary=vocabulary).load_summary
    assert kept.dim == full.dim
    assert list(kept.words()) == [w for w in full.words() if w in vocabulary]
    for word in vocabulary:
        have, want = kept.lookup(word), full.lookup(word)
        assert (have is None) == (want is None)
        assert have is None or have.tobytes() == want.tobytes()


# Chunks of up to 48 B give one-row blocks, where a filtered row's position
# in the narrowed block equals its row in the whole block; chunks of 64 B and
# more give blocks of several rows, where the two differ.
FILTER_CHUNKS = st.integers(1, 48) | st.integers(64, 2048)


class TestLoadersMatchOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.data(), vector_entries(words=BINARY_WORDS), st.integers(1, 48))
    def test_binary(self, data, drawn, chunk):
        dim, entries = drawn
        with tempfile.TemporaryDirectory() as tmp:
            check_against_oracle(Path(tmp) / "v.bin", binary_blob(data.draw, dim, entries),
                                 entries, False, chunk)

    def test_binary_word_that_holds_a_newline(self, tmp_path):
        """The smallest input of ``test_binary`` that a decode stripping every
        newline of the words, not only those before each word, fails: one
        entry whose word is "a\\nb", with no newline after it, and
        ``CHUNK_BYTES`` at 1. The tier1 profile's draws miss it."""
        blob = b"1 1\na\nb " + struct.pack("<f", 1.0)
        check_against_oracle(tmp_path / "v.bin", blob, [("a\nb", [1.0])], False, 1)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), vector_entries(), st.integers(1, 48))
    def test_text(self, data, drawn, chunk):
        dim, entries = drawn
        with tempfile.TemporaryDirectory() as tmp:
            check_against_oracle(Path(tmp) / "v.txt", text_blob(data.draw, dim, entries),
                                 entries, True, chunk)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(1, 24), st.booleans())
    def test_truncated_at_every_byte(self, data, chunk, text):
        dim, entries = data.draw(vector_entries(4, WORDS if text else BINARY_WORDS))
        blob = (text_blob if text else binary_blob)(data.draw, dim, entries)
        with tempfile.TemporaryDirectory() as tmp:
            for cut in range(len(blob) + 1):
                check_against_oracle(Path(tmp) / "v", blob[:cut], entries, text, chunk)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(64, 2048), st.booleans())
    def test_multi_row_blocks(self, data, chunk, text):
        """Chunks of 64 B and more give blocks of several rows, so the load
        rules also meet duplicates and collisions inside one block."""
        dim, entries = data.draw(vector_entries(12, WORDS if text else BINARY_WORDS))
        blob = (text_blob if text else binary_blob)(data.draw, dim, entries)
        with tempfile.TemporaryDirectory() as tmp:
            check_against_oracle(Path(tmp) / "v", blob, entries, text, chunk)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), vector_entries(words=BINARY_WORDS), FILTER_CHUNKS,
           vocabularies(BINARY_WORDS))
    def test_vocabulary_filter_binary(self, data, drawn, chunk, vocabulary):
        dim, entries = drawn
        with tempfile.TemporaryDirectory() as tmp:
            check_filter_against_full(Path(tmp) / "v.bin", binary_blob(data.draw, dim, entries),
                                      False, chunk, vocabulary)

    @settings(max_examples=150, deadline=None)
    @given(st.data(), vector_entries(), FILTER_CHUNKS, vocabularies())
    def test_vocabulary_filter_text(self, data, drawn, chunk, vocabulary):
        dim, entries = drawn
        with tempfile.TemporaryDirectory() as tmp:
            check_filter_against_full(Path(tmp) / "v.txt", text_blob(data.draw, dim, entries),
                                      True, chunk, vocabulary)

    @pytest.mark.parametrize("text", [False, True])
    def test_filtered_off_unit_row_after_an_unwanted_one(self, tmp_path, text):
        """A smallest input of ``test_vocabulary_filter_text``, in both
        layouts, that a filtered load fails if it renormalizes a kept row
        from the unfiltered block's row at the kept row's place: "cat",
        unwanted and zero, then "\u0130", whose key "i\u0307" is wanted and
        whose norm is 2, in one two-row block. The tier1 profile's draws
        miss it."""
        entries = [("cat", [0.0]), ("\u0130", [2.0])]
        blob = (b"cat 0.0\n\xc4\xb0 2.0" if text
                else b"2 1\n" + b"".join(binary_entry(*entry) for entry in entries))
        check_filter_against_full(tmp_path / "v", blob, text, 128, frozenset({"i\u0307"}))

    def test_words_whose_lowercase_changes_length(self, tmp_path):
        """The binary-only words in a fixed file: keys and names sliced at the
        words' places in the file's text would shift after the Kelvin sign
        (3 bytes, lowered to 1) and "\u0130" (1 character, lowered to 2)."""
        entries = [("\u212a", [1.0, 0.0]), ("cat", [0.0, 1.0]), ("a\nb", [3.0, 4.0]),
                   ("\u0130", [0.0, -1.0]), ("k", [-1.0, 0.0]), ("dog", [0.6, 0.8])]
        blob = b"6 2\n" + b"".join(binary_entry(word, values) for word, values in entries)
        for chunk in (32, embeddings.CHUNK_BYTES):
            check_against_oracle(tmp_path / "v.bin", blob, entries, False, chunk)
            check_filter_against_full(tmp_path / "v.bin", blob, False, chunk,
                                      frozenset({"k", "cat", "a\nb", "dog"}))

    @pytest.mark.parametrize("text", [False, True])
    def test_non_finite_reported_before_a_later_format_error(self, tmp_path, text):
        """Both entries sit in one block, which is checked before the error
        in the second entry is raised."""
        if text:
            path = tmp_path / "v.txt"
            path.write_text("a nan 1\nb 1 oops\n", encoding="utf-8")
        else:
            path = tmp_path / "v.bin"
            path.write_bytes(b"3 2\n" + binary_entry("a", [math.nan, 1]) + b"b " + b"\0" * 4)
        where = "line 1" if text else "entry 0 ('a')"
        with pytest.raises(EmbeddingFormatError, match=re.escape(f"value at {where}")):
            (load_text if text else load_binary)(path, vocabulary=set())

    @pytest.mark.parametrize("text", [False, True])
    def test_non_finite_outside_vocabulary_fails(self, tmp_path, text):
        """A NaN in an entry no wanted word reaches fails the load, also in a
        later fill and in a block that holds no wanted row."""
        entries = [(f"w{i:03d}", [1.0, 0.0, 0.0, 0.0]) for i in range(60)]
        entries[41] = ("w041", [0.0, math.nan, 0.0, 0.0])
        path = write_entries(tmp_path, entries, text)
        where = "line 42" if text else "entry 41 ('w041')"
        message = re.escape(f"non-finite vector value at {where}")
        # 64 B: one-row blocks and fills of two binary entries; 512 B: two-row
        # blocks, and the bad entry in the second fill; 4096 B: 16-row blocks
        # in one fill; the default: one block of every row.
        for chunk in (64, 512, 4096, embeddings.CHUNK_BYTES):
            with mock.patch.object(embeddings, "CHUNK_BYTES", chunk):
                with pytest.raises(EmbeddingFormatError, match=message):
                    (load_text if text else load_binary)(path, vocabulary={"w000", "w059"})

    @pytest.mark.parametrize("vocabulary", [None, {"big", "mixed"}])
    @pytest.mark.parametrize("text", [False, True])
    def test_finite_rows_whose_sum_overflows_load(self, tmp_path, text, vocabulary):
        """Finite values whose float32 sum (or sum of squares) overflows are
        finite rows: they load and are renormalized as the oracle does. "cat"
        comes first, so a filtered load's rows are not the block's rows."""
        entries = [("cat", [1.0, 0.0]), ("big", [3e38, 3e38]), ("mixed", [-3e38, 3e38])]
        path = write_entries(tmp_path, entries, text)
        table = (load_text if text else load_binary)(path, vocabulary=vocabulary)
        want = (load_oracle.load_text if text else load_oracle.load_binary)(path, vocabulary)
        assert list(table.words()) == list(want.words())
        half = np.float32(math.sqrt(0.5))
        for word, expected in (("big", [half, half]), ("mixed", [-half, half])):
            assert table.lookup(word).tobytes() == np.array(expected, np.float32).tobytes()
            assert within_one_ulp(table.lookup(word), want.lookup(word))

    @pytest.mark.parametrize("vocabulary", [None, {"cat", "zero"}])
    @pytest.mark.parametrize("text", [False, True])
    def test_load_summary_counts_are_python_ints(self, tmp_path, text, vocabulary):
        """Every count is a Python int: a numpy integer fails ``json.dump``."""
        entries = [("cat", [1.0, 0.0]), ("Cat", [0.0, 1.0]), ("cat", [0.0, 2.0]),
                   ("zero", [0.0, 0.0]), ("dog", [3.0, 4.0])]
        path = write_entries(tmp_path, entries, text)
        summary = (load_text if text else load_binary)(path, vocabulary=vocabulary).load_summary
        assert dataclasses.asdict(summary) == {"duplicates": 1, "case_collisions": 1,
                                               "zero_dropped": 1}
        assert all(type(count) is int for count in dataclasses.asdict(summary).values())


def write_entries(tmp_path, entries, text: bool) -> Path:
    """``entries`` as a headerless text file or as a binary file."""
    if not text:
        return write_binary(tmp_path / "v.bin", entries)
    path = tmp_path / "v.txt"
    path.write_text("".join(" ".join([word, *map(repr, np.float32(values).tolist())]) + "\n"
                            for word, values in entries), encoding="utf-8")
    return path


def write_random_binary(path, n: int, dim: int = 300) -> int:
    """Write ``n`` non-unit random entries; returns the float32 payload in bytes."""
    rng = np.random.default_rng(n)
    records = np.zeros(n, dtype=[("word", "S9"), ("vec", "<f4", dim), ("eol", "S1")])
    records["word"] = [f"w{i:07d} ".encode() for i in range(n)]
    records["vec"] = rng.standard_normal((n, dim)) * 3
    records["eol"] = b"\n"
    with open(path, "wb") as fh:
        fh.write(f"{n} {dim}\n".encode())
        fh.write(records.tobytes())
    return n * dim * 4


class TestBoundedMemory:
    def test_load_temporaries_do_not_grow_with_vocabulary(self, tmp_path):
        """Peak traced memory inside load_binary, less what the returned table
        holds (the float32 payload and the word index), stays flat as the file
        grows: the read buffer, norms and renormalized rows work in chunks."""
        overhead, payload = {}, {}
        for n in (20_000, 60_000):
            path = tmp_path / f"{n}.bin"
            payload[n] = write_random_binary(path, n)
            tracemalloc.start()
            try:
                table = load_binary(path)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert table.size == n and held >= payload[n]
            overhead[n] = peak - held
            del table
        added = payload[60_000] - payload[20_000]
        assert overhead[60_000] - overhead[20_000] <= 0.1 * added

    def test_filtered_load_holds_only_the_key_index(self, tmp_path):
        """Loading 100 wanted words peaks well under the payload, and the peak
        does not grow with the file's key count: neither the rows nor the keys
        of other words are kept. Short vectors and a 64 KiB read buffer make a
        set of the file's keys the largest thing such a load could hold."""
        wanted = {f"w{i:07d}" for i in range(0, 20_000, 200)}
        peak, payload = {}, {}
        for n in (20_000, 60_000):
            path = tmp_path / f"{n}.bin"
            payload[n] = write_random_binary(path, n, dim=16)
            tracemalloc.start()
            try:
                with mock.patch.object(embeddings, "CHUNK_BYTES", 1 << 16):
                    table = load_binary(path, vocabulary=wanted)
                peak[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert set(table.words()) == wanted
            del table
        # A full load's peak is at least its payload, which the table holds.
        assert peak[60_000] < payload[60_000] / 3
        index_growth = key_index_peak(60_000) - key_index_peak(20_000)
        assert peak[60_000] - peak[20_000] <= 0.1 * index_growth


    def test_headerless_text_table_keeps_only_its_rows(self, tmp_path):
        """A text file without a header grows its matrix as it reads, yet its
        table holds no more than that of the same file with a header. 129 rows
        are one past a doubling, so a matrix kept at its grown size would hold
        almost twice the payload."""
        n, dim = 129, 64
        vectors = np.random.default_rng(n).standard_normal((n, dim)).astype(np.float32)
        lines = "".join(f"w{i:03d} " + " ".join(map(str, row)) + "\n"
                        for i, row in enumerate(vectors.tolist()))
        held = {}
        for header in ("", f"{n} {dim}\n"):
            path = tmp_path / f"{len(header)}.txt"
            path.write_text(header + lines, encoding="utf-8")
            with mock.patch.object(embeddings, "CHUNK_BYTES", 1 << 16):
                load_text(path)  # warms the loader's one-off caches untraced
                tracemalloc.start()
                try:
                    table = load_text(path)
                    held[bool(header)] = tracemalloc.get_traced_memory()[0]
                finally:
                    tracemalloc.stop()
            assert table.size == n
            del table
        payload = vectors.nbytes
        assert held[True] >= payload
        assert abs(held[False] - held[True]) <= 0.1 * payload


def key_index_peak(n: int) -> int:
    """Traced peak of a dict from each of ``n`` lowercased keys to itself."""
    tracemalloc.start()
    try:
        index = {}
        for i in range(n):
            key = f"W{i:07d}".lower()
            index[key] = key
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
