import math
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rougewe.embeddings import (
    EmbeddingFormatError,
    EmbeddingTruncationError,
    load_binary,
    load_text,
    save_binary,
)
from rougewe.rouge import MatchFunction, soft_overlap

from conftest import make_table


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
        path = write_binary(tmp_path / "v.bin", [("cat", [1, 0]), ("cat", [0, 1])])
        table = load_binary(path)
        assert table.size == 1
        assert np.array_equal(table.lookup("cat"), np.array([0, 1], dtype=np.float32))
        assert table.load_summary.duplicates == 1

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

    def test_no_normalize_keeps_raw(self, tmp_path):
        path = write_binary(tmp_path / "v.bin", [("dog", [0, 3, 4])])
        table = load_binary(path, normalize=False)
        assert np.array_equal(table.lookup("dog"), np.array([0, 3, 4], dtype=np.float32))


class TestRoundTrip:
    def test_load_save_load_fixed_point(self, tmp_path):
        path = write_binary(tmp_path / "v.bin", [("cat", [0.3, -1.2, 0.05]), ("dog", [2, 2, 1])])
        first = load_binary(path)
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
        assert table.compose(("cat",)) is table.lookup("cat")

    def test_compose_pair(self):
        table = make_table({"a": [0.6, 0.8], "b": [0.8, 0.6]})
        composed = table.compose(("a", "b"))
        assert composed == pytest.approx([1 / math.sqrt(2)] * 2, abs=1e-6)

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
