"""Per-entry embedding loaders: the reference the streaming loaders are checked against.

``rougewe.embeddings`` streams a file into one float32 matrix and applies the
load rules to all rows at once; this module keeps the plain loaders that read
the whole file and insert one vector at a time into a dict, so tests can
compare word order, load summaries, errors and vectors entry by entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection

import numpy as np

from rougewe.embeddings import (
    NORM_TOLERANCE,
    ZERO_NORM_TOLERANCE,
    EmbeddingFormatError,
    EmbeddingTruncationError,
    LoadSummary,
)


@dataclass
class OracleTable:
    dim: int
    vectors: dict[str, np.ndarray] = field(default_factory=dict)
    load_summary: LoadSummary = field(default_factory=LoadSummary)

    def words(self):
        return self.vectors.keys()

    def lookup(self, word: str) -> np.ndarray | None:
        return self.vectors.get(word)


class _TableBuilder:
    """Keys are lowercased. An exact repeat of the same source form is
    last-wins; distinct source forms that collide after lowercasing are
    first-wins. Zero vectors are dropped; the others are renormalized unless
    already unit within NORM_TOLERANCE. Given a ``vocabulary``, an entry whose
    key is not in it is only checked to be finite, then skipped."""

    def __init__(self, dim: int, vocabulary: Collection[str] | None = None):
        self.table = OracleTable(dim)
        self.source_form: dict[str, str] = {}
        self.vocabulary = vocabulary

    def add(self, raw_word: str, values: np.ndarray, where: str) -> None:
        if not np.isfinite(values).all():
            raise EmbeddingFormatError(f"non-finite vector value at {where}")
        if self.vocabulary is not None and raw_word.lower() not in self.vocabulary:
            return
        vec = values.astype(np.float32, copy=True)
        summary = self.table.load_summary
        norm = float(np.linalg.norm(vec.astype(np.float64)))
        if norm < ZERO_NORM_TOLERANCE:
            summary.zero_dropped += 1
            return
        if abs(norm - 1.0) > NORM_TOLERANCE:
            vec = (vec.astype(np.float64) / norm).astype(np.float32)
        key = raw_word.lower()
        vectors = self.table.vectors
        if key not in vectors:
            vectors[key] = vec
            self.source_form[key] = raw_word
        elif raw_word == self.source_form[key]:
            summary.duplicates += 1
            vectors[key] = vec
        else:
            summary.case_collisions += 1


def load_binary(path: str | Path, vocabulary: Collection[str] | None = None) -> OracleTable:
    data = Path(path).read_bytes()
    header_end = data.find(b"\n")
    if header_end < 0:
        raise EmbeddingFormatError("missing header line")
    try:
        fields = data[:header_end].split()
        if len(fields) != 2:
            raise ValueError
        vocab_size, dim = int(fields[0]), int(fields[1])
        if vocab_size < 0 or dim < 1:
            raise ValueError
    except ValueError:
        raise EmbeddingFormatError(
            f"malformed header {data[:header_end]!r}: expected '<vocab_size> <dim>'"
        ) from None

    builder = _TableBuilder(dim, vocabulary)
    pos = header_end + 1
    vector_bytes = 4 * dim
    for i in range(vocab_size):
        while pos < len(data) and data[pos] == 0x0A:
            pos += 1
        word_end = data.find(b" ", pos)
        if word_end < 0:
            raise EmbeddingTruncationError(f"file ends inside word of entry {i}", pos)
        if word_end == pos:
            raise EmbeddingFormatError(f"entry {i}: empty word at byte {pos}")
        try:
            word = data[pos:word_end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EmbeddingFormatError(
                f"entry {i}: word bytes are not valid UTF-8 (byte offset {pos + exc.start})"
            ) from None
        pos = word_end + 1
        if pos + vector_bytes > len(data):
            raise EmbeddingTruncationError(f"file ends inside vector of entry {i} ({word!r})", pos)
        values = np.frombuffer(data, dtype="<f4", count=dim, offset=pos)
        pos += vector_bytes
        builder.add(word, values, where=f"entry {i} ({word!r})")
    if data[pos:].strip(b"\n"):
        raise EmbeddingFormatError(f"trailing garbage after {vocab_size} entries at byte {pos}")
    return builder.table


def load_text(path: str | Path, vocabulary: Collection[str] | None = None) -> OracleTable:
    lines = Path(path).read_text(encoding="utf-8").removeprefix("\ufeff").splitlines()
    declared: tuple[int, int] | None = None
    start = 0
    if lines:
        fields = lines[0].split()
        if len(fields) == 2:
            try:
                declared = (int(fields[0]), int(fields[1]))
                start = 1
            except ValueError:
                declared = None
            if declared is not None and (declared[0] < 0 or declared[1] < 1):
                raise EmbeddingFormatError(f"line 1: malformed header {lines[0].strip()!r}")

    builder: _TableBuilder | None = None
    n_entries = 0
    for lineno in range(start, len(lines)):
        fields = lines[lineno].split()
        if not fields:
            continue
        word, raw_values = fields[0], fields[1:]
        if builder is None:
            dim = len(raw_values)
            if dim < 1:
                raise EmbeddingFormatError(f"line {lineno + 1}: no vector values")
            if declared is not None and dim != declared[1]:
                raise EmbeddingFormatError(
                    f"line {lineno + 1}: dimension {dim} does not match header {declared[1]}"
                )
            builder = _TableBuilder(dim, vocabulary)
        if len(raw_values) != builder.table.dim:
            raise EmbeddingFormatError(
                f"line {lineno + 1}: expected {builder.table.dim} values, found {len(raw_values)}"
            )
        try:
            values = np.array([float(v) for v in raw_values], dtype=np.float64)
        except ValueError:
            raise EmbeddingFormatError(f"line {lineno + 1}: non-numeric vector value") from None
        builder.add(word, values, where=f"line {lineno + 1}")
        n_entries += 1

    if builder is None:
        builder = _TableBuilder(declared[1] if declared is not None else 0, vocabulary)
    if declared is not None and n_entries != declared[0]:
        raise EmbeddingFormatError(
            f"header declares {declared[0]} entries but file has {n_entries}"
        )
    return builder.table
