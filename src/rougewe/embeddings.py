"""Pre-trained word vector storage: loading, lookup, and n-gram composition.

Tables are immutable after load and hold unit-L2 float32 vectors keyed by
lowercased word. Two on-disk layouts are supported:

* binary: ASCII header ``"<vocab_size> <dim>\\n"``, then per entry the
  UTF-8 word bytes terminated by a single space (0x20) followed by ``dim``
  little-endian float32 values; a trailing newline (0x0A) after the floats
  is tolerated and skipped.
* text: optional ``"<vocab_size> <dim>"`` header line, then one
  whitespace-separated ``word v1 ... vd`` entry per line.

Vectors are renormalized at load unless they are already unit norm within
1e-6, which makes load -> save -> load a bitwise fixed point.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

logger = logging.getLogger(__name__)

NORM_TOLERANCE = 1e-6
ZERO_NORM_TOLERANCE = 1e-12


class EmbeddingFormatError(ValueError):
    """The file does not follow the declared embedding layout."""


class EmbeddingTruncationError(EmbeddingFormatError):
    """The payload ended mid-entry; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass
class LoadSummary:
    """Counts of non-fatal oddities encountered while loading."""

    duplicates: int = 0
    case_collisions: int = 0
    zero_dropped: int = 0


@dataclass
class EmbeddingTable:
    """word -> unit vector map of one fixed dimension."""

    dim: int
    _vectors: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    load_summary: LoadSummary = field(default_factory=LoadSummary)

    @property
    def size(self) -> int:
        return len(self._vectors)

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, word: str) -> bool:
        return word in self._vectors

    def words(self) -> Iterable[str]:
        return self._vectors.keys()

    def lookup(self, word: str) -> np.ndarray | None:
        """Exact-string lookup; None marks out-of-vocabulary."""
        return self._vectors.get(word)

    def compose(self, words: Sequence[str]) -> np.ndarray | None:
        """Element-wise product of the constituent word vectors, renormalized.

        Returns None (OOV) when any constituent is missing or the raw
        product has no usable direction (norm below tolerance). Factors
        are multiplied in sorted word order so permuting the constituents
        gives a bitwise-identical result; a single word returns the stored
        vector itself.
        """
        if not words:
            raise ValueError("compose requires at least one word")
        if len(words) == 1:
            return self._vectors.get(words[0])
        vectors = []
        for word in sorted(words):
            vec = self._vectors.get(word)
            if vec is None:
                return None
            vectors.append(vec)
        product = vectors[0].astype(np.float64)
        for vec in vectors[1:]:
            product = product * vec
        norm = float(np.linalg.norm(product))
        if norm < ZERO_NORM_TOLERANCE:
            return None
        product /= norm
        product.setflags(write=False)
        return product


class _TableBuilder:
    """Shared insertion policy for both loaders.

    Keys are lowercased. An exact repeat of the same source form is
    last-wins; distinct source forms that collide after lowercasing are
    first-wins (pre-trained files list higher-frequency forms first).
    Zero vectors are dropped. With ``normalize`` off, vectors are stored
    as found and the unit-norm invariant is waived.
    """

    def __init__(self, dim: int, normalize: bool):
        self.dim = dim
        self.normalize = normalize
        self.vectors: dict[str, np.ndarray] = {}
        self.source_form: dict[str, str] = {}
        self.summary = LoadSummary()

    def add(self, raw_word: str, values: np.ndarray, where: str) -> None:
        if not np.isfinite(values).all():
            raise EmbeddingFormatError(f"non-finite vector value at {where}")
        vec = values.astype(np.float32, copy=True)
        if self.normalize:
            norm = float(np.linalg.norm(vec.astype(np.float64)))
            if norm < ZERO_NORM_TOLERANCE:
                self.summary.zero_dropped += 1
                return
            if abs(norm - 1.0) > NORM_TOLERANCE:
                vec = (vec.astype(np.float64) / norm).astype(np.float32)
        vec.setflags(write=False)
        key = raw_word.lower()
        if key not in self.vectors:
            self.vectors[key] = vec
            self.source_form[key] = raw_word
        elif raw_word == self.source_form[key]:
            self.summary.duplicates += 1
            self.vectors[key] = vec
        else:
            self.summary.case_collisions += 1

    def build(self) -> EmbeddingTable:
        s = self.summary
        if s.duplicates or s.case_collisions or s.zero_dropped:
            logger.warning(
                "embedding load: %d duplicate words (last kept), %d case collisions "
                "(first kept), %d zero vectors dropped",
                s.duplicates, s.case_collisions, s.zero_dropped,
            )
        return EmbeddingTable(dim=self.dim, _vectors=self.vectors, load_summary=s)


def load_binary(path: str | Path, normalize: bool = True) -> EmbeddingTable:
    """Load a binary-format embedding file. See the module docstring for layout."""
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

    builder = _TableBuilder(dim, normalize)
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
        except UnicodeDecodeError:
            raise EmbeddingFormatError(f"entry {i}: word bytes are not valid UTF-8") from None
        pos = word_end + 1
        if pos + vector_bytes > len(data):
            raise EmbeddingTruncationError(f"file ends inside vector of entry {i} ({word!r})", pos)
        values = np.frombuffer(data, dtype="<f4", count=dim, offset=pos)
        pos += vector_bytes
        builder.add(word, values, where=f"entry {i} ({word!r})")
    if data[pos:].strip(b"\n"):
        raise EmbeddingFormatError(f"trailing garbage after {vocab_size} entries at byte {pos}")
    return builder.build()


def load_text(path: str | Path, normalize: bool = True) -> EmbeddingTable:
    """Load a text-format embedding file (optional header line)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
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
            builder = _TableBuilder(dim, normalize)
        if len(raw_values) != builder.dim:
            raise EmbeddingFormatError(
                f"line {lineno + 1}: expected {builder.dim} values, found {len(raw_values)}"
            )
        try:
            values = np.array([float(v) for v in raw_values], dtype=np.float64)
        except ValueError:
            raise EmbeddingFormatError(f"line {lineno + 1}: non-numeric vector value") from None
        builder.add(word, values, where=f"line {lineno + 1}")
        n_entries += 1

    if builder is None:
        dim = declared[1] if declared is not None else 0
        builder = _TableBuilder(dim, normalize)
    if declared is not None and n_entries != declared[0]:
        raise EmbeddingFormatError(
            f"header declares {declared[0]} entries but file has {n_entries}"
        )
    return builder.build()


def save_binary(table: EmbeddingTable, path: str | Path) -> None:
    """Serialize a table in the binary layout (inverse of load_binary)."""
    with open(path, "wb") as fh:
        fh.write(f"{table.size} {table.dim}\n".encode("ascii"))
        for word in table.words():
            vec = table.lookup(word)
            fh.write(word.encode("utf-8") + b" ")
            fh.write(np.asarray(vec, dtype="<f4").tobytes())
            fh.write(b"\n")
