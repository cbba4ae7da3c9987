"""Pre-trained word vector storage: loading, lookup, and n-gram composition.

A table is one read-only float32 matrix of shape ``(rows, dim)`` and a dict
from lowercased word to row; ``lookup`` returns a row view. Two on-disk
layouts are supported:

* binary: ASCII header ``"<vocab_size> <dim>\\n"``, then per entry the
  UTF-8 word bytes terminated by a single space (0x20) followed by ``dim``
  little-endian float32 values; a trailing newline (0x0A) after the floats
  is tolerated and skipped.
* text: optional ``"<vocab_size> <dim>"`` header line, then one
  whitespace-separated ``word v1 ... vd`` entry per line.

Both loaders stream the file through one reusable float32 block of
``CHUNK_BYTES / 16`` (256 KiB); the binary loader reads ``CHUNK_BYTES`` at a
time and copies vector bytes straight into the block. One build step runs on
every block, for both formats: a NaN or infinity fails naming its entry or
line, zero vectors are dropped, and the key rules apply over every key of
the file. Keys are lowercased: an exact repeat of one source form is
last-wins, distinct forms that collide after lowercasing are first-wins
(pre-trained files list higher-frequency forms first). Only then are rows
copied out, renormalized unless already unit norm within 1e-6 (which makes
load -> save -> load a bitwise fixed point), and, when the loader is given a
``vocabulary``, only the rows of keys in it. ``load_summary`` counts the
whole file either way, and a kept vector is bitwise the same either way.
Peak memory is the kept rows, a few chunks and blocks, and a key index over
the whole file: about the float32 payload for a full load, and a small
fraction of it for a corpus's vocabulary.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Collection, Iterable, Iterator, Sequence

import numpy as np

logger = logging.getLogger(__name__)

NORM_TOLERANCE = 1e-6
ZERO_NORM_TOLERANCE = 1e-12
# glibc raises its mmap threshold to the size of the largest mmapped block
# freed, so 4 MiB read buffers leave the similarity matrices of later scoring
# on the heap: with 1 MiB buffers, four WE scorings of the benchmark's corpus
# took 60k minor page faults instead of under 1k, and ~25 % longer.
CHUNK_BYTES = 1 << 22


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
    """word -> unit vector map of one fixed dimension, stored as matrix rows."""

    dim: int
    _matrix: np.ndarray = field(repr=False)
    _index: dict[str, int] = field(repr=False)
    load_summary: LoadSummary = field(default_factory=LoadSummary)

    @property
    def size(self) -> int:
        return len(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def words(self) -> Iterable[str]:
        return self._index.keys()

    def lookup(self, word: str) -> np.ndarray | None:
        """Exact-string lookup; None marks out-of-vocabulary."""
        row = self._index.get(word)
        return None if row is None else self._matrix[row]

    def compose(self, words: Sequence[str]) -> np.ndarray | None:
        """Element-wise product of the constituent word vectors, renormalized.

        Returns None (OOV) when any constituent is missing or the raw
        product has no usable direction (norm below tolerance). Factors
        are multiplied in sorted word order so permuting the constituents
        gives a bitwise-identical result; a single word returns its stored
        row, uncopied.
        """
        if not words:
            raise ValueError("compose requires at least one word")
        if len(words) == 1:
            return self.lookup(words[0])
        vectors = []
        for word in sorted(words):
            vec = self.lookup(word)
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
    """Applies the load rules to entries streamed through one reusable block.

    A loader puts each entry's vector in the next row of ``block`` and its
    word in ``words``, and calls ``flush`` whenever the block is ``full`` and
    once at the end. The block, its float64 copy and the norms are reused for
    the whole load. With ``normalize`` off, zero vectors are kept and vectors
    are stored as found, which waives the unit-norm invariant.
    """

    def __init__(self, dim: int, normalize: bool, vocabulary: Collection[str] | None,
                 capacity: int):
        # 256 KiB, so that the block and its float64 copy stay in cache from
        # the read to the norms: on a Xeon with 2 MiB of L2 per core, 1 MiB
        # blocks loaded about 15 % slower.
        rows = max(1, CHUNK_BYTES // (64 * max(1, dim)))
        self.dim = dim
        self.block = np.empty((rows, dim), dtype="<f4")
        self.words: list[str] = []
        self.entries = 0  # rows flushed so far
        self._wide = np.empty((rows, dim))
        self._norms = np.empty(rows)
        self._normalize = normalize
        self._wanted = None if vocabulary is None else frozenset(vocabulary)
        if self._wanted is not None:
            capacity = min(capacity, len(self._wanted))
        self._forms: dict[str, str] = {}  # every kept key -> its first source form
        self._index: dict[str, int] = {}  # every wanted key -> its output row
        self._matrix = np.empty((capacity, dim), dtype=np.float32)
        self.summary = LoadSummary()

    @property
    def full(self) -> bool:
        return len(self.words) == len(self.block)

    def add(self, word: str, values: Sequence[float] | np.ndarray) -> None:
        self.block[len(self.words)] = values
        self.words.append(word)

    def flush(self, where: Callable[[int], str]) -> None:
        """Check the block's rows, apply the load rules, copy out the wanted
        rows and empty the block; ``where(i)`` names block row ``i``."""
        n = len(self.words)
        block, wide, norms = self.block[:n], self._wide[:n], self._norms[:n]
        np.copyto(wide, block)
        np.einsum("ij,ij->i", wide, wide, out=norms)
        np.sqrt(norms, out=norms)
        # float32 squares cannot overflow float64, so a row's norm is finite
        # exactly when its values are.
        bad = np.flatnonzero(~np.isfinite(norms))
        if bad.size:
            raise EmbeddingFormatError(f"non-finite vector value at {where(int(bad[0]))}")
        kept = (np.flatnonzero(norms >= ZERO_NORM_TOLERANCE).tolist() if self._normalize
                else range(n))
        summary, words, forms, index, wanted = (
            self.summary, self.words, self._forms, self._index, self._wanted)
        summary.zero_dropped += n - len(kept)
        take: dict[int, int] = {}  # output row -> block row; a later duplicate replaces
        for row in kept:
            raw = words[row]
            key = raw.lower()
            first = forms.get(key)
            if first is None:
                forms[key] = key if key == raw else raw  # hold each word once
                if wanted is None or key in wanted:
                    slot = index[key] = len(index)
                    take[slot] = row
            elif first == raw:
                summary.duplicates += 1
                slot = index.get(key)
                if slot is not None:
                    take[slot] = row
            else:
                summary.case_collisions += 1
        if take:
            if len(self._index) > len(self._matrix):
                grown = np.empty((max(len(self._index), 2 * len(self._matrix)), self.dim),
                                 dtype=np.float32)
                grown[:len(self._matrix)] = self._matrix
                self._matrix = grown
            slots = np.fromiter(take.keys(), np.intp, len(take))
            rows = np.fromiter(take.values(), np.intp, len(take))
            self._matrix[slots] = block[rows]
            if self._normalize:
                off = np.abs(norms[rows] - 1.0) > NORM_TOLERANCE
                slots, rows = slots[off], rows[off]
                self._matrix[slots] = wide[rows] / norms[rows, None]
        self.entries += n
        self.words.clear()

    def table(self) -> EmbeddingTable:
        summary = self.summary
        if summary.duplicates or summary.case_collisions or summary.zero_dropped:
            logger.warning(
                "embedding load: %d duplicate words (last kept), %d case collisions "
                "(first kept), %d zero vectors dropped",
                summary.duplicates, summary.case_collisions, summary.zero_dropped,
            )
        matrix = self._matrix[:len(self._index)]
        matrix.setflags(write=False)
        return EmbeddingTable(dim=self.dim, _matrix=matrix, _index=self._index,
                              load_summary=summary)


def load_binary(path: str | Path, normalize: bool = True,
                vocabulary: Collection[str] | None = None) -> EmbeddingTable:
    """Load a binary-format embedding file. See the module docstring for layout.

    With a ``vocabulary``, only the vectors of keys in it are kept.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        if not header.endswith(b"\n"):
            raise EmbeddingFormatError("missing header line")
        try:
            fields = header[:-1].split()
            if len(fields) != 2:
                raise ValueError
            vocab_size, dim = int(fields[0]), int(fields[1])
            if vocab_size < 0 or dim < 1:
                raise ValueError
        except ValueError:
            raise EmbeddingFormatError(
                f"malformed header {header[:-1]!r}: expected '<vocab_size> <dim>'"
            ) from None
        # Every entry takes at least a one-byte word, its space and the vector,
        # so the file's size caps the rows a header can make us allocate.
        payload = os.fstat(fh.fileno()).st_size - len(header)
        builder = _TableBuilder(dim, normalize, vocabulary,
                                min(vocab_size, payload // (4 * dim + 2)))

        def where(row: int) -> str:
            return f"entry {builder.entries + row} ({builder.words[row]!r})"

        try:
            _read_entries(fh, len(header), vocab_size, builder, where)
        except EmbeddingFormatError:
            # A bad value in an earlier entry is reported first; when the
            # error is that value's, this flush raises it again.
            builder.flush(where)
            raise
    return builder.table()


def _read_entries(fh: BinaryIO, offset: int, count: int, builder: _TableBuilder,
                  where: Callable[[int], str]) -> None:
    """Stream ``count`` binary entries from ``fh`` through ``builder``.

    ``offset`` is the file position of the next byte of ``fh``. Chunks of
    CHUNK_BYTES are read as needed; the unparsed tail of one chunk is carried
    over to the next.
    """
    vector_bytes = 4 * builder.dim
    out = memoryview(builder.block).cast("B")
    words = builder.words
    rows = len(builder.block)
    row = 0
    buf = fh.read(CHUNK_BYTES)
    view = memoryview(buf)
    eof = not buf
    pos = 0
    for i in range(count):
        while True:
            end = len(buf)
            while pos < end and buf[pos] == 0x0A:
                pos += 1
            word_end = buf.find(b" ", pos)
            if eof or (word_end >= 0 and word_end + vector_bytes < end):
                break
            more = fh.read(CHUNK_BYTES)
            eof = not more
            offset += pos
            buf = buf[pos:] + more
            view = memoryview(buf)
            pos = 0
        if word_end < 0:
            raise EmbeddingTruncationError(f"file ends inside word of entry {i}", offset + pos)
        if word_end == pos:
            raise EmbeddingFormatError(f"entry {i}: empty word at byte {offset + pos}")
        try:
            word = buf[pos:word_end].decode("utf-8")
        except UnicodeDecodeError:
            raise EmbeddingFormatError(f"entry {i}: word bytes are not valid UTF-8") from None
        pos = word_end + 1
        if pos + vector_bytes > len(buf):
            raise EmbeddingTruncationError(
                f"file ends inside vector of entry {i} ({word!r})", offset + pos
            )
        out[row * vector_bytes:(row + 1) * vector_bytes] = view[pos:pos + vector_bytes]
        pos += vector_bytes
        words.append(word)
        row += 1
        if row == rows:
            builder.flush(where)
            row = 0
    builder.flush(where)
    tail = buf[pos:]
    while not tail.strip(b"\n"):
        tail = fh.read(CHUNK_BYTES)
        if not tail:
            return
    raise EmbeddingFormatError(f"trailing garbage after {count} entries at byte {offset + pos}")


def _text_lines(fh: BinaryIO) -> Iterator[tuple[int, str]]:
    """Yield (line number, line) for a UTF-8 file, split as ``str.splitlines``
    splits the whole text (UTF-8 never puts 0x0A inside a character)."""
    lineno = offset = 0
    for raw in fh:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EmbeddingFormatError(
                f"line {lineno + 1}: not valid UTF-8 (byte offset {offset + exc.start})"
            ) from None
        for line in text.splitlines():
            lineno += 1
            yield lineno, line
        offset += len(raw)


def load_text(path: str | Path, normalize: bool = True,
              vocabulary: Collection[str] | None = None) -> EmbeddingTable:
    """Load a text-format embedding file (optional header line).

    With a ``vocabulary``, only the vectors of keys in it are kept.
    """
    declared: tuple[int, int] | None = None
    builder: _TableBuilder | None = None
    linenos: list[int] = []  # the line of each row in the builder's block

    def where(row: int) -> str:
        return f"line {linenos[row]}"

    # Values that overflow float32 become infinities and fail as non-finite.
    with open(path, "rb") as fh, np.errstate(over="ignore"):
        try:
            for lineno, line in _text_lines(fh):
                fields = line.split()
                if lineno == 1 and len(fields) == 2:
                    try:
                        declared = (int(fields[0]), int(fields[1]))
                        continue
                    except ValueError:
                        pass
                if not fields:
                    continue
                word, raw_values = fields[0], fields[1:]
                if builder is None:
                    dim = len(raw_values)
                    if dim < 1:
                        raise EmbeddingFormatError(f"line {lineno}: no vector values")
                    if declared is not None and dim != declared[1]:
                        raise EmbeddingFormatError(
                            f"line {lineno}: dimension {dim} does not match header {declared[1]}"
                        )
                    # An entry takes at least a word and dim spaced values, so
                    # the file's size caps the rows a header can make us allocate.
                    capacity = 0 if declared is None else min(
                        declared[0], os.fstat(fh.fileno()).st_size // (2 * dim + 1))
                    builder = _TableBuilder(dim, normalize, vocabulary, capacity)
                if len(raw_values) != builder.dim:
                    raise EmbeddingFormatError(
                        f"line {lineno}: expected {builder.dim} values, found {len(raw_values)}"
                    )
                try:
                    builder.add(word, list(map(float, raw_values)))
                except ValueError:
                    raise EmbeddingFormatError(f"line {lineno}: non-numeric vector value") from None
                linenos.append(lineno)
                if builder.full:
                    builder.flush(where)
                    linenos.clear()
            if builder is None:
                builder = _TableBuilder(declared[1] if declared else 0, normalize, vocabulary, 0)
            builder.flush(where)
            if declared is not None and builder.entries != declared[0]:
                raise EmbeddingFormatError(
                    f"header declares {declared[0]} entries but file has {builder.entries}"
                )
        except EmbeddingFormatError:
            # A bad value in an earlier line is reported first; when the error
            # is that value's, this flush raises it again.
            if builder is not None:
                builder.flush(where)
            raise
    return builder.table()


# The file layouts; layout F is read by load_F.
FORMATS = ("binary", "text")


def save_binary(table: EmbeddingTable, path: str | Path) -> None:
    """Serialize a table in the binary layout (inverse of load_binary)."""
    with open(path, "wb") as fh:
        fh.write(f"{table.size} {table.dim}\n".encode("ascii"))
        for word in table.words():
            vec = table.lookup(word)
            fh.write(word.encode("utf-8") + b" ")
            fh.write(np.asarray(vec, dtype="<f4").tobytes())
            fh.write(b"\n")
