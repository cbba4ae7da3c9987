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

Both loaders stream the file. The binary loader reads ``CHUNK_BYTES`` at a
time and copies each vector's bytes straight into a matrix sized from the
header, so peak memory is about the float32 payload plus a few chunks and
the word index. The text loader parses lines into row blocks and joins them
once, so its peak is about twice the payload.
One build step then runs for both, in row blocks of about ``CHUNK_BYTES`` of
float64: a NaN or infinity fails naming its entry or line, zero vectors are
dropped, and vectors are renormalized unless they are already unit norm
within 1e-6, which makes load -> save -> load a bitwise fixed point. Keys
are lowercased: an exact repeat of one source form is last-wins, distinct
forms that collide after lowercasing are first-wins (pre-trained files list
higher-frequency forms first). Rows these rules leave unreachable stay in
the matrix.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

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


def _scan_rows(matrix: np.ndarray, where: Callable[[int], str], normalize: bool) -> np.ndarray:
    """Return the float64 L2 norm of every row, computed in row blocks.

    Raises naming the first row that holds a NaN or infinity (float32 squares
    cannot overflow float64, so a row's norm is finite exactly when its values
    are). With ``normalize``, every row whose norm is neither below
    ZERO_NORM_TOLERANCE nor within NORM_TOLERANCE of 1 is divided by it in
    float64 and stored back as float32.
    """
    norms = np.empty(len(matrix))
    step = max(1, CHUNK_BYTES // (8 * max(1, matrix.shape[1])))
    for start in range(0, len(matrix), step):
        block = matrix[start:start + step]
        wide = block.astype(np.float64)
        norm = norms[start:start + step]
        np.sqrt(np.einsum("ij,ij->i", wide, wide), out=norm)
        bad = np.flatnonzero(~np.isfinite(norm))
        if bad.size:
            raise EmbeddingFormatError(f"non-finite vector value at {where(start + int(bad[0]))}")
        if normalize:
            off = (norm >= ZERO_NORM_TOLERANCE) & (np.abs(norm - 1.0) > NORM_TOLERANCE)
            block[off] = (wide[off] / norm[off, None]).astype(np.float32)
    return norms


def _build_table(
    dim: int, words: list[str], matrix: np.ndarray, normalize: bool, where: Callable[[int], str]
) -> EmbeddingTable:
    """Apply the load rules to parsed rows: ``matrix[i]`` holds ``words[i]``.

    With ``normalize`` off, zero vectors are kept and vectors are stored as
    found, which waives the unit-norm invariant.
    """
    norms = _scan_rows(matrix, where, normalize)
    kept = np.flatnonzero(norms >= ZERO_NORM_TOLERANCE) if normalize else np.arange(len(words))
    summary = LoadSummary(zero_dropped=len(words) - len(kept))
    index: dict[str, int] = {}
    for row in kept.tolist():
        raw = words[row]
        key = raw.lower()
        first = index.get(key)
        if first is None:
            index[key] = row
        elif words[first] == raw:
            summary.duplicates += 1
            index[key] = row
        else:
            summary.case_collisions += 1
    matrix.setflags(write=False)
    if summary.duplicates or summary.case_collisions or summary.zero_dropped:
        logger.warning(
            "embedding load: %d duplicate words (last kept), %d case collisions "
            "(first kept), %d zero vectors dropped",
            summary.duplicates, summary.case_collisions, summary.zero_dropped,
        )
    return EmbeddingTable(dim=dim, _matrix=matrix, _index=index, load_summary=summary)


def load_binary(path: str | Path, normalize: bool = True) -> EmbeddingTable:
    """Load a binary-format embedding file. See the module docstring for layout."""
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
        matrix = np.empty((min(vocab_size, payload // (4 * dim + 2)), dim), dtype="<f4")
        words: list[str] = []

        def where(row: int) -> str:
            return f"entry {row} ({words[row]!r})"

        try:
            _read_entries(fh, len(header), vocab_size, matrix, words)
        except EmbeddingFormatError:
            _scan_rows(matrix[:len(words)], where, normalize=False)
            raise
    return _build_table(dim, words, matrix, normalize, where)


def _read_entries(fh: BinaryIO, offset: int, count: int, matrix: np.ndarray,
                  words: list[str]) -> None:
    """Stream ``count`` binary entries from ``fh`` into the rows of ``matrix``.

    ``offset`` is the file position of the next byte of ``fh``. Chunks of
    CHUNK_BYTES are read as needed; the unparsed tail of one chunk is carried
    over to the next.
    """
    vector_bytes = 4 * matrix.shape[1]
    out = memoryview(matrix).cast("B") if matrix.size else memoryview(b"")
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
        out[i * vector_bytes:(i + 1) * vector_bytes] = view[pos:pos + vector_bytes]
        pos += vector_bytes
        words.append(word)
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


def load_text(path: str | Path, normalize: bool = True) -> EmbeddingTable:
    """Load a text-format embedding file (optional header line)."""
    declared: tuple[int, int] | None = None
    dim = 0
    words: list[str] = []
    linenos: list[int] = []
    blocks: list[np.ndarray] = []
    pending: list[list[float]] = []

    def flush() -> None:
        # Values that overflow float32 become infinities and fail as non-finite.
        with np.errstate(over="ignore"):
            blocks.append(np.array(pending, dtype=np.float64).reshape(-1, dim).astype(np.float32))
        pending.clear()

    def where(row: int) -> str:
        return f"line {linenos[row]}"

    try:
        with open(path, "rb") as fh:
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
                if not words:
                    dim = len(raw_values)
                    if dim < 1:
                        raise EmbeddingFormatError(f"line {lineno}: no vector values")
                    if declared is not None and dim != declared[1]:
                        raise EmbeddingFormatError(
                            f"line {lineno}: dimension {dim} does not match header {declared[1]}"
                        )
                if len(raw_values) != dim:
                    raise EmbeddingFormatError(
                        f"line {lineno}: expected {dim} values, found {len(raw_values)}"
                    )
                try:
                    pending.append(list(map(float, raw_values)))
                except ValueError:
                    raise EmbeddingFormatError(f"line {lineno}: non-numeric vector value") from None
                words.append(word)
                linenos.append(lineno)
                if len(pending) * dim >= CHUNK_BYTES // 8:
                    flush()
        if declared is not None and len(words) != declared[0]:
            raise EmbeddingFormatError(
                f"header declares {declared[0]} entries but file has {len(words)}"
            )
    except EmbeddingFormatError:
        if words:
            flush()
            _scan_rows(np.concatenate(blocks), where, normalize=False)
        raise
    if not words:
        return _build_table(declared[1] if declared else 0, words,
                            np.empty((0, 0), np.float32), normalize, where)
    flush()
    return _build_table(dim, words, np.concatenate(blocks), normalize, where)


def save_binary(table: EmbeddingTable, path: str | Path) -> None:
    """Serialize a table in the binary layout (inverse of load_binary)."""
    with open(path, "wb") as fh:
        fh.write(f"{table.size} {table.dim}\n".encode("ascii"))
        for word in table.words():
            vec = table.lookup(word)
            fh.write(word.encode("utf-8") + b" ")
            fh.write(np.asarray(vec, dtype="<f4").tobytes())
            fh.write(b"\n")
