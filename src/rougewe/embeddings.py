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

Both loaders hand the file's entries to one build step in blocks of at most
``CHUNK_BYTES / 16`` (256 KiB) of float32 rows. The binary loader reads the
file into one buffer of ``CHUNK_BYTES``, reused for the whole load: one regex
scan finds the complete entries of each fill, their words are decoded in one
call, and one numpy gather per block copies their vectors out of the buffer.
The text loader parses line by line into a reused block. The build step, the
same for both formats, fails on a NaN or infinity anywhere in the file naming
its entry or line. Given a ``vocabulary``, it then keeps only the rows whose
lowercased word is in it: a filtered load is the full load of the file's
wanted entries, with the same words in file order, bitwise the same vectors,
and a ``load_summary`` that counts only those rows. It drops zero vectors and
applies the key rules in one pass over a block's kept rows, in file order.
Keys are lowercased: an exact repeat of one source form is last-wins,
distinct forms that collide after lowercasing are first-wins (pre-trained
files list higher-frequency forms first). Only then are rows copied out,
renormalized unless already unit norm within 1e-6 (so a loaded table saved
in the binary layout loads bitwise the same). Peak memory is the kept rows and
keys, the read buffer and the parsed entries of one fill: about the float32
payload for a full load, and for a corpus's vocabulary a bound set by CHUNK_BYTES.
"""

from __future__ import annotations

import logging
import os
import re
from dataclasses import dataclass, field
from itertools import compress, repeat
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO, Callable, Collection, Iterable, Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

logger = logging.getLogger(__name__)

NORM_TOLERANCE = 1e-6
ZERO_NORM_TOLERANCE = 1e-12
# glibc raises its mmap threshold to the size of the largest mmapped block
# freed. The binary loader's one read buffer is freed when the load ends,
# which lifts the threshold to its size, so scoring after the load finds its
# matrices on the heap: four WE scorings of the aesop-we benchmark corpus
# after a filtered load took ~1.8k minor page faults, against ~25k with a
# 1 MiB buffer, whose lower threshold sends larger matrices to fresh mmaps.
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

    def rows(self, words: Collection[str]) -> np.ndarray:
        """Each word's row of the matrix, -1 for a word the table lacks."""
        return np.fromiter(map(self._index.get, words, repeat(-1)), np.intp, len(words))

    def compose_many(self, units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``compose`` of many units of one length at once, as float64 rows.

        ``units`` holds each unit's words as their ``rows``, one unit a row,
        in sorted word order, as ``compose`` multiplies them. Returns the
        composed rows of the units that compose, in unit order, and a
        boolean mask of those units; the units it leaves out are those
        ``compose`` returns None for, and each row is bitwise ``compose``'s
        vector (upcast from float32 for a single word). The rows are gathered
        once per constituent position and multiplied in that order. Each
        norm is a one-by-one matrix product of a row with itself, which calls
        the same BLAS dot that ``np.linalg.norm`` calls for one vector.
        """
        known = (units >= 0).all(axis=1)
        units = units[known]
        rows = self._matrix[units[:, 0]].astype(np.float64)
        if units.shape[1] == 1:
            return rows, known
        for k in range(1, units.shape[1]):
            rows *= self._matrix[units[:, k]]
        norms = np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])
        usable = ~(norms < ZERO_NORM_TOLERANCE)
        if not usable.all():
            known[np.flatnonzero(known)[~usable]] = False
            rows, norms = rows[usable], norms[usable]
        rows /= norms[:, None]
        return rows, known


class _TableBuilder:
    """Applies the load rules to entries handed over a block at a time.

    A loader passes at most ``rows`` entries per ``take``: their float32
    vectors as the rows of a block and their words. The float64 copy of a
    block and its norms live in buffers reused for the whole load.
    """

    def __init__(self, dim: int, vocabulary: Collection[str] | None, capacity: int):
        # 256 KiB of float32 rows, so that a block and its float64 copy stay in
        # cache from the read to the norms: on a Xeon with 2 MiB of L2 per
        # core, 1 MiB blocks loaded about 15 % slower.
        self.rows = max(1, CHUNK_BYTES // (64 * max(1, dim)))
        self.dim = dim
        self.entries = 0  # entries taken so far
        self._wide = np.empty((self.rows, dim))
        self._norms = np.empty(self.rows)
        self._wanted = None if vocabulary is None else frozenset(vocabulary)
        if self._wanted is not None:
            capacity = min(capacity, len(self._wanted))
        self._index: dict[str, int] = {}  # every wanted key -> its output row
        self._cased: dict[str, str] = {}  # key -> its first source form, where they differ
        self._matrix = np.empty((capacity, dim), dtype=np.float32)
        self.summary = LoadSummary()

    def take(self, block: np.ndarray, words: list[str], where: Callable[[int], str]) -> None:
        """Check the rows of ``block``, apply the load rules and copy out the
        wanted rows; ``words`` are the rows' words, ``where(i)`` names row ``i``."""
        n = len(words)
        if not n:
            return
        wide, norms = self._wide[:n], self._norms[:n]
        np.copyto(wide, block)
        np.einsum("ij,ij->i", wide, wide, out=norms)
        np.sqrt(norms, out=norms)
        # float32 squares cannot overflow float64, so a row's norm is finite
        # exactly when its values are.
        bad = np.flatnonzero(~np.isfinite(norms))
        if bad.size:
            raise EmbeddingFormatError(f"non-finite vector value at {where(int(bad[0]))}")
        if self._wanted is None:
            rows = np.flatnonzero(norms >= ZERO_NORM_TOLERANCE)
            self.summary.zero_dropped += n - len(rows)
        else:
            # The load rules see only the rows of wanted keys, as if the file
            # held no others; the other rows were only checked to be finite.
            wanted = np.fromiter(compress(range(n), map(self._wanted.__contains__,
                                                        map(str.lower, words))), np.intp)
            rows = wanted[norms[wanted] >= ZERO_NORM_TOLERANCE]
            self.summary.zero_dropped += len(wanted) - len(rows)
        start = len(self._index)
        firsts, repeats = self._key_rules(words, rows.tolist())
        if len(self._index) > len(self._matrix):
            grown = np.empty((max(len(self._index), 2 * len(self._matrix)), self.dim),
                             dtype=np.float32)
            grown[:len(self._matrix)] = self._matrix
            self._matrix = grown
        # New wanted keys take the next slots in file order. A repeat comes
        # after the first row of its key, so it is copied last.
        self._copy_out(np.arange(start, len(self._index)), np.array(firsts, np.intp),
                       block, wide, norms)
        if repeats:
            self._copy_out(np.fromiter(repeats.keys(), np.intp, len(repeats)),
                           np.fromiter(repeats.values(), np.intp, len(repeats)),
                           block, wide, norms)
        self.entries += n

    def _key_rules(self, words: list[str], rows: list[int]) -> tuple[list[int], dict[int, int]]:
        """Apply the key rules to the block's kept ``rows``, in file order.

        Gives each key new to the load the next slot, and returns the rows of
        those keys' first forms and, for each slot whose key a later row
        repeats exactly, the last such row.
        """
        index, cased, summary = self._index, self._cased, self.summary
        firsts: list[int] = []
        repeats: dict[int, int] = {}  # slot -> row; a later duplicate replaces
        for row in rows:
            word = words[row]
            key = word.lower()
            if key not in index:
                if key != word:
                    cased[key] = word
                index[key] = len(index)
                firsts.append(row)
            elif cased.get(key, key) == word:
                summary.duplicates += 1
                repeats[index[key]] = row
            else:
                summary.case_collisions += 1
        return firsts, repeats

    def _copy_out(self, slots: np.ndarray, rows: np.ndarray, block: np.ndarray,
                  wide: np.ndarray, norms: np.ndarray) -> None:
        """Copy block ``rows`` to output ``slots``, renormalized unless unit."""
        if not len(rows):
            return
        self._matrix[slots] = block[rows]
        off = np.abs(norms[rows] - 1.0) > NORM_TOLERANCE
        slots, rows = slots[off], rows[off]
        self._matrix[slots] = wide[rows] / norms[rows, None]

    def table(self) -> EmbeddingTable:
        summary = self.summary
        if summary.duplicates or summary.case_collisions or summary.zero_dropped:
            logger.warning(
                "embedding load, counted over %s: %d duplicate words (last kept), "
                "%d case collisions (first kept), %d zero vectors dropped",
                "the whole file" if self._wanted is None else "the words looked up",
                summary.duplicates, summary.case_collisions, summary.zero_dropped,
            )
        matrix = self._matrix[:len(self._index)]
        matrix.setflags(write=False)
        return EmbeddingTable(dim=self.dim, _matrix=matrix, _index=self._index,
                              load_summary=summary)


def load_binary(path: str | Path, vocabulary: Collection[str] | None = None) -> EmbeddingTable:
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
        builder = _TableBuilder(dim, vocabulary, min(vocab_size, payload // (4 * dim + 2)))
        _read_entries(fh, len(header), vocab_size, builder)
    return builder.table()


def _read_entries(fh: BinaryIO, offset: int, count: int, builder: _TableBuilder) -> None:
    """Stream ``count`` binary entries from ``fh`` through ``builder``.

    ``offset`` is the file position of the next byte of ``fh``. The file is
    read into one buffer of CHUNK_BYTES, reused for the whole load. One regex
    scan finds every complete entry of the buffer; the unparsed tail is moved
    to the front and the rest of the buffer is filled again. The buffer grows
    only when one entry does not fit in it.
    """
    vector_bytes = 4 * builder.dim
    # An entry: the newlines before it, its word (matched empty only to report
    # it), one space and the vector. Where no complete entry starts, the last
    # alternative takes the rest of the buffer at once, so the matches tile the
    # buffer and the scan never retries its tail byte by byte.
    scan = re.compile(rb"(\n*)((?:[^ \n][^ ]*)?) .{%d}|(.+)" % vector_bytes, re.DOTALL).findall
    buf = bytearray(CHUNK_BYTES)
    held = 0  # bytes of ``buf`` in use; ``buf[0]`` is at file position ``offset``
    done = 0  # entries taken so far
    while True:
        if held == len(buf):
            buf += bytes(len(buf))
        with memoryview(buf) as view, view[held:] as free:
            got = fh.readinto(free)
        held += got
        found = scan(buf, 0, held)
        if found and found[-1][2]:
            found.pop()
        end = _take_entries(buf, held, found[:count - done], offset, done, builder)
        done += min(len(found), count - done)
        if done == count:
            tail = buf[end:held]
            while not tail.strip(b"\n"):
                tail = fh.read(CHUNK_BYTES)
                if not tail:
                    return
            raise EmbeddingFormatError(
                f"trailing garbage after {count} entries at byte {offset + end}")
        if not got:
            _raise_truncated(buf[end:held], offset + end, done)
        buf[:held - end] = buf[end:held]
        offset += end
        held -= end


def _take_entries(buf: bytearray, held: int, found: list[tuple[bytes, bytes, bytes]],
                  offset: int, done: int, builder: _TableBuilder) -> int:
    """Hand the scanned entries ``found`` of ``buf`` to ``builder`` a block at a
    time and return the end of the last one. ``done`` entries come before them.

    An empty or non-UTF-8 word fails after the entries before it are taken,
    so that a non-finite value in those is reported first.
    """
    if not found:
        return 0
    vector_bytes = 4 * builder.dim
    words = list(map(itemgetter(1), found))
    word_len = np.fromiter(map(len, words), np.intp, len(words))
    ends = np.cumsum(np.fromiter(map(len, map(itemgetter(0), found)), np.intp, len(found))
                     + word_len + (1 + vector_bytes))
    vectors = ends - vector_bytes
    names, error = _decode_words(words, vectors - 1 - word_len, offset, done)
    if names:
        windows = sliding_window_view(np.frombuffer(buf, np.uint8, held), vector_bytes)

        def where(row: int) -> str:  # row of the block from entry ``done + i``
            return f"entry {done + i + row} ({names[i + row]!r})"

        for i in range(0, len(names), builder.rows):
            j = min(len(names), i + builder.rows)
            builder.take(windows[vectors[i:j]].view("<f4"), names[i:j], where)
    if error is not None:
        raise error
    return int(ends[-1])


def _decode_words(words: list[bytes], starts: Sequence[int], offset: int,
                  done: int) -> tuple[list[str], EmbeddingFormatError | None]:
    """Decode ``words`` in one call, up to the first that is empty or not
    UTF-8, and return them with that word's error. The words are at file
    positions ``offset + starts`` and follow ``done`` entries."""
    good = words.index(b"") if b"" in words else len(words)
    error = None
    if good < len(words):
        error = EmbeddingFormatError(
            f"entry {done + good}: empty word at byte {offset + starts[good]}")
    joined = b" ".join(words[:good])
    try:
        text = joined.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Words hold no space, so the spaces before the bad byte count the
        # words before its own.
        good = joined.count(b" ", 0, exc.start)
        at = offset + starts[good] + exc.start - joined.rfind(b" ", 0, exc.start) - 1
        error = EmbeddingFormatError(
            f"entry {done + good}: word bytes are not valid UTF-8 (byte offset {at})")
        text = joined[:exc.start].rpartition(b" ")[0].decode("utf-8")
    return (text.split(" ") if good else []), error


def _raise_truncated(tail: bytes, offset: int, entry: int) -> None:
    """Fail on the unfinished entry ``entry`` that ``tail``, at file position
    ``offset``, holds at the end of the file."""
    start = len(tail) - len(tail.lstrip(b"\n"))
    space = tail.find(b" ", start)
    if space < 0:
        raise EmbeddingTruncationError(f"file ends inside word of entry {entry}",
                                       offset + start)
    names, error = _decode_words([tail[start:space]], [start], offset, entry)
    if error is not None:
        raise error
    raise EmbeddingTruncationError(f"file ends inside vector of entry {entry} ({names[0]!r})",
                                   offset + space + 1)


def _text_lines(fh: BinaryIO) -> Iterator[tuple[int, str]]:
    """Yield (line number, line) for a UTF-8 file less one leading byte-order
    mark, split as ``str.splitlines`` splits the whole text (UTF-8 never
    puts 0x0A inside a character); byte offsets count the mark."""
    lineno = offset = 0
    for raw in fh:
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EmbeddingFormatError(
                f"line {lineno + 1}: not valid UTF-8 (byte offset {offset + exc.start})"
            ) from None
        if not offset:
            text = text.removeprefix("\ufeff")
        for line in text.splitlines():
            lineno += 1
            yield lineno, line
        offset += len(raw)


def load_text(path: str | Path, vocabulary: Collection[str] | None = None) -> EmbeddingTable:
    """Load a text-format embedding file (optional header line).

    With a ``vocabulary``, only the vectors of keys in it are kept.
    """
    declared: tuple[int, int] | None = None
    builder: _TableBuilder | None = None
    block = np.empty((0, 0), dtype="<f4")  # the rows of the next take
    words: list[str] = []
    linenos: list[int] = []  # the line of each row of the block

    def where(row: int) -> str:
        return f"line {linenos[row]}"

    def flush() -> None:
        builder.take(block[:len(words)], words, where)
        words.clear()
        linenos.clear()

    # Values that overflow float32 become infinities and fail as non-finite.
    with open(path, "rb") as fh, np.errstate(over="ignore"):
        try:
            for lineno, line in _text_lines(fh):
                fields = line.split()
                if lineno == 1 and len(fields) == 2:
                    try:
                        declared = (int(fields[0]), int(fields[1]))
                    except ValueError:
                        pass
                    else:
                        if declared[0] < 0 or declared[1] < 1:
                            raise EmbeddingFormatError(f"line 1: malformed header {line.strip()!r}")
                        continue
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
                    builder = _TableBuilder(dim, vocabulary, capacity)
                    block = np.empty((builder.rows, dim), dtype="<f4")
                if len(raw_values) != builder.dim:
                    raise EmbeddingFormatError(
                        f"line {lineno}: expected {builder.dim} values, found {len(raw_values)}"
                    )
                try:
                    block[len(words)] = list(map(float, raw_values))
                except ValueError:
                    raise EmbeddingFormatError(f"line {lineno}: non-numeric vector value") from None
                words.append(word)
                linenos.append(lineno)
                if len(words) == len(block):
                    flush()
            if builder is None:
                builder = _TableBuilder(declared[1] if declared else 0, vocabulary, 0)
            flush()
            if declared is not None and builder.entries != declared[0]:
                raise EmbeddingFormatError(
                    f"header declares {declared[0]} entries but file has {builder.entries}"
                )
        except EmbeddingFormatError:
            # A bad value in an earlier line is reported first; when the error
            # is that value's, this flush raises it again.
            if builder is not None:
                flush()
            raise
    return builder.table()


# The file layouts; layout F is read by load_F.
FORMATS = ("binary", "text")

