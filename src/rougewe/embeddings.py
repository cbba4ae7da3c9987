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
file into one buffer of ``CHUNK_BYTES``, reused for the whole load, and does
its Python work once per fill of the buffer, not once per entry: one regex
scan gives each complete entry's leading newlines and word as one ``bytes``;
one join of them and one numpy pass over the separators give every entry's
offsets; one decode gives the fill's words as one text, from which one
replace drops their leading newlines; one split of that text gives the words
of a full load, or, given a ``vocabulary``, one split of its lowercase the
keys, and one membership pass the wanted rows. Every row of the fill is
checked in blocks, with one ``np.isfinite(block).all()`` each, and a NaN or
infinity fails naming its entry; only the wanted rows (every row, without a
vocabulary) are then gathered out of the buffer and handed on, with their
words (a filtered load decodes each kept word on its own). The text loader
parses line by line into a reused block, which the build step checks the same
way and filters by the vocabulary. Either way a filtered load is the full
load of the file's wanted entries, with the same words in file order,
bitwise the same vectors, and a ``load_summary`` that counts only those
rows. The build step widens only those rows to float64, drops zero
vectors and applies the key rules in one pass over the rows handed to it, in
file order.
Keys are lowercased: an exact repeat of one source form is last-wins,
distinct forms that collide after lowercasing are first-wins (pre-trained
files list higher-frequency forms first). Only then are rows copied out,
renormalized unless already unit norm within 1e-6 (so a loaded table saved
in the binary layout loads bitwise the same). Peak memory is the kept rows and
keys, the read buffer and one fill's joined words, their text and its split:
about the float32 payload for a full load, and for a corpus's vocabulary a
bound set by CHUNK_BYTES.
"""

from __future__ import annotations

import logging
import os
import re
from dataclasses import dataclass, field
from itertools import compress, repeat
from pathlib import Path
from typing import BinaryIO, Callable, Collection, Iterable, Iterator, Sequence

import numpy as np

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
        """``compose_many`` of one unit, as a read-only float64 row.

        Returns None (OOV) when any constituent is missing or the product
        has no usable direction. The words are sorted first, so permuting
        them gives a bitwise-identical result; a single word returns its
        stored row, uncopied. Nothing in the package calls it; it stays
        because the benchmark's tracer rebinds it (ROADMAP item 1).
        """
        if not words:
            raise ValueError("compose requires at least one word")
        if len(words) == 1:
            return self.lookup(words[0])
        rows, known = self.compose_many(self.rows(sorted(words))[None])
        rows.setflags(write=False)
        return rows[0] if known[0] else None

    def rows(self, words: Collection[str]) -> np.ndarray:
        """Each word's row of the matrix, -1 for a word the table lacks."""
        return np.fromiter(map(self._index.get, words, repeat(-1)), np.intp, len(words))

    def compose_many(self, units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each unit's word vectors multiplied element-wise and renormalized.

        ``units`` holds each unit's words as their ``rows``, one unit a row,
        in sorted word order. Returns the composed float64 rows of the units
        that compose, in unit order, and a boolean mask of those units: a unit
        with a missing word, or whose product's norm is below tolerance, is
        left out. A single word's row is its vector upcast from float32. The
        rows are gathered once per constituent position and multiplied in
        that order. Each norm is a one-by-one matrix product of a row with
        itself, the BLAS dot that ``np.linalg.norm`` calls for one vector.
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

    A block holds at most ``rows`` float32 vectors as its rows. ``take``
    checks every row of a block to be finite, then adds the rows of
    ``wanted`` keys; a loader that checks the rows and picks the wanted ones
    itself hands only those to ``add``. Only added rows are widened to
    float64.
    """

    def __init__(self, dim: int, vocabulary: Collection[str] | None, capacity: int):
        # 256 KiB of float32 rows: a block bounds the binary loader's gather of
        # vector bytes and the finite mask, whatever the size of the file.
        self.rows = max(1, CHUNK_BYTES // (64 * max(1, dim)))
        self.dim = dim
        self.entries = 0  # entries ``take`` has checked
        self.wanted = None if vocabulary is None else frozenset(vocabulary)
        if self.wanted is not None:
            capacity = min(capacity, len(self.wanted))
        self._index: dict[str, int] = {}  # every wanted key -> its output row
        self._cased: dict[str, str] = {}  # key -> its first source form, where they differ
        self._matrix = np.empty((capacity, dim), dtype=np.float32)
        self.summary = LoadSummary()

    def take(self, block: np.ndarray, words: list[str], where: Callable[[int], str]) -> None:
        """Check the rows of ``block`` and add those of wanted keys; ``words``
        are the rows' words, ``where(i)`` names row ``i``."""
        _check_finite(block, where)
        self.entries += len(words)
        if self.wanted is not None:
            keep = np.fromiter(map(self.wanted.__contains__, map(str.lower, words)), bool,
                               len(words))
            block, words = block[keep], list(compress(words, keep))
        self.add(block, words)

    def add(self, block: np.ndarray, words: list[str]) -> None:
        """Apply the load rules to the finite, wanted rows of ``block`` and copy
        them out; ``words`` are the rows' words."""
        if not words:
            return
        # float32 squares cannot overflow float64, so every norm is finite.
        wide = block.astype(np.float64)
        norms = np.sqrt(np.einsum("ij,ij->i", wide, wide))
        rows = np.flatnonzero(norms >= ZERO_NORM_TOLERANCE)
        self.summary.zero_dropped += len(words) - len(rows)
        filled = self._key_rules(words, rows.tolist())
        if len(self._index) > len(self._matrix):
            self._matrix.resize((max(len(self._index), 2 * len(self._matrix)), self.dim),
                                refcheck=False)
        slots = np.fromiter(filled.keys(), np.intp, len(filled))
        rows = np.fromiter(filled.values(), np.intp, len(filled))
        self._matrix[slots] = block[rows]
        off = np.abs(norms[rows] - 1.0) > NORM_TOLERANCE
        slots, rows = slots[off], rows[off]
        self._matrix[slots] = wide[rows] / norms[rows, None]

    def _key_rules(self, words: list[str], rows: list[int]) -> dict[int, int]:
        """Apply the key rules to the block's kept ``rows``, in file order.

        Gives each key new to the load the next slot, and returns, for each
        slot the block fills, the last row of its key's first form.
        """
        index, cased, summary = self._index, self._cased, self.summary
        slots: dict[int, int] = {}
        for row in rows:
            word = words[row]
            key = word.lower()
            if key not in index:
                if key != word:
                    cased[key] = word
                index[key] = len(index)
            elif cased.get(key, key) == word:
                summary.duplicates += 1
            else:
                summary.case_collisions += 1
                continue
            slots[index[key]] = row
        return slots

    def table(self) -> EmbeddingTable:
        summary = self.summary
        if summary.duplicates or summary.case_collisions or summary.zero_dropped:
            logger.warning(
                "embedding load, counted over %s: %d duplicate words (last kept), "
                "%d case collisions (first kept), %d zero vectors dropped",
                "the whole file" if self.wanted is None else "the words looked up",
                summary.duplicates, summary.case_collisions, summary.zero_dropped,
            )
        # No view of the matrix exists before the table's, so ``take`` grows it
        # and this trims it to exactly its rows in place.
        matrix = self._matrix
        matrix.resize((len(self._index), self.dim), refcheck=False)
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


def _check_finite(block: np.ndarray, where: Callable[[int], str]) -> None:
    """Fail on the first row of ``block`` that holds a NaN or an infinity,
    naming it ``where(row)``. Only a failing block is searched for its row."""
    if not np.isfinite(block).all():
        row = int(np.flatnonzero(~np.isfinite(block).all(axis=1))[0])
        raise EmbeddingFormatError(f"non-finite vector value at {where(row)}")


def _read_entries(fh: BinaryIO, offset: int, count: int, builder: _TableBuilder) -> None:
    """Stream ``count`` binary entries from ``fh`` through ``builder``.

    ``offset`` is the file position of the next byte of ``fh``. The file is
    read into one buffer of CHUNK_BYTES, reused for the whole load. One regex
    scan finds every complete entry of the buffer as one ``bytes`` per entry,
    its leading newlines and word; the unparsed tail is moved to the front
    and the rest of the buffer is filled again. The buffer grows only when
    one entry does not fit in it.
    """
    vector_bytes = 4 * builder.dim
    # An entry: the newlines before it and its word (matched empty only to
    # report it) as the one group, then one space and the vector. Where no
    # complete entry starts, the last alternative takes the rest of the buffer
    # at once, so the matches tile the buffer and the scan never retries its
    # tail byte by byte; its group is empty, as an empty word's is.
    scan = re.compile(rb"([^ ]*) .{%d}|.+" % vector_bytes, re.DOTALL).findall
    buf = bytearray(CHUNK_BYTES)
    held = 0  # bytes of ``buf`` in use; ``buf[0]`` is at file position ``offset``
    done = 0  # entries taken so far
    while True:
        if held == len(buf):
            buf += bytes(len(buf))
        with memoryview(buf) as view, view[held:] as free:
            got = fh.readinto(free)
        held += got
        # Joined at once, the scan's list is freed before the words are decoded.
        end, taken = _take_entries(buf, held, b" ".join(scan(buf, 0, held)), count - done,
                                   offset, done, builder)
        done += taken
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


def _take_entries(buf: bytearray, held: int, joined: bytes, left: int, offset: int,
                  done: int, builder: _TableBuilder) -> tuple[int, int]:
    """Hand up to ``left`` of the entries the scan found in ``buf[:held]`` to
    ``builder``; return the end of the last one taken and their count.
    ``joined`` is the scan's groups joined by spaces, and ``done`` entries
    come before them.

    Every row is checked to be finite, one block at a time. Only then are
    the rows of wanted keys (every row, without a vocabulary) gathered and
    handed to the builder, at most a block of them at a time, so a filtered
    load makes no call for a fill without a wanted word. An empty or
    non-UTF-8 word fails after the entries before it are taken, so that a
    non-finite value in those is reported first.
    """
    vector_bytes = 4 * builder.dim
    # Words hold no space, so the separators of ``joined`` end its groups.
    # Group i ends i * vector_bytes bytes further into ``buf`` than into
    # ``joined``: there each group before it is followed by its space and
    # vector, here by one separator.
    ends = np.append(np.flatnonzero(np.frombuffer(joined, np.uint8) == 0x20), len(joined))
    word_ends = ends + vector_bytes * np.arange(len(ends))
    stops = word_ends + (1 + vector_bytes)
    if not joined or joined.endswith(b" "):
        # An empty last group is the unfinished tail, or an entry with an
        # empty word that ends the buffer. Either waits for the next fill; the
        # empty word then fails there, or at the end of the file, as here.
        stops = stops[:-1]
    n = min(len(stops), left)
    if not n:
        return 0, 0
    # A full load needs every word; a filtered one, the keys.
    parts, error = _decode_words(joined[:ends[n - 1]], word_ends, vector_bytes, offset, done,
                                 lower=builder.wanted is not None)
    n = len(parts)
    if not n:  # the first word failed
        raise error

    def name(row: int) -> str:
        """The word of entry ``done + row``, decoded on its own."""
        return joined[ends[row - 1] + 1 if row else 0:ends[row]].lstrip(b"\n").decode("utf-8")

    # Row i of ``windows`` is the vector_bytes bytes from buf[i] on.
    windows = np.ndarray((held - vector_bytes + 1, vector_bytes), np.uint8, buf, strides=(1, 1))
    vectors = stops[:n] - vector_bytes
    for i in range(0, n, builder.rows):
        _check_finite(windows[vectors[i:i + builder.rows]].view("<f4"),
                      lambda row: f"entry {done + i + row} ({name(i + row)!r})")
    if builder.wanted is None:
        kept, word = np.arange(n), parts.__getitem__
    else:
        kept, word = np.flatnonzero(np.fromiter(map(builder.wanted.__contains__, parts), bool,
                                                n)), name
    for i in range(0, len(kept), builder.rows):
        rows = kept[i:i + builder.rows]
        builder.add(windows[vectors[rows]].view("<f4"), list(map(word, rows.tolist())))
    if error is not None:
        raise error
    return int(stops[n - 1]), n


def _decode_words(joined: bytes, word_ends: Sequence[int], vector_bytes: int, offset: int,
                  done: int, lower: bool = False) -> tuple[list[str], EmbeddingFormatError | None]:
    """Decode the space-separated groups of ``joined``, each an entry's
    leading newlines and word, up to the first word that is empty or not
    UTF-8. Return the words without the newlines, lowercased if ``lower``,
    and that word's error. The groups follow ``done`` entries; group i ends
    at file position ``offset + word_ends[i]``, and its byte ``joined[j]``
    is at ``offset + j + i * vector_bytes``."""
    error = None
    try:
        text = joined.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Words hold no space, so the spaces before the bad byte count the
        # words before its own.
        bad = joined.count(b" ", 0, exc.start)
        error = EmbeddingFormatError(
            f"entry {done + bad}: word bytes are not valid UTF-8 "
            f"(byte offset {offset + exc.start + bad * vector_bytes})")
        if not bad:
            return [], error
        text = joined[:exc.start].rpartition(b" ")[0].decode("utf-8")
    # Drop each word's leading newlines. Most entries start with the one that
    # ends the entry before, which one replace drops; a regex drops the rest
    # of a longer run.
    text = text.lstrip("\n").replace(" \n", " ")
    if " \n" in text:
        text = re.sub(" \n+", " ", text)
    words = (text.lower() if lower else text).split(" ")
    if "" in words:
        bad = words.index("")
        error = EmbeddingFormatError(
            f"entry {done + bad}: empty word at byte {offset + int(word_ends[bad])}")
        del words[bad:]
    return words, error


def _raise_truncated(tail: bytes, offset: int, entry: int) -> None:
    """Fail on the unfinished entry ``entry`` that ``tail``, at file position
    ``offset``, holds at the end of the file."""
    start = len(tail) - len(tail.lstrip(b"\n"))
    space = tail.find(b" ", start)
    if space < 0:
        raise EmbeddingTruncationError(f"file ends inside word of entry {entry}",
                                       offset + start)
    names, error = _decode_words(tail[:space], [space], 0, offset, entry)
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

