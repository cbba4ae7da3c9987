"""Text input, normalization and integer coding.

Everything here is pure: the same raw text and config always produce the
same tokens, and the same texts the same word ids.
``tokenize`` normalizes one text, chunk by chunk, and is the definition of
a text's words. ``encode`` gives many texts those same words as integer ids
over one sorted word list, normalizing each distinct chunk once through the
same per-chunk step; scoring takes its words from ``encode`` alone.
"""

from __future__ import annotations

import string
import sys
from dataclasses import dataclass
from itertools import count, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from ._porter import porter_stem

_STRIP_CHARS = string.punctuation + "‘’“”–—…"


@dataclass(frozen=True)
class TokenizeConfig:
    """Normalization switches applied by :func:`tokenize`.

    ``stopwords`` is a frozenset of already-normalized words; use
    :func:`load_stopwords` to read one from a file.
    """

    stem: bool = False
    stopwords: frozenset[str] | None = None


DEFAULT_CONFIG = TokenizeConfig()


@dataclass(frozen=True)
class TokenSequence:
    """Normalized word tokens of one summary text, in original order."""

    tokens: tuple[str, ...]
    source_id: str = ""

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[str]:
        return iter(self.tokens)


class InputError(ValueError):
    """An input file that cannot be used; the message names the file."""


def read_text(path: str | Path, what: str = "file") -> str:
    """A UTF-8 file's text, less one leading byte-order mark (U+FEFF): every
    text input is read here. A file that cannot be read or decoded raises
    ``InputError`` naming it as ``what``; a bad byte's offset counts the mark."""
    try:
        return Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise InputError(f"unreadable {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{what} {path} is not valid UTF-8 (byte offset {exc.start})") from None


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword list: one word per line, blanks ignored, lowercased."""
    words = []
    for line in read_text(path, "stopword file").splitlines():
        word = line.strip()
        if word:
            words.append(word.lower())
    return frozenset(words)


def _normalize(chunk: str, config: TokenizeConfig) -> str | None:
    """One whitespace-delimited chunk's word, or None when it is dropped.
    A chunk that is its own word is returned as it is, not as a copy."""
    word = chunk.strip(_STRIP_CHARS)
    if not word:
        return None
    word = word.lower()
    if config.stopwords is not None and word in config.stopwords:
        return None
    if config.stem:
        word = porter_stem(word)
    return chunk if word == chunk else word


def tokenize(raw: str, config: TokenizeConfig = DEFAULT_CONFIG, source_id: str = "") -> TokenSequence:
    """Split raw text into normalized word tokens.

    Tokens are whitespace-delimited chunks with leading/trailing
    punctuation stripped, then lowercased, as the embedding loaders key
    every word; chunks that are pure punctuation disappear. Empty or
    whitespace-only input yields an empty sequence. Every kept token is
    interned, so a word is one ``str`` object in all the texts it occurs in.
    Nothing in the package reads ``source_id``; it stays only because the
    benchmark's sample check passes it (ROADMAP item 1).
    """
    words = (_normalize(chunk, config) for chunk in raw.split())
    return TokenSequence(tuple(sys.intern(word) for word in words if word is not None),
                         source_id=source_id)


def _code(chunk_lists: Iterable[Iterable[str]], word: Callable[[str], str | None]
          ) -> tuple[list[str], list[np.ndarray]]:
    """The one coder behind ``encode`` and ``encode_tokens``: each distinct
    chunk is given its ``word`` once, and each list's chunks are mapped to
    their words' ids by one gather. Each step's tables are dropped once
    the next step has what it needs from them, to keep the peak low."""
    # A chunk is known by the place of its first occurrence among all the
    # chunks, and each list becomes its chunks' places, without a Python
    # call per chunk.
    firsts: dict[str, int] = {}
    places = count()
    chunk_places = [np.fromiter(map(firsts.setdefault, chunks, places), np.int32)
                    for chunks in chunk_lists]
    chunk_words = list(map(word, firsts))
    first_places = np.fromiter(firsts.values(), np.int32, len(firsts))
    del firsts
    distinct = set(chunk_words)
    dropped = None in distinct
    distinct.discard(None)
    words = sorted(distinct)
    del distinct
    index = dict(zip(words, range(len(words))))
    # The word id of the chunk first found at each place (``next(places)``
    # is the number of chunks); -1 for a chunk that is dropped.
    word_at = np.empty(next(places), np.int32)
    word_at[first_places] = np.fromiter(map(index.get, chunk_words, repeat(-1)), np.int32,
                                        len(chunk_words))
    del chunk_words, first_places, index
    ids = (word_at[chunks] for chunks in chunk_places)
    return words, [found[found >= 0] for found in ids] if dropped else list(ids)


def encode(texts: Iterable[str], config: TokenizeConfig = DEFAULT_CONFIG
           ) -> tuple[list[str], list[np.ndarray]]:
    """``tokenize`` of every text, as integer ids over one word list.

    Returns the texts' distinct words in sorted order, and for each text an
    int32 array of its words' places in that list, in text order: the
    words of ``tokenize(text, config)``. Each distinct chunk is normalized
    once, however many texts hold it, and nothing is kept between calls.
    """
    return _code((text.split() for text in texts), lambda chunk: _normalize(chunk, config))


def encode_tokens(seqs: Iterable[TokenSequence]) -> tuple[list[str], list[np.ndarray]]:
    """``encode`` of token sequences already normalized: their tokens are
    the words, and ids rise with sorted word order as ``encode``'s do."""
    return _code((seq.tokens for seq in seqs), lambda token: token)

