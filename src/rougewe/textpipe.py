"""Text input, normalization and n-gram / skip-bigram extraction.

Everything here is pure: the same raw text and config always produce the
same tokens, and extraction output depends only on the token sequence.
"""

from __future__ import annotations

import string
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterator

from ._porter import porter_stem

_STRIP_CHARS = string.punctuation + "‘’“”–—…"

# A multiset of scoring units: each unit is its word tuple, mapped to its count.
Units = Counter[tuple[str, ...]]


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


def read_text(path: str | Path) -> str:
    """A UTF-8 file's text, less one leading byte-order mark (U+FEFF); a
    decoding error's offsets count the mark's bytes, as the file does."""
    return Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword list: one word per line, blanks ignored, lowercased."""
    words = []
    for line in read_text(path).splitlines():
        word = line.strip()
        if word:
            words.append(word.lower())
    return frozenset(words)


def tokenize(raw: str, config: TokenizeConfig = DEFAULT_CONFIG, source_id: str = "") -> TokenSequence:
    """Split raw text into normalized word tokens.

    Tokens are whitespace-delimited chunks with leading/trailing
    punctuation stripped, then lowercased, as the embedding loaders key
    every word; chunks that are pure punctuation disappear. Empty or
    whitespace-only input yields an empty sequence. Every kept token is
    interned, so a word is one ``str`` object in all the texts it occurs
    in: one copy in memory, and unit lookups that compare it by identity.
    """
    tokens: list[str] = []
    for chunk in raw.split():
        word = chunk.strip(_STRIP_CHARS)
        if not word:
            continue
        word = word.lower()
        if config.stopwords is not None and word in config.stopwords:
            continue
        if config.stem:
            word = porter_stem(word)
        tokens.append(sys.intern(word))
    return TokenSequence(tuple(tokens), source_id=source_id)


def ngram_stream(seq: TokenSequence, n: int) -> Iterator[tuple[str, ...]]:
    """Contiguous n-grams of ``seq`` (word tuples), in order, one per
    occurrence: max(0, len(seq) - n + 1) of them."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    toks = seq.tokens
    return zip(*(toks[i:] for i in range(n)))


def skip_bigram_stream(seq: TokenSequence, max_skip: int) -> Iterator[tuple[str, str]]:
    """Ordered in-sentence word pairs with at most ``max_skip`` words between,
    one per occurrence, grouped by skip distance.

    Every pair (w_i, w_j) with i < j and j - i - 1 <= max_skip is yielded.
    The skip distance only bounds the window: a unit is its two words.
    """
    if max_skip < 0:
        raise ValueError(f"max_skip must be >= 0, got {max_skip}")
    toks = seq.tokens
    return chain.from_iterable(zip(toks, toks[skip + 1:])
                               for skip in range(min(max_skip + 1, len(toks))))


def extract_ngrams(seq: TokenSequence, n: int) -> Units:
    """The multiset of ``ngram_stream``; shorter sequences give an empty one."""
    return Counter(ngram_stream(seq, n))


def extract_skip_bigrams(seq: TokenSequence, max_skip: int) -> Units:
    """The multiset of ``skip_bigram_stream``."""
    return Counter(skip_bigram_stream(seq, max_skip))
