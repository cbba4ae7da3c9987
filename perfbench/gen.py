"""Seeded input generator: corpus tree, judgments CSV and word2vec-binary vectors.

Everything is a pure function of (workload shape, seed). The generator also
returns the token lists it rendered, so the oracle never has to re-tokenize
the text the program reads.

Vectors are written by :func:`write_word2vec` below, never by the program's
``save_binary``: a change to the program's reader cannot be masked by a
matching change to its writer.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import Shape

ZIPF_EXPONENT = 1.05
DIM = 300
MODEL_KEEP = 0.6  # share of the topic's base tokens each model summary keeps
JUDGMENT_COLUMNS = ("pyramid", "responsiveness", "readability")


@dataclass
class Inputs:
    corpus: Path
    judgments: Path
    vectors: Path | None
    # topic id -> (model token lists, {system id: token list})
    tokens: dict[str, tuple[list[list[str]], dict[str, list[str]]]]
    system_ids: list[str]
    human: dict[str, dict[str, float]]  # system id -> judgment column -> value
    vocab: list[str]


def make_vocab(rng: np.random.Generator, n: int, taken: set[str] = frozenset()) -> list[str]:
    """``n`` distinct lowercase ASCII words that are not in ``taken``."""
    letters = np.array(list(string.ascii_lowercase))
    words: list[str] = []
    seen = set(taken)
    while len(words) < n:
        lengths = rng.integers(3, 11, size=n)
        chars = rng.integers(0, 26, size=(n, 10))
        for length, row in zip(lengths, chars):
            word = "".join(letters[row[:length]])
            if word not in seen:
                seen.add(word)
                words.append(word)
                if len(words) == n:
                    break
    return words


def _zipf_cdf(n: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** ZIPF_EXPONENT
    return np.cumsum(weights) / weights.sum()


def _render(tokens: list[str], rng: np.random.Generator) -> str:
    """Sentences of 12-24 words: capitalized first word, a period at the end,
    an occasional comma. The tokenizer must strip all of it again."""
    out = []
    next_break = int(rng.integers(12, 25))
    start = True
    for i, tok in enumerate(tokens):
        word = tok.capitalize() if start else tok
        start = False
        if i + 1 == len(tokens) or i + 1 == next_break:
            word += "."
            start = True
            next_break = i + 1 + int(rng.integers(12, 25))
        elif rng.random() < 0.06:
            word += ","
        out.append(word)
    return " ".join(out)


def build_corpus(shape: Shape, seed: int, root: Path, vocab: list[str]) -> Inputs:
    """Write ``corpus/`` and ``judgments.csv`` under ``root``.

    Planted quality: system k keeps a share of one model summary's tokens that
    falls with k (plus per-topic noise) and fills the rest with Zipf draws.
    Judgments follow the mean kept share plus seeded noise, so correlations
    are high but not 1.

    Draws are stratified (one uniform per 1/k slice, in shuffled order) and
    masks cover an exact share of positions. A summary then has nearly the
    same profile of repeated frequency ranks whatever the seed, and the
    number of distinct units, which sets the cost of a WE pair, varies
    little between seeds; only the words and their order change.

    With ``shape.layout_seed`` set, the layout (which frequency rank sits at
    each position, the masks, the lengths, the system shares and the
    punctuation) comes from that fixed stream instead of the seed, so every
    seed does the same amount of work; the seed still draws every word
    string, the vectors and the judgments' noise.
    """
    rng = np.random.default_rng([seed, 1])
    layout = rng if shape.layout_seed is None else np.random.default_rng([shape.layout_seed, 1])
    cdf = _zipf_cdf(len(vocab))

    def draw(k: int) -> list[str]:
        u = (layout.permutation(k) + layout.random(k)) / k
        return [vocab[i] for i in np.searchsorted(cdf, u, side="right")]

    def mask(k: int, share: float) -> np.ndarray:
        """True at exactly round(share * k) random positions of k."""
        return layout.permutation(k) < round(share * k)

    system_ids = [f"sys{k:02d}" for k in range(shape.systems)]
    keep = np.linspace(0.85, 0.15, shape.systems) if shape.systems > 1 else np.array([0.5])
    kept_sum = np.zeros(shape.systems)
    tokens: dict[str, tuple[list[list[str]], dict[str, list[str]]]] = {}
    corpus = root / "corpus"
    for t in range(shape.topics):
        topic_id = f"topic{t:02d}"
        jitter = shape.summary_len // 16
        base = draw(shape.summary_len + jitter)
        models = []
        for _ in range(shape.models):
            length = shape.summary_len + int(layout.integers(-jitter, jitter + 1))
            model = base[:length]
            fresh = draw(length)
            kept = mask(length, MODEL_KEEP)
            models.append([w if m else f for w, f, m in zip(model, fresh, kept)])
        systems = {}
        for k, system_id in enumerate(system_ids):
            share = float(np.clip(keep[k] + layout.uniform(-0.05, 0.05), 0.0, 1.0))
            kept_sum[k] += share
            source = models[(k + t) % shape.models]
            fresh = draw(len(source))
            kept = mask(len(source), share)
            systems[system_id] = [w if m else f for w, f, m in zip(source, fresh, kept)]
        tokens[topic_id] = (models, systems)

        (corpus / topic_id / "models").mkdir(parents=True, exist_ok=True)
        (corpus / topic_id / "systems").mkdir(parents=True, exist_ok=True)
        for m, toks in enumerate(models):
            (corpus / topic_id / "models" / f"m{m}.txt").write_text(_render(toks, layout) + "\n",
                                                                   encoding="utf-8")
        for system_id, toks in systems.items():
            (corpus / topic_id / "systems" / f"{system_id}.txt").write_text(
                _render(toks, layout) + "\n", encoding="utf-8")

    quality = kept_sum / shape.topics
    noise = rng.normal(size=(shape.systems, 3))
    human = {}
    for k, system_id in enumerate(system_ids):
        q = float(quality[k])
        human[system_id] = {
            "pyramid": round(float(q + 0.05 * noise[k, 0]), 6),
            "responsiveness": round(float(1 + 4 * q + 0.4 * noise[k, 1]), 6),
            "readability": round(float(3 + 0.8 * q + 0.3 * noise[k, 2]), 6),
        }
    judgments = root / "judgments.csv"
    lines = ["system_id," + ",".join(JUDGMENT_COLUMNS)]
    for system_id in system_ids:
        lines.append(system_id + "," + ",".join(repr(human[system_id][c])
                                                for c in JUDGMENT_COLUMNS))
    judgments.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Inputs(corpus, judgments, None, tokens, system_ids, human, vocab)


def write_word2vec(path: Path, entries: list[tuple[str, np.ndarray]], dim: int) -> None:
    """The word2vec binary layout: ``"<count> <dim>\\n"``, then per entry the
    UTF-8 word, one space, ``dim`` little-endian float32 values and a newline."""
    with open(path, "wb") as fh:
        fh.write(f"{len(entries)} {dim}\n".encode("ascii"))
        for word, vec in entries:
            fh.write(word.encode("utf-8") + b" " + np.asarray(vec, dtype="<f4").tobytes() + b"\n")


def _unit_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    out = np.empty((n, DIM), dtype=np.float32)
    for start in range(0, n, 8192):
        block = rng.standard_normal((min(8192, n - start), DIM))
        out[start:start + len(block)] = block / np.linalg.norm(block, axis=1, keepdims=True)
    return out


def build_vectors(shape: Shape, seed: int, root: Path, inputs: Inputs) -> Path:
    """Write ``vectors.bin``: ``big_entries`` random 300-d unit vectors,
    most of them for filler words the corpus never uses. A share of the
    vocabulary is left out, and duplicates (last wins), case collisions (first
    wins; half the colliding forms come first) and zero vectors are planted on
    words the corpus uses, so the load rules decide scores.
    """
    rng = np.random.default_rng([seed, 2])
    vocab = inputs.vocab
    path = root / "vectors.bin"
    # Absent and planted words sit at fixed frequency ranks (``vocab`` is in
    # Zipf rank order).
    stride = round(1 / shape.absent_share)
    present = [w for i, w in enumerate(vocab) if i % stride != stride - 1]
    used = {w for models, systems in inputs.tokens.values()
            for toks in [*models, *systems.values()] for w in toks}
    p = shape.planted
    used_present = [w for w in present if w in used]
    planted = used_present[::max(1, len(used_present) // (3 * p))][:3 * p]
    if len(planted) < 3 * p:
        raise ValueError("the corpus uses too few words to plant load-rule cases on")
    dup_words, collide_words, zero_words = planted[0::3], planted[1::3], planted[2::3]
    n_filler = shape.big_entries - len(present) - 2 * p
    if n_filler < 0:
        raise ValueError("big_entries too small for the vocabulary it must hold")
    filler = make_vocab(rng, n_filler, taken=set(vocab))
    zero_filler = set(filler[:p // 2])
    words = present + filler
    words = [words[i] for i in rng.permutation(len(words))]
    rows = _unit_rows(rng, len(words) + 2 * p)
    zero = np.zeros(DIM, dtype=np.float32)

    entries: list[tuple[str, np.ndarray]] = []
    extra = iter(rows[len(words):])
    zero_set = set(zero_words) | zero_filler
    collide_first = set(collide_words[: p // 2])
    collide_after = set(collide_words[p // 2:])
    for word, row in zip(words, rows):
        if word in collide_first:
            entries.append((word.upper(), next(extra)))
        entries.append((word, zero if word in zero_set else row))
        if word in collide_after:
            entries.append((word.capitalize(), next(extra)))
    # Repeats of the same form go after all first occurrences: last wins.
    for word in dup_words:
        entries.append((word, next(extra)))
    write_word2vec(path, entries, DIM)
    return path


def generate(shape: Shape, seed: int, root: Path) -> Inputs:
    """Write every input of one workload under ``root``."""
    root.mkdir(parents=True, exist_ok=True)
    vocab = make_vocab(np.random.default_rng([seed, 0]), shape.vocab)
    inputs = build_corpus(shape, seed, root, vocab)
    if shape.match == "we":
        inputs.vectors = build_vectors(shape, seed, root, inputs)
    return inputs
