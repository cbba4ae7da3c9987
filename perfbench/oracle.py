"""Independent oracle: expected scores and correlations from the generator's tokens.

Nothing here imports ``rougewe``. Units are ``collections.Counter``s of word
tuples; exact matching is clipped counting; embedding matching reads the
vector file with its own reader, composes n-grams by element-wise product and
runs a plain sequential greedy assignment. Per-system means go through
``scipy.stats``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
from scipy import stats

# Documented load rules of the word2vec binary reader.
NORM_TOLERANCE = 1e-6
ZERO_NORM_TOLERANCE = 1e-12


def parse_variant(name: str) -> tuple[str, int]:
    """``rouge-N`` -> ("n", N); ``rouge-suK`` -> ("su", K)."""
    tail = name.split("-", 1)[1]
    if tail.startswith("su"):
        return "su", int(tail[2:])
    return "n", int(tail)


def metric_name(variant: str, match: str) -> str:
    return variant.replace("rouge-", "rouge-we-", 1) if match == "we" else variant


def units(tokens: list[str], variant: str) -> Counter:
    """The multiset a variant scores: contiguous n-grams, or skip-bigrams with
    at most K words between plus unigrams."""
    family, k = parse_variant(variant)
    if family == "n":
        return Counter(zip(*(tokens[i:] for i in range(k))))
    grams = Counter(zip(tokens))
    for skip in range(k + 1):
        grams.update(zip(tokens, tokens[skip + 1:]))
    return grams


def clipped_count(cand: Counter, ref: Counter) -> float:
    return float(sum(min(cand[w], ref[w]) for w in cand.keys() & ref.keys()))


@dataclass
class VectorFile:
    """What the documented load rules leave for the words the oracle needs."""

    vectors: dict[str, np.ndarray]  # lowercased key -> float32 vector
    entries: int = 0
    duplicates: int = 0
    case_collisions: int = 0
    zero_dropped: int = 0


def read_vectors(path, wanted: set[str] | None = None) -> VectorFile:
    """Read a word2vec binary file: lowercased keys, repeats of one form last
    wins, distinct forms that collide after lowercasing first wins, zero
    vectors dropped, near-unit vectors kept as stored. Counts cover the whole
    file; only keys in ``wanted`` (all when None) keep their vectors."""
    data = open(path, "rb").read()
    header_end = data.index(b"\n")
    count, dim = (int(f) for f in data[:header_end].split())
    out = VectorFile({}, entries=count)
    source_form: dict[str, str] = {}
    pos = header_end + 1
    for _ in range(count):
        while data[pos] == 0x0A:
            pos += 1
        space = data.index(b" ", pos)
        word = data[pos:space].decode("utf-8")
        pos = space + 1
        raw = np.frombuffer(data, dtype="<f4", count=dim, offset=pos)
        pos += 4 * dim
        norm = float(np.sqrt(np.dot(raw.astype(np.float64), raw.astype(np.float64))))
        if norm < ZERO_NORM_TOLERANCE:
            out.zero_dropped += 1
            continue
        key = word.lower()
        if key in source_form:
            if source_form[key] != word:
                out.case_collisions += 1
                continue
            out.duplicates += 1
        source_form[key] = word
        if wanted is None or key in wanted:
            vec = raw.astype(np.float32)
            if abs(norm - 1.0) > NORM_TOLERANCE:
                vec = (raw.astype(np.float64) / norm).astype(np.float32)
            out.vectors[key] = vec
    return out


class SoftMatcher:
    """Greedy one-to-one soft assignment over composed n-gram vectors."""

    def __init__(self, vectors: dict[str, np.ndarray], oov: str):
        self.vectors = vectors
        self.oov = oov
        self._composed: dict[tuple[str, ...], np.ndarray | None] = {}

    def compose(self, words: tuple[str, ...]) -> np.ndarray | None:
        if words not in self._composed:
            vecs = [self.vectors.get(w) for w in sorted(words)]
            if any(v is None for v in vecs):
                out = None
            elif len(vecs) == 1:
                out = vecs[0].astype(np.float64)
            else:
                prod = np.ones(len(vecs[0]), dtype=np.float64)
                for v in vecs:
                    prod = prod * v
                norm = float(np.sqrt(np.dot(prod, prod)))
                out = prod / norm if norm >= ZERO_NORM_TOLERANCE else None
            self._composed[words] = out
        return self._composed[words]

    def overlap(self, cand: Counter, ref: Counter) -> float:
        total = 0.0
        for length in sorted({len(w) for w in ref}):
            ref_units = sorted(w for w in ref if len(w) == length)
            cand_units = sorted(w for w in cand if len(w) == length)
            if cand_units:
                total += self._greedy(ref_units, cand_units, ref, cand)
        return total

    def _greedy(self, ref_units, cand_units, ref: Counter, cand: Counter) -> float:
        """Take pairs in descending similarity, ties by reference then
        candidate unit order, each consuming min(remaining) instances."""
        rv = [self.compose(w) for w in ref_units]
        cv = [self.compose(w) for w in cand_units]
        ri_known = [i for i, v in enumerate(rv) if v is not None]
        ci_known = [j for j, v in enumerate(cv) if v is not None]
        sim_list: list[float] = []
        r_list: list[int] = []
        c_list: list[int] = []
        if ri_known and ci_known:
            sims = np.clip(np.stack([rv[i] for i in ri_known])
                           @ np.stack([cv[j] for j in ci_known]).T, 0.0, 1.0)
            rr, cc = np.nonzero(sims > 0.0)
            sim_list = sims[rr, cc].tolist()
            r_list = np.asarray(ri_known)[rr].tolist()
            c_list = np.asarray(ci_known)[cc].tolist()
        if self.oov == "exact-fallback":
            cand_index = {w: j for j, w in enumerate(cand_units)}
            for i, w in enumerate(ref_units):
                if rv[i] is None and w in cand_index:
                    sim_list.append(1.0)
                    r_list.append(i)
                    c_list.append(cand_index[w])
        order = np.lexsort((c_list, r_list, -np.asarray(sim_list, dtype=np.float64)))
        rem_r = [ref[w] for w in ref_units]
        rem_c = [cand[w] for w in cand_units]
        left_r, left_c = sum(rem_r), sum(rem_c)
        total = 0.0
        for k in order.tolist():
            i, j = r_list[k], c_list[k]
            take = min(rem_r[i], rem_c[j])
            if take:
                total += take * sim_list[k]
                rem_r[i] -= take
                rem_c[j] -= take
                left_r -= take
                left_c -= take
                if not left_r or not left_c:
                    break
        return total


def sample_keys(topic_ids: list[str], system_ids: list[str], models: int
                ) -> list[tuple[str, str, int]]:
    """A fixed, seed-independent choice of (topic, system, model) pairs."""
    picks = [(0, 0, 0), (0, -1, models - 1), (-1, len(system_ids) // 2, 1 % models),
             (-1, 1 % len(system_ids), 2 % models)]
    return sorted({(topic_ids[t], system_ids[s], m) for t, s, m in picks})


def expected_scores(tokens, system_ids, human, variants: list[str], match: str,
                    matcher: SoftMatcher | None) -> dict:
    """Score every pair, correlate the per-system mean recalls with each
    judgment column, and keep the sampled pairs' scores."""
    topic_ids = sorted(tokens)
    models = len(tokens[topic_ids[0]][0])
    sampled = set(sample_keys(topic_ids, system_ids, models))
    out = {"system_ids": system_ids, "correlations": [], "sample": []}
    for variant in variants:
        name = metric_name(variant, match)
        sums = dict.fromkeys(system_ids, 0.0)
        for topic_id in topic_ids:
            model_toks, systems = tokens[topic_id]
            refs = [units(m, variant) for m in model_toks]
            for system_id in system_ids:
                cand = units(systems[system_id], variant)
                cand_total = sum(cand.values())
                recalls = []
                for m, ref in enumerate(refs):
                    ref_total = sum(ref.values())
                    exact = clipped_count(cand, ref)
                    soft = exact if matcher is None else matcher.overlap(cand, ref)
                    recalls.append(soft / ref_total if ref_total else 0.0)
                    if (topic_id, system_id, m) in sampled:
                        out["sample"].append({
                            "variant": variant, "topic": topic_id, "system": system_id,
                            "model": m, "soft": soft, "exact": exact,
                            "ref_total": ref_total, "cand_total": cand_total})
                sums[system_id] += sum(recalls) / len(recalls)
        x = np.array([sums[s] / len(topic_ids) for s in system_ids])
        for judgment in ("pyramid", "responsiveness", "readability"):
            y = np.array([human[s][judgment] for s in system_ids])
            out["correlations"].append({
                "metric": name, "judgment": judgment,
                "pearson": float(stats.pearsonr(x, y)[0]),
                "spearman": float(stats.spearmanr(x, y)[0]),
                "kendall": float(stats.kendalltau(x, y)[0]),
            })
    return out


def positive_sim_density(vectors: list[np.ndarray], seed: int, n: int = 100_000) -> float:
    """Share of positive cosines over random pairs of distinct word vectors."""
    if len(vectors) < 2:
        return 0.0
    mat = np.stack(vectors).astype(np.float64)
    rng = np.random.default_rng([seed, 3])
    i = rng.integers(0, len(mat), size=n)
    j = rng.integers(0, len(mat), size=n)
    i, j = i[i != j], j[i != j]
    positive = 0
    for start in range(0, len(i), 10_000):  # bounded memory
        a, b = mat[i[start:start + 10_000]], mat[j[start:start + 10_000]]
        positive += int(np.count_nonzero(np.einsum("ij,ij->i", a, b) > 0.0))
    return positive / len(i)
