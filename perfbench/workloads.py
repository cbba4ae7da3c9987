"""Workload shapes. Standard library only: the launching process imports this
before any measured round, and must stay small (see ``run.py``)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Shape:
    """The make-up of one workload's inputs."""

    topics: int
    systems: int
    models: int
    metrics: str
    match: str
    oov: str = "zero"
    # The vector file of a WE workload (match "we"):
    big_entries: int = 0  # total entries, most of them words the corpus never uses
    absent_share: float = 0.0  # share of the vocabulary missing from the file
    planted: int = 0  # duplicates, case collisions and zero vectors planted, of each kind
    vocab: int = 20_000
    summary_len: int = 100  # tokens per summary, give or take summary_len // 16
    layout_seed: int | None = None  # a fixed stream for the corpus layout (see gen.py)
    # Nominal seconds of one round on the reference machine, rounded up so
    # that a run stays within the time its workload is given. A run makes
    # max(1, round(seconds / round_s)) rounds, the same number every time, so
    # that a fault that fails every time fails the same share of attempts.
    round_s: float = 5.0

    @property
    def variants(self) -> list[str]:
        return self.metrics.split(",")

    @property
    def pairs(self) -> int:
        """(metric, system, topic, model summary) pairs one meta-eval scores."""
        return len(self.variants) * self.systems * self.topics * self.models


# aesop-exact: the TAC 2011 AESOP-shaped workload of record (a quarter of its
#   44 topics per round); text extraction and exact overlap do the work,
#   embeddings are never touched.
# aesop-we: one topic of the same generator, eight systems sharing its two
#   references, against a 100k-entry vector file with planted load-rule
#   cases; the greedy soft assignment decides the time in score_corpus,
#   loading the file decides set-up time and peak memory, and the
#   exact-fallback branch for OOV units runs. One topic has too few pairs to
#   average out a seed's summary lengths and repeats, whose products set the
#   cost of a pair, so its layout comes from a fixed stream; the seed draws
#   the words, the vectors and the judgments' noise.
WORKLOADS = {
    "aesop-exact": Shape(topics=11, systems=51, models=4,
                         metrics="rouge-1,rouge-2,rouge-su4", match="exact", round_s=7.0),
    "aesop-we": Shape(topics=1, systems=8, models=2,
                      metrics="rouge-1,rouge-2,rouge-su4", match="we", oov="exact-fallback",
                      big_entries=100_000, absent_share=0.1, planted=10, layout_seed=0,
                      round_s=11.0),
}

# The same workloads at a size that runs in seconds, for the self-test.
QUICK = {
    "aesop-exact": Shape(topics=3, systems=6, models=4,
                         metrics="rouge-1,rouge-2,rouge-su4", match="exact",
                         vocab=2000, summary_len=40),
    "aesop-we": Shape(topics=1, systems=4, models=2,
                      metrics="rouge-1,rouge-2,rouge-su4", match="we", oov="exact-fallback",
                      big_entries=5000, absent_share=0.1, planted=5, vocab=2000,
                      summary_len=30, layout_seed=0),
}
