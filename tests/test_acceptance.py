"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own output.
"""

import itertools
import struct
import time
from collections import Counter

import numpy as np
import pytest
import scipy.stats
from click.testing import CliRunner

from rougewe.cli import main as cli_main
from rougewe.correlation import correlation_triple
from rougewe.embeddings import load_binary
from rougewe.harness import (MetricConfig, common_systems, encode_corpus, load_corpus,
                             load_judgments, meta_evaluate, score_corpus)
from rougewe.rouge import (
    ROUGE_1,
    ROUGE_2,
    ROUGE_SU4,
    MatchFunction,
    rouge_score,
)
from rougewe.textpipe import tokenize

from conftest import build_synthetic_corpus, identity_table, save_binary
from greedy_oracle import greedy_soft_overlap, pair_similarity


def _criterion(number: int, name: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {number} {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} {name} failed {suffix}"


def test_criterion_1_identity_embedding_oracle():
    rng = np.random.default_rng(20240601)
    vocab = [f"w{i}" for i in range(50)]
    table = identity_table(vocab)
    exact = MatchFunction.exact()
    we = MatchFunction.we(table, oov_policy="exact-fallback")
    variants = (ROUGE_1, ROUGE_2, ROUGE_SU4)

    start = time.monotonic()
    worst = 0.0
    for _ in range(1000):
        cand = tuple(rng.choice(vocab, size=rng.integers(0, 31)))
        ref = tuple(rng.choice(vocab, size=rng.integers(1, 31)))
        for variant in variants:
            a = rouge_score(cand, [ref], variant, exact)
            b = rouge_score(cand, [ref], variant, we)
            worst = max(worst, abs(a.recall - b.recall), abs(a.precision - b.precision),
                        abs(a.f1 - b.f1))
    elapsed = time.monotonic() - start
    _criterion(1, "identity-embedding oracle", worst <= 1e-9 and elapsed < 10.0,
               f"worst diff {worst:.2e}, {elapsed:.1f}s over 1000 pairs x 3 variants")


def test_criterion_2_hand_computed_fixtures():
    cand = tokenize("It is raining heavily")
    ref = tokenize("It is pouring")
    exact = MatchFunction.exact()

    r1 = rouge_score(cand, [ref], ROUGE_1, exact)
    r2 = rouge_score(cand, [ref], ROUGE_2, exact)
    su4 = rouge_score(cand, [ref], ROUGE_SU4, exact)

    # SU4 by hand: cand has C(4,2)=6 skip-bigrams + 4 unigrams = 10 units,
    # ref has 3 + 3 = 6; overlap is {(it,is)} plus unigrams {it, is} = 3.
    ok = (
        r1.recall == pytest.approx(2 / 3, abs=0)
        and r2.recall == pytest.approx(1 / 2, abs=0)
        and su4.soft_match_count == 3.0
        and su4.cand_total == 10
        and su4.ref_total == 6
        and su4.recall == 0.5
        and su4.precision == 0.3
    )
    _criterion(2, "hand-computed fixtures", ok,
               f"rouge-1 R={r1.recall}, rouge-2 R={r2.recall}, su4 soft={su4.soft_match_count}")


def _optimal_assignment(ref_instances, cand_instances, simfn) -> float:
    """Exhaustive maximum-weight one-to-one assignment (small sides only)."""
    if len(ref_instances) <= len(cand_instances):
        best = 0.0
        for chosen in itertools.permutations(range(len(cand_instances)), len(ref_instances)):
            best = max(best, sum(
                simfn(ref_instances[i], cand_instances[j]) for i, j in enumerate(chosen)
            ))
        return best
    best = 0.0
    for chosen in itertools.permutations(range(len(ref_instances)), len(cand_instances)):
        best = max(best, sum(
            simfn(ref_instances[i], cand_instances[j]) for j, i in enumerate(chosen)
        ))
    return best


def _random_unigram_multiset(rng, vocab) -> Counter:
    return Counter((word,) for word in rng.choice(vocab, size=rng.integers(0, 7)))


def test_criterion_3_soft_overlap_oracle():
    rng = np.random.default_rng(7)
    vocab = ["a", "b", "c", "d", "e"]
    start = time.monotonic()
    worst_excess = -np.inf
    exact_mismatches = 0
    f_exact = pair_similarity(MatchFunction.exact())
    for _ in range(500):
        cand = _random_unigram_multiset(rng, vocab)
        ref = _random_unigram_multiset(rng, vocab)
        cand_instances = list(cand.elements())
        ref_instances = list(ref.elements())

        sim_table = {
            (w1, w2): 0.0 if rng.random() < 0.4 else float(rng.random())
            for w1 in vocab for w2 in vocab
        }
        random_sim = lambda g1, g2: sim_table[(g1[0], g2[0])]
        greedy = greedy_soft_overlap(cand, ref, random_sim)
        optimal = _optimal_assignment(ref_instances, cand_instances, random_sim)
        worst_excess = max(worst_excess, greedy - optimal)

        greedy_exact = greedy_soft_overlap(cand, ref, f_exact)
        optimal_exact = _optimal_assignment(ref_instances, cand_instances, f_exact)
        clipped = sum((cand & ref).values())
        if not (greedy_exact == optimal_exact == float(clipped)):
            exact_mismatches += 1
    elapsed = time.monotonic() - start
    _criterion(3, "soft-overlap oracle",
               worst_excess <= 1e-9 and exact_mismatches == 0 and elapsed < 30.0,
               f"max greedy-optimal excess {worst_excess:.2e}, "
               f"{exact_mismatches} exact mismatches, {elapsed:.1f}s over 500 multiset pairs")


def _brute_force_tau_b(x, y) -> float:
    n = len(x)
    con_minus_dis = 0
    tied_x = tied_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = int(x[i] > x[j]) - int(x[i] < x[j])
            dy = int(y[i] > y[j]) - int(y[i] < y[j])
            con_minus_dis += dx * dy
            tied_x += dx == 0
            tied_y += dy == 0
    n0 = n * (n - 1) // 2
    tau = con_minus_dis / np.sqrt((n0 - tied_x) * (n0 - tied_y))
    return max(-1.0, min(1.0, tau))  # tau-b is in [-1, 1] by definition


def test_criterion_4_correlation_oracles():
    rng = np.random.default_rng(99)
    checked = 0
    kendall_exact = True
    spearman_worst = 0.0
    while checked < 200:
        n = int(rng.integers(2, 50))
        # coarse integer grids force plenty of ties
        x = rng.integers(0, max(2, n // 3), size=n).astype(float)
        y = rng.integers(0, max(2, n // 3), size=n).astype(float)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        checked += 1
        _, spearman, kendall = correlation_triple(x, y)
        if kendall != _brute_force_tau_b(x, y):
            kendall_exact = False
        ranks = correlation_triple(scipy.stats.rankdata(x), scipy.stats.rankdata(y))[0]
        spearman_worst = max(spearman_worst, abs(spearman - ranks))

    closed_forms = (
        correlation_triple([1, 2, 3, 4], [1, 3, 2, 4])[0] == 0.8
        and correlation_triple([1, 2, 3], [1, 3, 2])[1:] == (0.5, 1 / 3)
    )
    _criterion(4, "correlation oracles",
               kendall_exact and spearman_worst <= 1e-12 and closed_forms,
               f"200 tied vectors, kendall exact={kendall_exact}, "
               f"spearman-vs-ranks worst {spearman_worst:.2e}, closed forms {closed_forms}")


def test_criterion_5_embedding_round_trip(tmp_path):
    fixture = tmp_path / "toy.bin"
    blob = b"2 3\n"
    blob += b"cat " + struct.pack("<3f", 0.3, -1.2, 0.05) + b"\n"
    blob += b"dog " + struct.pack("<3f", 2.0, 2.0, 1.0) + b"\n"
    fixture.write_bytes(blob)

    first = load_binary(fixture)
    copy = tmp_path / "copy.bin"
    save_binary(first, copy)
    second = load_binary(copy)

    identical = (
        first.dim == second.dim
        and list(first.words()) == list(second.words())
        and all(np.array_equal(first.lookup(w), second.lookup(w)) for w in first.words())
    )
    worst_norm = max(
        abs(float(np.linalg.norm(np.asarray(first.lookup(w), dtype=np.float64))) - 1.0)
        for w in first.words()
    )
    _criterion(5, "embedding round-trip", identical and worst_norm <= 1e-6,
               f"identical={identical}, worst |norm-1| = {worst_norm:.2e}")


@pytest.fixture(scope="module")
def synthetic(tmp_path_factory):
    root = tmp_path_factory.mktemp("synthetic")
    return build_synthetic_corpus(root, n_systems=10, n_topics=3)


def test_criterion_6_synthetic_meta_eval(synthetic):
    corpus_dir, judgments_path, system_ids, quality = synthetic
    start = time.monotonic()
    topics = load_corpus(corpus_dir)
    metrics = [MetricConfig(v) for v in (ROUGE_1, ROUGE_2, ROUGE_SU4)]
    scores = score_corpus(topics, metrics, coding=encode_corpus(topics))
    rhos = {}
    for metric in metrics:
        vec = scores[metric.name]
        assert list(vec) == list(system_ids)
        rhos[metric.name] = correlation_triple(list(vec.values()), quality)[1]
    judgments = load_judgments(judgments_path)
    report = meta_evaluate(scores, judgments, common_systems(system_ids, judgments))
    elapsed = time.monotonic() - start

    ok = all(rho >= 0.9 for rho in rhos.values()) and len(report.rows) == 9 and elapsed < 60.0
    detail = ", ".join(f"{name} rho={rho:.3f}" for name, rho in rhos.items())
    _criterion(6, "synthetic meta-eval", ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_7_meta_eval_determinism(synthetic, tmp_path):
    corpus_dir, judgments_path, _, _ = synthetic
    runner = CliRunner()
    out = tmp_path / "out"
    args = [
        "meta-eval", "--corpus", str(corpus_dir), "--judgments", str(judgments_path),
        "--out", str(out),
    ]
    outputs = []
    reports = []
    for _ in range(2):
        result = runner.invoke(cli_main, args)
        assert result.exit_code == 0, result.output
        outputs.append(result.output)
        reports.append(((out / "report.csv").read_bytes(), (out / "report.json").read_bytes()))
    csv_same = reports[0][0] == reports[1][0]
    json_same = reports[0][1] == reports[1][1]
    stdout_same = outputs[0] == outputs[1]
    _criterion(7, "meta-eval determinism", csv_same and json_same and stdout_same,
               f"csv identical={csv_same}, json identical={json_same}, stdout identical={stdout_same}")
