import json
import os
import platform
import shutil
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

import rougewe
from rougewe import cli, embeddings, harness, rouge
from rougewe.cli import DEFAULT_METRICS, main
from rougewe.embeddings import FORMATS, LoadSummary, load_binary
from rougewe.harness import MetricConfig
from rougewe.rouge import RougeVariant, rouge_score
from rougewe.textpipe import TokenizeConfig, tokenize

from conftest import gaussian_table, save_binary, write_corpus


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def weather_files(tmp_path):
    cand = tmp_path / "cand.txt"
    cand.write_text("It is raining heavily.", encoding="utf-8")
    ref = tmp_path / "ref.txt"
    ref.write_text("It is pouring", encoding="utf-8")
    return cand, ref


@pytest.fixture
def toy_embeddings_text(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text(
        "it 1 0 0 0\nis 0 1 0 0\nraining 0 0 1 0\nheavily 0 0 0 1\npouring 0 0.6 0.8 0\n",
        encoding="utf-8",
    )
    return path


def spy_on_loader(monkeypatch, fmt: str) -> list[dict]:
    """Record each call of ``embeddings.load_<fmt>`` (its keyword arguments and
    the table it returned), still loading through it. The spy replaces the
    module's name, as a tracer's wrapper does, so the CLI must look it up there."""
    calls = []
    real = getattr(embeddings, f"load_{fmt}")

    def spy(path, **kwargs):
        calls.append(dict(kwargs, table=real(path, **kwargs)))
        return calls[-1]["table"]

    monkeypatch.setattr(embeddings, f"load_{fmt}", spy)
    return calls


@pytest.fixture
def tiny_corpus(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    write_corpus(corpus, {
        "t1": ({"m1": "a b c d"}, {"s1": "a b c d", "s2": "a b x y", "s3": "x y z w"}),
        "t2": ({"m1": "e f g h"}, {"s1": "e f g h", "s2": "e f x y", "s3": "x y z w"}),
    })
    judgments = tmp_path / "judgments.csv"
    judgments.write_text(
        "system_id,pyramid,responsiveness,readability\n"
        "s1,0.9,4.5,4.0\ns2,0.5,3.0,3.2\ns3,0.1,1.0,1.5\n",
        encoding="utf-8",
    )
    return corpus, judgments


class TestScoreCommand:
    def test_identical_files_all_ones(self, runner, tmp_path):
        path = tmp_path / "same.txt"
        path.write_text("it is pouring", encoding="utf-8")
        result = runner.invoke(main, ["score", str(path), str(path)])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "rouge-1 R=1.000000 P=1.000000 F=1.000000"
        assert lines[1] == "rouge-2 R=1.000000 P=1.000000 F=1.000000"
        assert lines[2] == "rouge-su4 R=1.000000 P=1.000000 F=1.000000"

    def test_weather_pair_rouge2_recall(self, runner, weather_files):
        cand, ref = weather_files
        result = runner.invoke(main, ["score", str(cand), str(ref), "--metrics", "rouge-2"])
        assert result.exit_code == 0
        assert result.output == "rouge-2 R=0.500000 P=0.333333 F=0.400000\n"

    def test_missing_reference_fails(self, runner, weather_files, tmp_path):
        cand, _ = weather_files
        result = runner.invoke(main, ["score", str(cand), str(tmp_path / "absent.txt")])
        assert result.exit_code != 0

    def test_we_without_embeddings_is_config_error(self, runner, weather_files):
        cand, ref = weather_files
        result = runner.invoke(main, ["score", str(cand), str(ref), "--match", "we"])
        assert result.exit_code != 0
        assert "--embeddings" in result.output

    def test_we_with_text_embeddings(self, runner, weather_files, toy_embeddings_text):
        cand, ref = weather_files
        result = runner.invoke(main, [
            "score", str(cand), str(ref),
            "--metrics", "rouge-1", "--match", "we",
            "--embeddings", str(toy_embeddings_text), "--embeddings-format", "text",
        ])
        assert result.exit_code == 0
        assert result.output == "rouge-we-1 R=0.933333 P=0.700000 F=0.800000\n"

    def test_we_metrics_share_the_unigram_span(self, runner, weather_files, toy_embeddings_text,
                                               monkeypatch):
        # rouge-su4's unigrams are rouge-1's span: one assignment for them,
        # one for the skip-bigrams, and each line as the metric alone prints it.
        cand, ref = weather_files
        calls = []
        real = rouge._greedy_assign
        monkeypatch.setattr(rouge, "_greedy_assign",
                            lambda *args: calls.append(args[0].shape) or real(*args))

        def score(metrics):
            result = runner.invoke(main, [
                "score", str(cand), str(ref), "--metrics", metrics, "--match", "we",
                "--embeddings", str(toy_embeddings_text), "--embeddings-format", "text",
            ])
            assert result.exit_code == 0
            return result.output

        together = score("rouge-1,rouge-su4")
        assert len(calls) == 2
        assert together == score("rouge-1") + score("rouge-su4")

    def test_unknown_metric_fails(self, runner, weather_files):
        cand, ref = weather_files
        result = runner.invoke(main, ["score", str(cand), str(ref), "--metrics", "rouge-l"])
        assert result.exit_code != 0

    def test_multiple_references(self, runner, tmp_path):
        cand = tmp_path / "c.txt"
        cand.write_text("a b", encoding="utf-8")
        r1 = tmp_path / "r1.txt"
        r1.write_text("a b", encoding="utf-8")
        r2 = tmp_path / "r2.txt"
        r2.write_text("a x", encoding="utf-8")
        result = runner.invoke(main, ["score", str(cand), str(r1), str(r2), "--metrics", "rouge-1"])
        assert result.exit_code == 0
        assert result.output == "rouge-1 R=0.750000 P=0.750000 F=0.750000\n"

    def test_stopwords_flag(self, runner, tmp_path):
        cand = tmp_path / "c.txt"
        cand.write_text("the cat sat", encoding="utf-8")
        ref = tmp_path / "r.txt"
        ref.write_text("the dog sat", encoding="utf-8")
        stop = tmp_path / "stop.txt"
        stop.write_text("the\n", encoding="utf-8")
        result = runner.invoke(main, [
            "score", str(cand), str(ref), "--metrics", "rouge-1", "--stopwords", str(stop),
        ])
        assert result.output == "rouge-1 R=0.500000 P=0.500000 F=0.500000\n"

    @pytest.mark.parametrize("bad", ["candidate", "reference"])
    def test_non_utf8_input_exits_1_naming_file(self, runner, weather_files, tmp_path, bad):
        cand, ref = weather_files
        broken = tmp_path / f"{bad}-bad.txt"
        broken.write_bytes(b"It is \xff raining")
        args = [broken, ref] if bad == "candidate" else [cand, broken]
        result = runner.invoke(main, ["score", *map(str, args)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"{bad} file {broken} is not valid UTF-8 (byte offset 6)" in result.output
        assert "Traceback" not in result.output

    def test_non_utf8_stopwords_exits_1_naming_file(self, runner, weather_files, tmp_path):
        cand, ref = weather_files
        stop = tmp_path / "stop.txt"
        stop.write_bytes(b"it\nis\n\xfe\n")
        result = runner.invoke(main, ["score", str(cand), str(ref), "--stopwords", str(stop)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"stopword file {stop} is not valid UTF-8 (byte offset 6)" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "match", [[], ["--match", "we"], ["--match", "we", "--oov", "exact-fallback"]],
        ids=["exact", "we-zero", "we-exact-fallback"])
    def test_filtered_table_scores_as_full_table(self, runner, tmp_path, monkeypatch, match):
        """`score` loads only the words of its files, and prints exactly what
        `rouge_score` gives with the whole vector file."""
        texts = {"cand.txt": "The cat sat on the mat, and the dog barked twice.",
                 "ref1.txt": "A cat was sitting on a mat while dogs barked.",
                 "ref2.txt": "The dog barked at the cat on the rug."}
        for name, text in texts.items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        rng = np.random.default_rng(3)
        words = ["The", "the", "cat", "Cat", "sat", "on", "mat", "dog", "dog", "barked", "a",
                 "sitting", "rug", "while", "zebra", "Quartz", "at", "was", "and"]
        vectors = tmp_path / "vectors.bin"
        blob = f"{len(words)} 8\n".encode()
        for word in words:
            blob += word.encode() + b" " + rng.normal(size=8).astype("<f4").tobytes() + b"\n"
        vectors.write_bytes(blob)
        calls = spy_on_loader(monkeypatch, "binary")
        result = runner.invoke(main, ["score", *(str(tmp_path / n) for n in texts),
                                      "--embeddings", str(vectors), *match])
        assert result.exit_code == 0, result.output

        full = load_binary(vectors)
        cand, *refs = [tokenize(text, source_id=str(tmp_path / n)) for n, text in texts.items()]
        oov = match[-1] if "--oov" in match else "zero"
        metrics = [MetricConfig(RougeVariant.parse(name), match="we" if match else "exact", oov=oov)
                   for name in DEFAULT_METRICS.split(",")]
        expected = ""
        for metric in metrics:
            score = rouge_score(cand, refs, metric.variant, metric.match_function(full))
            expected += (f"{metric.name} R={score.recall:.6f} P={score.precision:.6f} "
                         f"F={score.f1:.6f}\n")
            if match:
                filtered = metric.match_function(calls[0]["table"])
                assert rouge_score(cand, refs, metric.variant, filtered) == score
        assert result.output == expected
        if match:
            vocabulary = {w for seq in (cand, *refs) for w in seq}
            assert [set(c["vocabulary"]) for c in calls] == [vocabulary]
            assert calls[0]["table"].size < full.size
        else:
            assert calls == []

    def test_deterministic_output(self, runner, weather_files):
        cand, ref = weather_files
        args = ["score", str(cand), str(ref)]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output

    def test_duplicate_metric_exits_1(self, runner, weather_files):
        # One report line a metric name, as meta-eval has one set of rows.
        cand, ref = weather_files
        result = runner.invoke(main, ["score", str(cand), str(ref), "--metrics", "rouge-1,rouge-1"])
        assert result.exit_code == 1
        assert result.output == ("Error: metric rouge-1 is given more than once; "
                                 "each metric needs a distinct name\n")

    @pytest.mark.parametrize("match", [[], ["--match", "we"]], ids=["exact", "we"])
    def test_scoring_failure_exits_1_naming_the_candidate(self, runner, weather_files,
                                                           toy_embeddings_text, monkeypatch,
                                                           match):
        # score scores through the corpus driver, so a failing pair is named
        # as meta-eval names it: the candidate is the topic's one system.
        cand, ref = weather_files
        real = harness.score_batch

        def fail_for_candidate(refs, cands, *args):
            if cands:
                raise RuntimeError("scorer bug")
            return real(refs, cands, *args)

        monkeypatch.setattr(harness, "score_batch", fail_for_candidate)
        result = runner.invoke(main, ["score", str(cand), str(ref), "--metrics", "rouge-2",
                                      "--embeddings", str(toy_embeddings_text),
                                      "--embeddings-format", "text", *match])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        name = "rouge-we-2" if match else "rouge-2"
        assert result.output == (f"Error: scoring failed for metric {name}, system {cand}, "
                                 "topic references: scorer bug\n")


BOM = "\ufeff".encode("utf-8")


class TestByteOrderMark:
    """A text input that starts with a UTF-8 byte-order mark reads as the same
    text without it, whichever reader takes it."""

    def test_bom_reference_scores_as_without(self, runner, tmp_path):
        cand = tmp_path / "c.txt"
        cand.write_text("the cat sat", encoding="utf-8")
        ref = tmp_path / "r.txt"
        ref.write_bytes(BOM + b"the cat sat")
        result = runner.invoke(main, ["score", str(cand), str(ref), str(cand)])
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            f"{name} R=1.000000 P=1.000000 F=1.000000" for name in DEFAULT_METRICS.split(",")]

    def test_bom_stopword_file_removes_its_first_word(self, runner, tmp_path):
        cand = tmp_path / "c.txt"
        cand.write_text("the cat sat", encoding="utf-8")
        ref = tmp_path / "r.txt"
        ref.write_text("the dog sat", encoding="utf-8")
        stop = tmp_path / "stop.txt"
        stop.write_bytes(BOM + b"the\n")
        result = runner.invoke(main, [
            "score", str(cand), str(ref), "--metrics", "rouge-1", "--stopwords", str(stop),
        ])
        assert result.output == "rouge-1 R=0.500000 P=0.500000 F=0.500000\n"

    def test_bom_config_file_loads(self, runner, weather_files, tmp_path):
        cand, ref = weather_files
        config = tmp_path / "config.json"
        config.write_bytes(BOM + json.dumps({"metrics": "rouge-2"}).encode())
        result = runner.invoke(main, ["score", str(cand), str(ref), "--config", str(config)])
        assert result.exit_code == 0
        assert result.output == "rouge-2 R=0.500000 P=0.333333 F=0.400000\n"

    def test_bom_judgments_and_summaries_report_as_without(self, runner, tiny_corpus,
                                                           tmp_path):
        corpus, judgments = tiny_corpus
        plain = tmp_path / "plain"
        runner.invoke(main, ["meta-eval", "--corpus", str(corpus),
                             "--judgments", str(judgments), "--out", str(plain)])
        judgments.write_bytes(BOM + judgments.read_bytes())
        for path in corpus.glob("*/*/*.txt"):
            path.write_bytes(BOM + path.read_bytes())
        marked = tmp_path / "marked"
        result = runner.invoke(main, ["meta-eval", "--corpus", str(corpus),
                                      "--judgments", str(judgments), "--out", str(marked)])
        assert result.exit_code == 0, result.output
        assert (marked / "report.csv").read_bytes() == (plain / "report.csv").read_bytes()

    @pytest.mark.parametrize("what", ["candidate", "reference", "stopword", "config",
                                      "summary", "judgments"])
    def test_bad_byte_after_bom_reports_the_file_offset(self, runner, weather_files,
                                                         tiny_corpus, tmp_path, what):
        broken = tmp_path / f"{what}-bad.txt"
        broken.write_bytes(BOM + b"ab\xff")
        cand, ref = weather_files
        corpus, judgments = tiny_corpus
        if what == "summary":
            broken = corpus / "t1" / "systems" / "s1.txt"
            broken.write_bytes(BOM + b"ab\xff")
        args = {
            "candidate": ["score", broken, ref],
            "reference": ["score", cand, broken],
            "stopword": ["score", cand, ref, "--stopwords", broken],
            "config": ["score", cand, ref, "--config", broken],
            "summary": ["meta-eval", "--corpus", corpus, "--judgments", judgments,
                        "--out", tmp_path / "out"],
            "judgments": ["meta-eval", "--corpus", corpus, "--judgments", broken,
                          "--out", tmp_path / "out"],
        }[what]
        result = runner.invoke(main, list(map(str, args)))
        assert result.exit_code == 1
        assert f"{broken} is not valid UTF-8 (byte offset 5)" in result.output


class TestMetaEvalCommand:
    def test_writes_reports_and_prints_table(self, runner, tiny_corpus, tmp_path):
        corpus, judgments = tiny_corpus
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "meta-eval", "--corpus", str(corpus), "--judgments", str(judgments),
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        assert (out / "report.csv").exists() and (out / "report.json").exists()
        # 3 metrics x 3 judgments, plus header
        assert len((out / "report.csv").read_text().splitlines()) == 10
        assert "rouge-1" in result.output and "pyramid" in result.output
        # scores decrease s1 > s2 > s3 exactly like the judgments: rho = 1
        assert "1.0000" in result.output

    def test_resolved_config_echoed(self, runner, tiny_corpus, tmp_path):
        corpus, judgments = tiny_corpus
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "meta-eval", "--corpus", str(corpus), "--judgments", str(judgments),
            "--out", str(out), "--metrics", "rouge-1", "--multiref", "jackknife",
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads((out / "report.json").read_text())
        assert payload["config"]["command"] == "meta-eval"
        assert payload["config"]["metrics"] == [{
            "variant": "rouge-1", "match": "exact", "oov": "zero",
            "multiref": "jackknife", "report": "recall",
        }]
        assert payload["config"]["corpus"] == str(corpus)
        assert "threads" not in payload["config"]

    def test_exact_run_scores_its_own_tokenization(self, runner, tiny_corpus, tmp_path,
                                                   monkeypatch):
        corpus, judgments = tiny_corpus
        stop = tmp_path / "stop.txt"
        stop.write_text("a\n", encoding="utf-8")
        scored = []
        real = cli.score_corpus

        def spy(*args, **kwargs):
            scored.append(real(*args, **kwargs))
            return scored[-1]

        monkeypatch.setattr(cli, "score_corpus", spy)
        result = runner.invoke(main, [
            "meta-eval", "--corpus", str(corpus), "--judgments", str(judgments),
            "--out", str(tmp_path / "out"), "--metrics", "rouge-1", "--stopwords", str(stop),
        ])
        assert result.exit_code == 0, result.output
        topics = harness.load_corpus(corpus)
        coding = harness.encode_corpus(topics, TokenizeConfig(stopwords=frozenset({"a"})))
        # Without "a", s2 matches one of m1's three words in t1, not two of four.
        assert scored == [real(topics, [MetricConfig(RougeVariant.parse("rouge-1"))],
                               coding=coding)]
        assert scored != [real(topics, [MetricConfig(RougeVariant.parse("rouge-1"))],
                               coding=harness.encode_corpus(topics))]

    def test_missing_judgments_file(self, runner, tiny_corpus, tmp_path):
        corpus, _ = tiny_corpus
        result = runner.invoke(main, [
            "meta-eval", "--corpus", str(corpus),
            "--judgments", str(tmp_path / "absent.csv"), "--out", str(tmp_path),
        ])
        assert result.exit_code != 0

    def test_corpus_error_reported(self, runner, tmp_path):
        bad = tmp_path / "bad"
        (bad / "t1").mkdir(parents=True)  # no models/
        judgments = tmp_path / "j.csv"
        judgments.write_text("system_id,pyramid,responsiveness,readability\na,1,1,1\nb,2,2,2\n")
        result = runner.invoke(main, [
            "meta-eval", "--corpus", str(bad), "--judgments", str(judgments),
            "--out", str(tmp_path / "out"),
        ])
        assert result.exit_code != 0
        assert "models" in result.output

    def test_scoring_failure_exits_1_without_report(self, runner, tiny_corpus, tmp_path,
                                                      monkeypatch):
        corpus, judgments = tiny_corpus
        real = harness.score_batch

        def fail_for_s2(refs, cands, *args):
            # s2 sits between s1 and s3 in each topic's batch. The corpus's
            # words a, b, ..., z are numbered in sorted order (a b c d e f g h
            # w x y z), so s2's texts "a b x y" and "e f x y" are these ids.
            if any(cand.tolist() in ([0, 1, 9, 10], [4, 5, 9, 10]) for cand in cands):
                raise RuntimeError("scorer bug")
            return real(refs, cands, *args)

        monkeypatch.setattr(harness, "score_batch", fail_for_s2)
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "meta-eval", "--corpus", str(corpus), "--judgments", str(judgments),
            "--out", str(out),
        ])
        assert result.exit_code == 1
        assert "scoring failed for metric rouge-1, system s2, topic t1: scorer bug" in result.output
        assert not (out / "report.csv").exists() and not (out / "report.json").exists()

    def test_duplicate_metric_exits_1_without_report(self, runner, tiny_corpus, tmp_path):
        corpus, judgments = tiny_corpus
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"metrics": [
            {"variant": "rouge-1", "report": "recall"},
            {"variant": "rouge-1", "report": "f1"},
        ]}), encoding="utf-8")
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "meta-eval", "--corpus", str(corpus), "--judgments", str(judgments),
            "--out", str(out), "--config", str(config),
        ])
        assert result.exit_code == 1
        assert "metric rouge-1 is given more than once" in result.output
        assert not (out / "report.csv").exists() and not (out / "report.json").exists()

    def test_non_utf8_summary_exits_1_naming_file(self, runner, tiny_corpus, tmp_path):
        corpus, judgments = tiny_corpus
        (corpus / "t2" / "systems" / "s2.txt").write_bytes(b"e f \xff y")
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "meta-eval", "--corpus", str(corpus), "--judgments", str(judgments),
            "--out", str(out),
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "s2.txt is not valid UTF-8 (byte offset 4)" in result.output
        assert "Traceback" not in result.output
        assert not (out / "report.csv").exists() and not (out / "report.json").exists()

    def test_non_utf8_judgments_exits_1_naming_file(self, runner, tiny_corpus, tmp_path):
        corpus, judgments = tiny_corpus
        judgments.write_bytes(judgments.read_bytes() + b"s\xff,0.1,1.0,1.5\n")
        offset = len(judgments.read_bytes()) - len(b"\xff,0.1,1.0,1.5\n")
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "meta-eval", "--corpus", str(corpus), "--judgments", str(judgments),
            "--out", str(out),
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"judgments.csv is not valid UTF-8 (byte offset {offset})" in result.output
        assert "Traceback" not in result.output
        assert not (out / "report.csv").exists() and not (out / "report.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_judgment_exits_1(self, runner, tiny_corpus, tmp_path, value):
        corpus, judgments = tiny_corpus
        judgments.write_text(
            "system_id,pyramid,responsiveness,readability\n"
            f"s1,0.9,4.5,4.0\ns2,0.5,{value},3.2\ns3,0.1,1.0,1.5\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "meta-eval", "--corpus", str(corpus), "--judgments", str(judgments),
            "--out", str(out),
        ])
        assert result.exit_code == 1
        assert f"judgments file {judgments}: row 3: non-finite score" in result.output
        assert "Traceback" not in result.output
        assert not (out / "report.csv").exists() and not (out / "report.json").exists()

    def test_bad_judgments_fail_before_the_vector_load(self, runner, tiny_corpus, tmp_path,
                                                      toy_embeddings_text, monkeypatch):
        corpus, judgments = tiny_corpus
        judgments.write_text("system_id,pyramid\ns1,0.9\n", encoding="utf-8")
        calls = spy_on_loader(monkeypatch, "text")
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "meta-eval", "--corpus", str(corpus), "--judgments", str(judgments),
            "--out", str(out), "--match", "we", "--embeddings", str(toy_embeddings_text),
            "--embeddings-format", "text",
        ])
        assert result.exit_code == 1
        assert f"judgments file {judgments}: expected header" in result.output
        assert calls == []
        assert not (out / "report.json").exists()

    def test_we_runs_are_byte_identical(self, runner, tiny_corpus, tmp_path):
        # Real-valued vectors, whose products round, and every metric that
        # shares the unigram span: two runs in one process write the same
        # bytes.
        corpus, judgments = tiny_corpus
        vectors = tmp_path / "vecs.bin"
        save_binary(gaussian_table(0, list("abcdefghxyz")), vectors)  # "w" is out of vocabulary
        out = tmp_path / "out"
        reports = []
        for _ in range(2):
            result = runner.invoke(main, [
                "meta-eval", "--corpus", str(corpus), "--judgments", str(judgments),
                "--out", str(out), "--match", "we", "--embeddings", str(vectors),
                "--oov", "exact-fallback", "--metrics", "rouge-1,rouge-2,rouge-su4,rouge-su0",
            ])
            assert result.exit_code == 0, result.output
            reports.append([(out / name).read_bytes() for name in ("report.csv", "report.json")])
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("match", ["exact", "we"])
    def test_corpus_is_coded_once(self, runner, tiny_corpus, tmp_path, monkeypatch, match):
        # Under --match we the coding that names the words to load is the
        # one scored.
        corpus, judgments = tiny_corpus
        vectors = tmp_path / "vecs.bin"
        save_binary(gaussian_table(0, list("abcdefghxyzw")), vectors)
        calls = []
        real = harness.encode

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(harness, "encode", spy)
        result = runner.invoke(main, [
            "meta-eval", "--corpus", str(corpus), "--judgments", str(judgments),
            "--out", str(tmp_path / "out"), "--match", match, "--embeddings", str(vectors),
        ])
        assert result.exit_code == 0, result.output
        assert len(calls) == 1

    def test_we_loads_only_the_corpus_words(self, runner, tiny_corpus, tmp_path, monkeypatch,
                                            caplog):
        corpus, judgments = tiny_corpus
        vectors = tmp_path / "vecs.txt"
        # A duplicate and a case collision of the corpus word "a", and of "q",
        # which the corpus lacks.
        vectors.write_text("".join(f"{w} {i + 1} 1\n" for i, w in enumerate("abcdefghxyzwqaAqQ")),
                           encoding="utf-8")
        stop = tmp_path / "stop.txt"
        stop.write_text("x\nY\n", encoding="utf-8")
        calls = spy_on_loader(monkeypatch, "text")
        result = runner.invoke(main, [
            "meta-eval", "--corpus", str(corpus), "--judgments", str(judgments),
            "--out", str(tmp_path / "out"), "--match", "we", "--oov", "exact-fallback",
            "--embeddings", str(vectors), "--embeddings-format", "text", "--stopwords", str(stop),
        ])
        assert result.exit_code == 0, result.output
        assert [c["vocabulary"] for c in calls] == [sorted("abcdefghzw")]
        assert list(calls[0]["table"].words()) == list("abcdefghzw")
        assert calls[0]["table"].load_summary == LoadSummary(duplicates=1, case_collisions=1)
        assert [r.getMessage() for r in caplog.records if r.name == embeddings.__name__] == [
            "embedding load, counted over the words looked up: 1 duplicate words (last kept), "
            "1 case collisions (first kept), 0 zero vectors dropped"]
        caplog.clear()
        result = runner.invoke(main, ["embeddings", "inspect", str(vectors), "--format", "text"])
        assert result.exit_code == 0, result.output
        assert "duplicates: 2  case_collisions: 2  zero_dropped: 0" in result.output
        assert [r.getMessage() for r in caplog.records if r.name == embeddings.__name__] == [
            "embedding load, counted over the whole file: 2 duplicate words (last kept), "
            "2 case collisions (first kept), 0 zero vectors dropped"]

    def test_threads_flag_rejected(self, runner, tiny_corpus, tmp_path):
        corpus, judgments = tiny_corpus
        result = runner.invoke(main, [
            "meta-eval", "--corpus", str(corpus), "--judgments", str(judgments),
            "--out", str(tmp_path / "out"), "--threads", "2",
        ])
        assert result.exit_code == 2
        assert "No such option" in result.output and "--threads" in result.output

    def test_undefined_correlation_exits_1(self, runner, tmp_path):
        corpus = tmp_path / "corpus"
        # neither system shares a word with the model summary: both score 0
        write_corpus(corpus, {"t1": ({"m1": "a b c d"}, {"s1": "x y", "s2": "z w"})})
        judgments = tmp_path / "judgments.csv"
        judgments.write_text("system_id,pyramid,responsiveness,readability\n"
                             "s1,0.9,4.5,4.0\ns2,0.5,3.0,3.2\n", encoding="utf-8")
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "meta-eval", "--corpus", str(corpus), "--judgments", str(judgments),
            "--out", str(out), "--metrics", "rouge-1",
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Error: metric rouge-1 against pyramid: x input is constant" in result.output
        assert "Traceback" not in result.output
        assert not (out / "report.csv").exists()


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_judgment_scale_leaves_the_report(self, runner, tmp_path, scale):
        # The product of the judgments' and the scores' sums of squares
        # over- or underflows at these scales; Pearson is taken again from
        # rescaled columns, so the report is that of the unscaled judgments.
        corpus = tmp_path / "corpus"
        write_corpus(corpus, {"t1": ({"m1": "a b c d e f"}, {
            "s1": "a b c d e x", "s2": "a b c x y z", "s3": "a x y z w v",
            "s4": "a b x y z w", "s5": "a b c d x y"})})
        human = {"s1": (0.9, 4.5, 3.1), "s2": (0.4, 3.0, 3.9), "s3": (0.2, 2.1, 1.5),
                 "s4": (0.5, 2.4, 2.2), "s5": (0.6, 4.1, 2.8)}
        reports = []
        for name, factor in (("unscaled", 1.0), ("scaled", scale)):
            judgments = tmp_path / f"{name}.csv"
            judgments.write_text("system_id,pyramid,responsiveness,readability\n" + "".join(
                f"{s},{','.join(repr(v * factor) for v in values)}\n"
                for s, values in human.items()), encoding="utf-8")
            out = tmp_path / name
            result = runner.invoke(main, ["meta-eval", "--corpus", str(corpus), "--judgments",
                                          str(judgments), "--out", str(out)])
            assert result.exit_code == 0, result.output
            reports.append(((out / "report.csv").read_bytes(),
                            json.loads((out / "report.json").read_text(encoding="utf-8"))["rows"]))
        (csv_plain, rows_plain), (csv_scaled, rows_scaled) = reports
        assert csv_scaled == csv_plain
        assert {row["pearson"] for row in rows_plain} != {1.0}
        for plain, scaled in zip(rows_plain, rows_scaled, strict=True):
            assert scaled == pytest.approx(plain, rel=0, abs=1e-12)

    def test_unwritable_out_exits_1(self, runner, tiny_corpus, tmp_path):
        corpus, judgments = tiny_corpus
        blocker = tmp_path / "a-file"
        blocker.write_text("", encoding="utf-8")
        out = blocker / "sub"
        result = runner.invoke(main, [
            "meta-eval", "--corpus", str(corpus), "--judgments", str(judgments),
            "--out", str(out),
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"Error: cannot write reports to {out}: " in result.output
        assert "Traceback" not in result.output


class TestReadOrder:
    """Inputs are read in the order README gives, so of two broken inputs
    the one read first is named, and the vector file is read last."""

    @pytest.mark.parametrize("first", ["candidate", "reference"])
    def test_score_reads_its_texts_before_the_stopwords(self, runner, weather_files, tmp_path,
                                                        first):
        cand, ref = weather_files
        broken = tmp_path / f"{first}-bad.txt"
        broken.write_bytes(b"It is \xff raining")
        stop = tmp_path / "stop.txt"
        stop.write_bytes(b"it\n\xfe\n")
        args = [broken, ref] if first == "candidate" else [cand, broken]
        result = runner.invoke(main, ["score", *map(str, args), "--stopwords", str(stop)])
        assert result.exit_code == 1
        assert f"{first} file {broken} is not valid UTF-8" in result.output

    def test_score_checks_metric_names_before_reading_a_text(self, runner, weather_files,
                                                             tmp_path):
        _, ref = weather_files
        broken = tmp_path / "candidate-bad.txt"
        broken.write_bytes(b"It is \xff raining")
        result = runner.invoke(main, ["score", str(broken), str(ref),
                                      "--metrics", "rouge-1,rouge-1"])
        assert result.exit_code == 1
        assert result.output == ("Error: metric rouge-1 is given more than once; "
                                 "each metric needs a distinct name\n")

    @pytest.mark.parametrize("first, second", [("corpus", "judgments"),
                                               ("judgments", "stopwords"),
                                               ("stopwords", "vectors")])
    def test_meta_eval_names_the_input_read_first(self, runner, tiny_corpus, tmp_path,
                                                  monkeypatch, first, second):
        corpus, judgments = tiny_corpus
        stop = tmp_path / "stop.txt"
        stop.write_text("the\n", encoding="utf-8")
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("a 1 0\nb 0 1\n", encoding="utf-8")

        def break_input(name: str) -> str:
            """Break input ``name`` and return the error that names it."""
            if name == "corpus":
                shutil.rmtree(corpus)
                corpus.mkdir()
                return f"corpus {corpus} contains no topics"
            if name == "judgments":
                judgments.write_text("system_id,pyramid\ns1,0.9\n", encoding="utf-8")
                return f"judgments file {judgments}: expected header"
            if name == "stopwords":
                stop.write_bytes(b"it\n\xfe\n")
                return f"stopword file {stop} is not valid UTF-8"
            vectors.write_text("a 1 0\nb nan 1\n", encoding="utf-8")
            return "failed to load embeddings"

        expected = break_input(first)
        break_input(second)
        calls = spy_on_loader(monkeypatch, "text")
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "meta-eval", "--corpus", str(corpus), "--judgments", str(judgments),
            "--out", str(out), "--stopwords", str(stop), "--match", "we",
            "--embeddings", str(vectors), "--embeddings-format", "text",
        ])
        assert result.exit_code == 1
        assert expected in result.output
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("fault", ["duplicate-metric", "one-common-system",
                                       "out-under-a-file"])
    def test_meta_eval_fails_before_reading_stopwords_or_vectors(self, runner, tiny_corpus,
                                                                 tmp_path, monkeypatch, fault):
        """A run that cannot give a report fails before the stopword list or
        the vector file is read and before anything is scored."""
        corpus, judgments = tiny_corpus
        stop = tmp_path / "stop.txt"
        stop.write_text("the\n", encoding="utf-8")
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("a 1 0\nb 0 1\n", encoding="utf-8")
        out = tmp_path / "out"
        metrics = "rouge-1,rouge-2"
        if fault == "duplicate-metric":
            metrics = "rouge-1,rouge-1"
            expected = ("Error: metric rouge-we-1 is given more than once; "
                        "each metric needs a distinct name\n")
        elif fault == "one-common-system":
            judgments.write_text("system_id,pyramid,responsiveness,readability\n"
                                 "s1,0.9,4.5,4.0\nghost,0.5,3.0,3.2\n", encoding="utf-8")
            expected = "Error: only 1 system(s) common to scores and judgments; need at least 2\n"
        else:
            blocker = tmp_path / "a-file"
            blocker.write_text("", encoding="utf-8")
            out = blocker / "sub"
            expected = f"Error: cannot write reports to {out}: {blocker} is not a directory\n"
        calls = spy_on_loader(monkeypatch, "text")
        read = []
        monkeypatch.setattr(cli, "load_stopwords", lambda path: read.append(path))
        monkeypatch.setattr(cli, "score_corpus", lambda *args, **kwargs: read.append(args))
        result = runner.invoke(main, [
            "meta-eval", "--corpus", str(corpus), "--judgments", str(judgments),
            "--out", str(out), "--stopwords", str(stop), "--metrics", metrics, "--match", "we",
            "--embeddings", str(vectors), "--embeddings-format", "text",
        ])
        assert result.exit_code == 1
        assert result.output.endswith(expected)
        assert calls == [] and read == []
        assert not out.exists()


class TestConfigFile:
    def test_config_file_supplies_defaults(self, runner, weather_files, tmp_path):
        cand, ref = weather_files
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"metrics": "rouge-2"}), encoding="utf-8")
        result = runner.invoke(main, ["score", str(cand), str(ref), "--config", str(config)])
        assert result.exit_code == 0
        assert result.output.startswith("rouge-2 ")

    def test_cli_flag_overrides_config(self, runner, weather_files, tmp_path):
        cand, ref = weather_files
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"metrics": "rouge-2"}), encoding="utf-8")
        result = runner.invoke(main, [
            "score", str(cand), str(ref), "--config", str(config), "--metrics", "rouge-1",
        ])
        assert result.output.startswith("rouge-1 ")

    def test_unknown_config_key_rejected(self, runner, weather_files, tmp_path):
        cand, ref = weather_files
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"metricz": "rouge-2"}), encoding="utf-8")
        result = runner.invoke(main, ["score", str(cand), str(ref), "--config", str(config)])
        assert result.exit_code != 0
        assert "metricz" in result.output

    def test_threads_config_key_rejected(self, runner, tiny_corpus, tmp_path):
        corpus, judgments = tiny_corpus
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"threads": 2}), encoding="utf-8")
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "meta-eval", "--corpus", str(corpus), "--judgments", str(judgments),
            "--out", str(out), "--config", str(config),
        ])
        assert result.exit_code == 1
        assert "unknown config keys: threads" in result.output
        assert not (out / "report.json").exists()

    def test_normalize_config_key_rejected(self, runner, tiny_corpus, tmp_path, monkeypatch):
        settings = {"normalize": True, "match": "we", "embeddings": "VECS",
                    "embeddings_format": "text"}
        result, out, calls = run_meta_eval_with_config(runner, tiny_corpus, tmp_path,
                                                       monkeypatch, settings)
        assert result.exit_code == 1
        assert "unknown config keys: normalize" in result.output
        assert not out.exists()
        assert calls == {"binary": [], "text": []}

    def test_lowercase_config_key_rejected(self, runner, tiny_corpus, tmp_path, monkeypatch):
        """Tokens are always lowercased, as embedding keys are."""
        settings = {"lowercase": False, "match": "we", "embeddings": "VECS",
                    "embeddings_format": "text"}
        result, out, calls = run_meta_eval_with_config(runner, tiny_corpus, tmp_path,
                                                       monkeypatch, settings)
        assert result.exit_code == 1
        assert "unknown config keys: lowercase" in result.output
        assert not out.exists()
        assert calls == {"binary": [], "text": []}

    def test_non_utf8_config_exits_1_naming_file(self, runner, weather_files, tmp_path):
        cand, ref = weather_files
        config = tmp_path / "config.json"
        config.write_bytes(b'{"metrics": "rouge-1\xff"}')
        result = runner.invoke(main, ["score", str(cand), str(ref), "--config", str(config)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"config file {config} is not valid UTF-8 (byte offset 20)" in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("text, message", [
        ('["rouge-1"]', "config file {} must hold a JSON object"),
        ('{"metrics": ', "cannot read config file {}: "),
    ], ids=["list", "invalid"])
    def test_config_that_is_no_json_object_exits_1(self, runner, weather_files, tmp_path,
                                                   text, message):
        cand, ref = weather_files
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        result = runner.invoke(main, ["score", str(cand), str(ref), "--config", str(config)])
        assert result.exit_code == 1
        assert message.format(config) in result.output
        assert "Traceback" not in result.output

    def test_per_metric_schema_objects(self, runner, weather_files, toy_embeddings_text, tmp_path):
        cand, ref = weather_files
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "embeddings": str(toy_embeddings_text),
            "embeddings_format": "text",
            "metrics": [
                {"variant": "rouge-1"},
                {"variant": "rouge-1", "match": "we"},
            ],
        }), encoding="utf-8")
        result = runner.invoke(main, ["score", str(cand), str(ref), "--config", str(config)])
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        assert lines[0] == "rouge-1 R=0.666667 P=0.500000 F=0.571429"
        assert lines[1] == "rouge-we-1 R=0.933333 P=0.700000 F=0.800000"


    @pytest.mark.parametrize("settings, flag", [
        ({"stem": "no"}, "--no-stem"),
        ({"stem": "on"}, "--stem"),
        ({"stem": 1}, "--stem"),
        ({"stem": "false"}, "--no-stem"),
        ({"stem": None}, "--no-stem"),
    ])
    def test_file_booleans_read_as_their_flag(self, runner, tmp_path, settings, flag):
        cand = tmp_path / "c.txt"
        cand.write_text("The Cats were running", encoding="utf-8")
        ref = tmp_path / "r.txt"
        ref.write_text("the cat runs", encoding="utf-8")
        config = tmp_path / "run.json"
        config.write_text(json.dumps(settings), encoding="utf-8")
        args = ["score", str(cand), str(ref), "--metrics", "rouge-1"]
        by_file = runner.invoke(main, args + ["--config", str(config)])
        by_flag = runner.invoke(main, args + [flag])
        assert by_file.exit_code == 0, by_file.output
        assert by_file.output == by_flag.output
        opposite = flag.replace("--no-", "--") if "--no-" in flag else flag.replace("--", "--no-")
        assert runner.invoke(main, args + [opposite]).output != by_flag.output


def run_meta_eval_with_config(runner, tiny_corpus, tmp_path, monkeypatch, settings):
    """Run meta-eval with ``settings`` as its config file, "VECS" standing for
    a text vector file; return the result, the out directory and the calls of
    each vector loader by format."""
    corpus, judgments = tiny_corpus
    vectors = tmp_path / "vecs.txt"
    vectors.write_text("".join(f"{w} {i + 1} 1\n" for i, w in enumerate("abcdefghxyzw")),
                       encoding="utf-8")
    config = tmp_path / "run.json"
    config.write_text(json.dumps(settings).replace("VECS", str(vectors)), encoding="utf-8")
    calls = {fmt: spy_on_loader(monkeypatch, fmt) for fmt in FORMATS}
    out = tmp_path / "out"
    result = runner.invoke(main, [
        "meta-eval", "--corpus", str(corpus), "--judgments", str(judgments),
        "--out", str(out), "--config", str(config),
    ])
    return result, out, calls


class TestConfigFileChecks:
    """A config value meets the check its flag meets, before any input is read."""

    @pytest.mark.parametrize("settings, flag", [
        ({"embeddings_format": "csv", "match": "we", "embeddings": "VECS"}, "--embeddings-format"),
        ({"oov": "bogus", "match": "we", "embeddings": "VECS", "embeddings_format": "text"},
         "--oov"),
        ({"stopwords": "/missing.txt"}, "--stopwords"),
        ({"embeddings": "/missing.bin", "match": "we"}, "--embeddings"),
        ({"metrics": 5}, "--metrics"),
        ({"metrics": []}, "--metrics"),
        ({"stem": "maybe"}, "--stem"),
        ({"stopwords": 0}, "--stopwords"),
    ], ids=["format", "oov", "stopwords", "embeddings", "metrics-number", "metrics-empty",
            "stem", "stopwords-number"])
    def test_bad_value_exits_2_naming_the_flag(self, runner, tiny_corpus, tmp_path,
                                               monkeypatch, settings, flag):
        result, out, calls = run_meta_eval_with_config(runner, tiny_corpus, tmp_path,
                                                       monkeypatch, settings)
        assert result.exit_code == 2
        assert f"Invalid value for '{flag}'" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()
        assert calls == {"binary": [], "text": []}

    @pytest.mark.parametrize("settings, message", [
        ({"metrics": [{"variant": "rouge-1", "oov": "bogus"}]}, "unknown oov policy 'bogus'"),
        ({"metrics": [{"variant": "rouge-1", "oov": "bogus"}], "match": "we",
          "embeddings": "VECS", "embeddings_format": "text"}, "unknown oov policy 'bogus'"),
        ({"metrics": [{"variant": "rouge-1", "multiref": "bogus"}]},
         "unknown multiref policy 'bogus'"),
        ({"metrics": [{"variant": 5}]}, "ROUGE variant name must be a string, not 5"),
    ], ids=["oov-exact", "oov-we", "multiref", "variant-number"])
    def test_bad_metric_object_exits_1_naming_the_value(self, runner, tiny_corpus, tmp_path,
                                                        monkeypatch, settings, message):
        result, out, calls = run_meta_eval_with_config(runner, tiny_corpus, tmp_path,
                                                       monkeypatch, settings)
        assert result.exit_code == 1
        assert f"Error: {message}" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()
        assert calls == {"binary": [], "text": []}


# Every file-settable key: (a value, the flags giving it, another value, other
# flags the run needs). "{name}" stands for a file made by the test.
WE_TEXT = ["--match", "we", "--embeddings", "{vecs}", "--embeddings-format", "text"]
SETTINGS = {
    "metrics": ("rouge-2", ["--metrics", "rouge-2"], "rouge-1", []),
    "match": ("we", ["--match", "we"], "exact", WE_TEXT[2:]),
    "embeddings": ("{vecs}", ["--embeddings", "{vecs}"], "{vecs2}",
                   ["--match", "we", "--embeddings-format", "text"]),
    # were the file's "binary" to win over the flag, the text file would fail to load
    "embeddings_format": ("text", ["--embeddings-format", "text"], "binary", WE_TEXT[:4]),
    "oov": ("exact-fallback", ["--oov", "exact-fallback"], "zero", WE_TEXT),
    "multiref": ("jackknife", ["--multiref", "jackknife"], "average", []),
    "report_component": ("f1", ["--report-component", "f1"], "recall", []),
    "stem": (True, ["--stem"], False, []),
    "stopwords": ("{stop}", ["--stopwords", "{stop}"], "{stop2}", []),
    "out": ("{out}", ["--out", "{out}"], "{out2}", []),
}


class TestSettingsDrift:
    def test_settings_cover_every_file_settable_option(self):
        options = {p.name for p in cli.meta_eval.params if p.expose_value}
        assert set(SETTINGS) == options - {"corpus", "judgments"}

    @pytest.mark.parametrize("key", ["corpus", "judgments", "config", "candidate"])
    def test_inputs_are_not_config_keys(self, runner, tiny_corpus, tmp_path, key):
        corpus, judgments = tiny_corpus
        config = tmp_path / "run.json"
        config.write_text(json.dumps({key: str(corpus)}), encoding="utf-8")
        out = tmp_path / "out"
        result = runner.invoke(main, [
            "meta-eval", "--corpus", str(corpus), "--judgments", str(judgments),
            "--out", str(out), "--config", str(config),
        ])
        assert result.exit_code == 1
        assert f"unknown config keys: {key}" in result.output
        assert not out.exists()

    def test_score_ignores_out(self, runner, weather_files, tmp_path):
        cand, ref = weather_files
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"out": str(tmp_path / "unused")}), encoding="utf-8")
        args = ["score", str(cand), str(ref)]
        result = runner.invoke(main, args + ["--config", str(config)])
        assert result.exit_code == 0, result.output
        assert result.output == runner.invoke(main, args).output
        assert not (tmp_path / "unused").exists()

    @pytest.mark.parametrize("key", sorted(SETTINGS))
    def test_file_value_equals_flag_and_flag_wins(self, runner, tiny_corpus, tmp_path, key):
        corpus, judgments = tiny_corpus
        files = {name: tmp_path / f"{name}.txt" for name in ("vecs", "vecs2", "stop", "stop2")}
        for name, template in (("vecs", "{w} {x} 0.1\n"), ("vecs2", "{w} 0.1 {x}\n")):
            files[name].write_text("".join(template.format(w=w, x=(i + 1) / 20)
                                           for i, w in enumerate("abcdefghxyzw")),
                                   encoding="utf-8")
        files["stop"].write_text("x\n", encoding="utf-8")
        files["stop2"].write_text("a\n", encoding="utf-8")
        outs = [tmp_path / "out", tmp_path / "out2"]
        files.update(out=outs[0], out2=outs[1])

        def fill(value):
            return value.format(**files) if isinstance(value, str) else value

        value, flags, other, extra = SETTINGS[key]
        value, other, flags, extra = fill(value), fill(other), [*map(fill, flags)], [*map(fill, extra)]

        def report(args, settings=None):
            for out in outs:
                shutil.rmtree(out, ignore_errors=True)
            args = ["meta-eval", "--corpus", str(corpus), "--judgments", str(judgments),
                    *extra, *args] + (["--out", str(outs[0])] if key != "out" else [])
            if settings is not None:
                config = tmp_path / "run.json"
                config.write_text(json.dumps(settings), encoding="utf-8")
                args += ["--config", str(config)]
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            (written,) = [out / "report.json" for out in outs if out.exists()]
            payload = json.loads(written.read_text(encoding="utf-8"))
            return payload["config"], payload["rows"]

        by_flag = report(flags)
        assert report([], {key: value}) == by_flag
        assert report(flags, {key: other}) == by_flag


class TestEmbeddingsInspect:
    @pytest.fixture
    def binary_table(self, tmp_path):
        path = tmp_path / "v.bin"
        blob = b"2 3\n"
        blob += b"cat " + struct.pack("<3f", 1, 0, 0) + b"\n"
        blob += b"dog " + struct.pack("<3f", 0, 3, 4) + b"\n"
        path.write_bytes(blob)
        return path

    def test_summary_output(self, runner, binary_table):
        result = runner.invoke(main, ["embeddings", "inspect", str(binary_table)])
        assert result.exit_code == 0
        assert "vocab: 2  dim: 3" in result.output
        assert "duplicates: 0" in result.output

    def test_word_lookup(self, runner, binary_table):
        result = runner.invoke(main, ["embeddings", "inspect", str(binary_table), "--word", "dog"])
        assert result.exit_code == 0
        assert "norm: 1.000000" in result.output
        assert "0.600000 0.800000" in result.output

    def test_word_lookup_is_lowercased(self, runner, tmp_path):
        path = tmp_path / "v.bin"
        path.write_bytes(b"1 2\nDog " + struct.pack("<2f", 0, 2) + b"\n")
        result = runner.invoke(main, ["embeddings", "inspect", str(path), "--word", "Dog"])
        assert result.exit_code == 0
        assert "word: dog  norm: 1.000000" in result.output
        assert "0.000000 1.000000" in result.output

    def test_word_oov(self, runner, binary_table):
        result = runner.invoke(main, ["embeddings", "inspect", str(binary_table), "--word", "fox"])
        assert result.exit_code == 0
        assert "OOV" in result.output

    def test_text_format(self, runner, toy_embeddings_text):
        result = runner.invoke(main, [
            "embeddings", "inspect", str(toy_embeddings_text), "--format", "text",
        ])
        assert result.exit_code == 0
        assert "vocab: 5  dim: 4" in result.output

    def test_malformed_file_fails(self, runner, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"oops\n")
        result = runner.invoke(main, ["embeddings", "inspect", str(path)])
        assert result.exit_code != 0


    def test_non_utf8_text_file_exits_1_naming_line(self, runner, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"a 1 0\nb\xff 0 1\n")
        result = runner.invoke(main, ["embeddings", "inspect", str(path), "--format", "text"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "line 2: not valid UTF-8 (byte offset 7)" in result.output
        assert "Traceback" not in result.output


ON_GLIBC = platform.libc_ver()[0] == "glibc"
# Scores a generated exact corpus of 4 topics, 20 systems and 4 models each
# twice, the first time after the CLI's heap policy when ARGV[1] is "policy";
# prints the minor page faults of the second scoring.
TWICE_SCORED = """
import resource, sys
import numpy as np
from rougewe import cli
from rougewe.harness import MetricConfig, Topic, encode_corpus, score_corpus
from rougewe.rouge import RougeVariant
if sys.argv[1] == "policy" and not cli._hold_heap():
    sys.exit("heap policy not applied")
rng = np.random.default_rng(7)
weights = 1 / np.arange(1, 3001)
words = np.array([f"w{i}" for i in range(3000)])
def text():
    return " ".join(rng.choice(words, 100, p=weights / weights.sum()))
topics = [Topic(f"t{t}", [(f"m{m}", text()) for m in range(4)],
                [(f"s{s}", text()) for s in range(20)]) for t in range(4)]
metrics = [MetricConfig(RougeVariant.parse(name)) for name in ("rouge-1", "rouge-2", "rouge-su4")]
coding = encode_corpus(topics)
score_corpus(topics, metrics, coding)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
score_corpus(topics, metrics, coding)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestHeapPolicy:
    """The CLI fixes glibc's mmap and trim thresholds once, before any command."""

    @pytest.fixture
    def libc(self, monkeypatch):
        """A glibc process whose C library records the CLI's calls: the
        names it opens, and each mallopt call with the signature declared
        for it, answered with ``mallopt.answer`` (1, glibc's success)."""
        def mallopt(param, value):
            libc.calls.append((param, value, mallopt.argtypes, mallopt.restype))
            return mallopt.answer

        mallopt.answer = 1
        libc = SimpleNamespace(opened=[], calls=[], mallopt=mallopt)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc.opened.append(name) or libc)
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
        for name in cli._MALLOC_ENV:
            monkeypatch.delenv(name, raising=False)
        return libc

    def test_sets_both_thresholds_on_glibc(self, libc):
        signature = ((cli.ctypes.c_int, cli.ctypes.c_int), cli.ctypes.c_int)
        assert cli._hold_heap() is True
        assert libc.opened == [None]
        assert libc.calls == [(-3, 32 << 20, *signature), (-1, 64 << 20, *signature)]

    def test_refused_mmap_threshold_leaves_trim_alone(self, libc):
        libc.mallopt.answer = 0
        assert cli._hold_heap() is False
        assert [param for param, *_ in libc.calls] == [-3]

    @pytest.mark.skipif(not ON_GLIBC, reason="the policy acts only on glibc")
    def test_glibc_accepts_both_thresholds(self, monkeypatch):
        for name in cli._MALLOC_ENV:
            monkeypatch.delenv(name, raising=False)
        assert cli._hold_heap() is True

    @staticmethod
    def _confstr_raising(exc):
        def confstr(name):
            raise exc
        return confstr

    @pytest.mark.parametrize("guard", ["confstr-fails", "unknown-name", "not-glibc", "no-confstr",
                                       *cli._MALLOC_ENV])
    def test_guard_calls_nothing(self, libc, monkeypatch, guard):
        if guard == "confstr-fails":
            monkeypatch.setattr(os, "confstr", self._confstr_raising(OSError(22, "Invalid")))
        elif guard == "unknown-name":
            monkeypatch.setattr(os, "confstr", self._confstr_raising(ValueError(guard)))
        elif guard == "not-glibc":
            monkeypatch.setattr(os, "confstr", lambda name: None)
        elif guard == "no-confstr":
            monkeypatch.delattr(os, "confstr")
        else:
            monkeypatch.setenv(guard, "131072")
        assert cli._hold_heap() is False
        assert libc.opened == [] and libc.calls == []

    @pytest.mark.parametrize("command", ["score", "meta-eval", "embeddings inspect"])
    def test_every_command_applies_it(self, runner, weather_files, tiny_corpus,
                                      toy_embeddings_text, tmp_path, monkeypatch, command):
        applied = []
        monkeypatch.setattr(cli, "_hold_heap", lambda: applied.append(command))
        corpus, judgments = tiny_corpus
        args = {
            "score": ["score", *map(str, weather_files)],
            "meta-eval": ["meta-eval", "--corpus", str(corpus), "--judgments", str(judgments),
                          "--out", str(tmp_path / "out")],
            "embeddings inspect": ["embeddings", "inspect", str(toy_embeddings_text),
                                   "--format", "text"],
        }[command]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert applied == [command]

    @pytest.mark.skipif(not ON_GLIBC, reason="the policy acts only on glibc")
    def test_policy_stops_scoring_from_faulting_pages(self):
        """Scoring a corpus again reuses the heap the first scoring left:
        with the policy, it takes under half the minor page faults."""
        env = {name: value for name, value in os.environ.items() if name not in cli._MALLOC_ENV}
        env["PYTHONPATH"] = str(Path(rougewe.__file__).parents[1])
        faults = {side: int(subprocess.run([sys.executable, "-c", TWICE_SCORED, side],
                                           capture_output=True, text=True, env=env,
                                           check=True).stdout)
                  for side in ("policy", "default")}
        assert faults["policy"] < faults["default"] / 2, faults


class TestHelp:
    def test_top_level_help(self, runner):
        result = runner.invoke(main, ["--help"])
        assert result.exit_code == 0
        for command in ("score", "meta-eval", "embeddings"):
            assert command in result.output

    @pytest.mark.parametrize("command", [["score"], ["meta-eval"]])
    def test_documented_flags(self, runner, command):
        result = runner.invoke(main, command + ["--help"])
        assert result.exit_code == 0
        for flag in ("--metrics", "--match", "--embeddings", "--embeddings-format", "--oov",
                     "--multiref", "--report-component", "--stem", "--stopwords", "--config"):
            assert flag in result.output, flag
        if command == ["meta-eval"]:
            assert "--out" in result.output

    @pytest.mark.parametrize("flag", ["--normalize", "--no-normalize"])
    @pytest.mark.parametrize("command", ["score", "meta-eval", "embeddings inspect"])
    def test_normalize_flags_rejected(self, runner, weather_files, tiny_corpus,
                                      toy_embeddings_text, tmp_path, command, flag):
        """Vectors are always unit-normalized at load; no flag turns that off."""
        corpus, judgments = tiny_corpus
        args = {
            "score": ["score", *map(str, weather_files)],
            "meta-eval": ["meta-eval", "--corpus", str(corpus), "--judgments", str(judgments),
                          "--out", str(tmp_path / "out")],
            "embeddings inspect": ["embeddings", "inspect", str(toy_embeddings_text),
                                   "--format", "text"],
        }[command]
        result = runner.invoke(main, args + [flag])
        assert result.exit_code == 2
        assert "No such option" in result.output and flag in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--lowercase", "--no-lowercase"])
    @pytest.mark.parametrize("command", ["score", "meta-eval"])
    def test_lowercase_flags_rejected(self, runner, weather_files, tiny_corpus, tmp_path,
                                      command, flag):
        """Tokens are always lowercased, as embedding keys are; no flag turns
        that off."""
        corpus, judgments = tiny_corpus
        args = {
            "score": ["score", *map(str, weather_files)],
            "meta-eval": ["meta-eval", "--corpus", str(corpus), "--judgments", str(judgments),
                          "--out", str(tmp_path / "out")],
        }[command]
        result = runner.invoke(main, args + [flag])
        assert result.exit_code == 2
        assert "No such option" in result.output and flag in result.output
        assert not (tmp_path / "out").exists()

    def test_inspect_help(self, runner):
        result = runner.invoke(main, ["embeddings", "inspect", "--help"])
        assert result.exit_code == 0
        assert "--format" in result.output and "--word" in result.output
