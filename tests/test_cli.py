import json
import shutil
import struct

import numpy as np
import pytest
from click.testing import CliRunner

from rougewe import cli, embeddings, harness
from rougewe.cli import DEFAULT_METRICS, main
from rougewe.embeddings import FORMATS, load_binary, load_text
from rougewe.harness import MetricConfig
from rougewe.rouge import RougeVariant, rouge_score
from rougewe.textpipe import tokenize

from conftest import write_corpus


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
            assert [c["vocabulary"] for c in calls] == [{w for seq in (cand, *refs) for w in seq}]
            assert calls[0]["table"].size < full.size
        else:
            assert calls == []

    def test_deterministic_output(self, runner, weather_files):
        cand, ref = weather_files
        args = ["score", str(cand), str(ref)]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output


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
        real = harness.TopicPlan.score

        def fail_for_s2(plan, cand):
            if cand.source_id.endswith("/systems/s2"):
                raise RuntimeError("scorer bug")
            return real(plan, cand)

        monkeypatch.setattr(harness.TopicPlan, "score", fail_for_s2)
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

    def test_we_loads_only_the_corpus_words(self, runner, tiny_corpus, tmp_path, monkeypatch):
        corpus, judgments = tiny_corpus
        vectors = tmp_path / "vecs.txt"
        vectors.write_text("".join(f"{w} {i + 1} 1\n" for i, w in enumerate("abcdefghxyzwq")),
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
        assert [c["vocabulary"] for c in calls] == [set("abcdefghzw")]
        assert list(calls[0]["table"].words()) == list("abcdefghzw")
        assert calls[0]["table"].load_summary == load_text(vectors).load_summary

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

    def test_non_utf8_config_exits_1_naming_file(self, runner, weather_files, tmp_path):
        cand, ref = weather_files
        config = tmp_path / "config.json"
        config.write_bytes(b'{"metrics": "rouge-1\xff"}')
        result = runner.invoke(main, ["score", str(cand), str(ref), "--config", str(config)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"config file {config} is not valid UTF-8 (byte offset 20)" in result.output
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
        ({"lowercase": "false"}, "--no-lowercase"),
        ({"lowercase": None}, "--lowercase"),
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
    "lowercase": (False, ["--no-lowercase"], True, []),
    "stem": (True, ["--stem"], False, []),
    "stopwords": ("{stop}", ["--stopwords", "{stop}"], "{stop2}", []),
    "out": ("{out}", ["--out", "{out}"], "{out2}", []),
    "normalize": (False, ["--no-normalize"], True, WE_TEXT),
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
        # norms under 1, so that scores vary also with --no-normalize
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
                     "--multiref", "--report-component", "--lowercase", "--no-lowercase",
                     "--stem", "--stopwords", "--config", "--no-normalize"):
            assert flag in result.output, flag
        if command == ["meta-eval"]:
            assert "--out" in result.output

    def test_inspect_help(self, runner):
        result = runner.invoke(main, ["embeddings", "inspect", "--help"])
        assert result.exit_code == 0
        assert "--format" in result.output and "--word" in result.output
