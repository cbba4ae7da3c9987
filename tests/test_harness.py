import logging
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rougewe import harness, rouge
from rougewe.correlation import UndefinedCorrelationError
from rougewe.embeddings import EmbeddingTable
from rougewe.harness import (
    JUDGMENT_TYPES,
    MATCH_KINDS,
    REPORT_COMPONENTS,
    MetaEvalError,
    MetaEvalReport,
    MetricConfig,
    ReportRow,
    Topic,
    common_systems,
    encode_corpus,
    format_table,
    load_corpus,
    load_judgments,
    meta_evaluate,
    score_corpus,
    score_pairs,
    write_reports,
)
from rougewe.rouge import ROUGE_1, ROUGE_2, ROUGE_SU4, MatchFunction, RougeVariant, rouge_score
from rougewe.textpipe import DEFAULT_CONFIG, InputError, TokenizeConfig, tokenize

from conftest import gaussian_table, identity_table, make_table, sign_table, write_corpus
from exact_oracle import oracle_rouge_score, units

R1 = MetricConfig(ROUGE_1)


def judgments_from(rows: dict[str, tuple[float, float, float]]) -> dict[str, dict[str, float]]:
    return {system: dict(zip(JUDGMENT_TYPES, values)) for system, values in rows.items()}


class TestLoadCorpus:
    def test_fixture_layout(self, tmp_path):
        write_corpus(tmp_path, {
            "t1": ({"m1": "a b", "m2": "a c"}, {"s1": "a", "s2": "b", "s3": "c"}),
            "t2": ({"m1": "d e", "m2": "d f"}, {"s1": "d", "s2": "e", "s3": "f"}),
        })
        topics = load_corpus(tmp_path)
        assert [t.topic_id for t in topics] == ["t1", "t2"]
        assert all(len(t.system_summaries) == 3 for t in topics)
        assert all(len(t.model_summaries) == 2 for t in topics)
        assert topics[0].model_summaries[0] == ("m1", "a b")

    def test_empty_root(self, tmp_path):
        with pytest.raises(InputError, match=f"^corpus {re.escape(str(tmp_path))} contains no "
                                             "topics$"):
            load_corpus(tmp_path)

    def test_missing_models_dir(self, tmp_path):
        (tmp_path / "t1" / "systems").mkdir(parents=True)
        with pytest.raises(InputError, match="models"):
            load_corpus(tmp_path)

    def test_empty_models_dir(self, tmp_path):
        (tmp_path / "t1" / "models").mkdir(parents=True)
        with pytest.raises(InputError, match="no model summaries"):
            load_corpus(tmp_path)

    def test_missing_systems_dir_is_empty(self, tmp_path):
        models = tmp_path / "t1" / "models"
        models.mkdir(parents=True)
        (models / "m1.txt").write_text("a", encoding="utf-8")
        topics = load_corpus(tmp_path)
        assert topics[0].system_summaries == []

    def test_nonexistent_root(self, tmp_path):
        with pytest.raises(InputError):
            load_corpus(tmp_path / "nope")

    def test_non_utf8_summary_names_file_and_offset(self, tmp_path):
        write_corpus(tmp_path, {"t1": ({"m1": "a b"}, {"s1": "a b"})})
        bad = tmp_path / "t1" / "systems" / "s1.txt"
        bad.write_bytes(b"word " * 2000 + b"\xff tail")  # past any decoder chunk
        with pytest.raises(InputError, match=r"s1\.txt is not valid UTF-8 \(byte offset 10000\)"):
            load_corpus(tmp_path)


class TestLoadJudgments:
    def test_three_rows(self, tmp_path):
        path = tmp_path / "j.csv"
        path.write_text(
            "system_id,pyramid,responsiveness,readability\n"
            "sys1,0.45,3.2,3.0\nsys2,0.30,2.2,2.5\nsys3,0.10,1.0,1.1\n",
            encoding="utf-8",
        )
        judgments = load_judgments(path)
        assert len(judgments) == 3
        assert judgments["sys1"] == {"pyramid": 0.45, "responsiveness": 3.2, "readability": 3.0}

    def test_duplicate_system(self, tmp_path):
        path = tmp_path / "j.csv"
        path.write_text(
            "system_id,pyramid,responsiveness,readability\nsys1,1,1,1\nsys1,2,2,2\n",
            encoding="utf-8",
        )
        with pytest.raises(InputError, match="duplicate"):
            load_judgments(path)

    def test_non_numeric_names_row(self, tmp_path):
        path = tmp_path / "j.csv"
        path.write_text(
            "system_id,pyramid,responsiveness,readability\nsys1,1,1,1\nsys2,oops,2,2\n",
            encoding="utf-8",
        )
        with pytest.raises(InputError, match="row 3"):
            load_judgments(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "NaN"])
    def test_non_finite_names_row(self, tmp_path, value):
        path = tmp_path / "j.csv"
        path.write_text(
            f"system_id,pyramid,responsiveness,readability\nsys1,1,1,1\nsys2,2,{value},2\n",
            encoding="utf-8",
        )
        with pytest.raises(InputError, match=f"{path}: row 3: non-finite score"):
            load_judgments(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "j.csv"
        path.write_text("id,p,r,f\n", encoding="utf-8")
        with pytest.raises(InputError, match="header"):
            load_judgments(path)

    @pytest.mark.parametrize("text, fault", [
        ("", "empty"),
        ("system_id,pyramid,responsiveness,readability\nsys1,1,1\n",
         "row 2: expected 4 fields, found 3"),
        # No corpus system has an empty id, so such a row would drop out
        # of every correlation without a trace.
        ("system_id,pyramid,responsiveness,readability\nsys1,1,1,1\n ,0.1,0.2,0.3\n",
         "row 3: empty system_id"),
    ], ids=["empty", "short-row", "empty-system-id"])
    def test_malformed_file_names_the_fault(self, tmp_path, text, fault):
        path = tmp_path / "j.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InputError, match=f"^judgments file {path}: {fault}$"):
            load_judgments(path)

    def test_non_utf8_names_file_and_offset(self, tmp_path):
        path = tmp_path / "j.csv"
        header = b"system_id,pyramid,responsiveness,readability\n"
        path.write_bytes(header + b"sys1,1,1,1\nsys\xff,2,2,2\n")
        offset = len(header) + len(b"sys1,1,1,1\nsys")
        with pytest.raises(InputError,
                           match=rf"j\.csv is not valid UTF-8 \(byte offset {offset}\)"):
            load_judgments(path)

    @pytest.mark.parametrize("directory", [True, False], ids=["directory", "missing"])
    def test_unreadable_file_names_the_file(self, tmp_path, directory):
        path = tmp_path if directory else tmp_path / "missing.csv"
        message = f"^unreadable judgments file {re.escape(str(path))}: "
        with pytest.raises(InputError, match=message):
            load_judgments(path)

    def test_crlf_rows(self, tmp_path):
        path = tmp_path / "j.csv"
        path.write_bytes(b"system_id,pyramid,responsiveness,readability\r\n"
                         b"sys1,0.5,3,2\r\n\r\nsys2,0.25,1,1\r\n")
        judgments = load_judgments(path)
        assert judgments["sys2"] == {"pyramid": 0.25, "responsiveness": 1.0, "readability": 1.0}


class TestMetricConfig:
    def test_names(self):
        assert MetricConfig(ROUGE_1).name == "rouge-1"
        assert MetricConfig(ROUGE_1, match="we").name == "rouge-we-1"
        assert MetricConfig(RougeVariant.parse("rouge-su4"), match="we").name == "rouge-we-su4"

    def test_match_function(self):
        table = make_table({"a": [1.0, 0.0]})
        exact = MetricConfig(ROUGE_1).match_function(table)
        assert (exact.kind, exact.table) == ("exact", None)
        we = MetricConfig(ROUGE_1, match="we", oov="exact-fallback").match_function(table)
        assert (we.kind, we.table, we.oov_policy) == ("embedding", table, "exact-fallback")
        with pytest.raises(ValueError, match="table"):
            MetricConfig(ROUGE_1, match="we").match_function(None)

    def test_validation(self):
        with pytest.raises(ValueError):
            MetricConfig(ROUGE_1, match="fuzzy")
        with pytest.raises(ValueError):
            MetricConfig(ROUGE_1, component="accuracy")
        with pytest.raises(ValueError, match="unknown oov policy 'bogus'"):
            MetricConfig(ROUGE_1, oov="bogus")
        with pytest.raises(ValueError, match="unknown multiref policy 'bogus'"):
            MetricConfig(ROUGE_1, multiref="bogus")

    def test_schema_dict(self):
        d = MetricConfig(ROUGE_2, match="we", oov="exact-fallback",
                         multiref="jackknife", component="f1").to_dict()
        assert d == {"variant": "rouge-2", "match": "we", "oov": "exact-fallback",
                     "multiref": "jackknife", "report": "f1"}

    def test_schema_round_trip(self):
        original = MetricConfig(ROUGE_2, match="we", oov="exact-fallback",
                                multiref="jackknife", component="f1")
        assert MetricConfig.from_dict(original.to_dict()) == original

    def test_from_dict_defaults_and_errors(self):
        config = MetricConfig.from_dict({"variant": "rouge-su4"}, match="we", component="f1")
        assert config.name == "rouge-we-su4"
        assert config.component == "f1"
        with pytest.raises(ValueError, match="variant"):
            MetricConfig.from_dict({"match": "we"})
        with pytest.raises(ValueError, match="unknown"):
            MetricConfig.from_dict({"variant": "rouge-1", "beta": 2})
        with pytest.raises(ValueError, match="unknown oov policy 'bogus'"):
            MetricConfig.from_dict({"variant": "rouge-1", "oov": "bogus"}, match="we")
        with pytest.raises(ValueError, match="must be a string, not 5"):
            MetricConfig.from_dict({"variant": 5})


class TestScoreCorpus:
    def test_identical_summary_scores_mean_of_model_recalls(self, tmp_path):
        write_corpus(tmp_path, {
            "t1": ({"m1": "a b c d", "m2": "a b x y"}, {"s1": "a b c d"}),
        })
        topics = load_corpus(tmp_path)
        scores = score_corpus(topics, [R1], coding=encode_corpus(topics))
        # recall 1.0 vs m1, 0.5 vs m2, averaged
        assert scores["rouge-1"] == {"s1": 0.75}

    def test_two_topic_mean(self, tmp_path):
        write_corpus(tmp_path, {
            # recall 0.5: two of four ref unigrams matched
            "t1": ({"m1": "a b c d"}, {"s1": "a b x y"}),
            # recall 0.7: seven of ten matched
            "t2": ({"m1": "a b c d e f g h i j"}, {"s1": "a b c d e f g q r s"}),
        })
        topics = load_corpus(tmp_path)
        scores = score_corpus(topics, [R1], coding=encode_corpus(topics))
        assert scores["rouge-1"] == pytest.approx({"s1": 0.6})

    def test_mean_is_a_sum_in_topic_id_order(self):
        # Recalls 0.1, 0.2 and 0.3, given rotated: summed in topic-id order
        # they make 0.6000000000000001, reversed or as given 0.6.
        ref = "a b c d e f g h i j"
        topics = [Topic(f"t{k}", [("m1", ref)], [("s1", " ".join(ref.split()[:k]))])
                  for k in (2, 3, 1)]
        scores = score_corpus(topics, [R1], coding=encode_corpus(topics))
        assert scores["rouge-1"] == {"s1": (0.1 + 0.2 + 0.3) / 3}
        assert (0.1 + 0.2 + 0.3) / 3 != (0.3 + 0.2 + 0.1) / 3 == (0.2 + 0.3 + 0.1) / 3

    def test_missing_summary_scores_zero(self, tmp_path, caplog):
        """Under every metric, and logged once, not once per metric."""
        write_corpus(tmp_path, {
            "t1": ({"m1": "a b"}, {"s1": "a b", "s2": "a b"}),
            "t2": ({"m1": "a b"}, {"s1": "a b"}),
        })
        metrics = [R1, MetricConfig(ROUGE_2), MetricConfig(RougeVariant.parse("rouge-su4"))]
        topics = load_corpus(tmp_path)
        with caplog.at_level(logging.WARNING):
            scores = score_corpus(topics, metrics, coding=encode_corpus(topics))
        for means in scores.values():
            assert means == {"s1": 1.0, "s2": 0.5}
        assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
            "system s2 has no summary for topic t2; scoring 0"]

    def test_missing_summaries_logged_in_topic_then_system_order(self, tmp_path, caplog):
        write_corpus(tmp_path, {
            "t2": ({"m1": "a b"}, {"s1": "a b"}),
            "t1": ({"m1": "a b"}, {"s2": "a b"}),
            "t3": ({"m1": "a b"}, {"s3": "a b"}),
        })
        topics = load_corpus(tmp_path)
        with caplog.at_level(logging.WARNING):
            score_corpus(topics, [R1, MetricConfig(ROUGE_2)], coding=encode_corpus(topics))
        missing = [(r.args[1], r.args[0]) for r in caplog.records if r.levelno == logging.WARNING]
        assert missing == [("t1", "s1"), ("t1", "s3"), ("t2", "s2"), ("t2", "s3"),
                           ("t3", "s1"), ("t3", "s2")]

    @pytest.mark.parametrize("match", MATCH_KINDS)
    def test_reference_failure_names_the_model_summaries(self, tmp_path, monkeypatch, match):
        # The corpus's words a, b, c have the ids 0, 1, 2: m1 is [0, 1].
        write_corpus(tmp_path, {"t1": ({"m1": "a b"}, {"s1": "b c", "s2": "a c"})})
        real = rouge._UnitCodes

        def fail_for_m1(summaries, variant, keyed):
            if any(summary.tolist() == [0, 1] for summary in summaries):
                raise RuntimeError("coder bug")
            return real(summaries, variant, keyed)

        monkeypatch.setattr(rouge, "_UnitCodes", fail_for_m1)
        topics = load_corpus(tmp_path)
        with pytest.raises(MetaEvalError, match=r", topic t1 \(model summaries\): coder bug"):
            score_corpus(topics, [MetricConfig(ROUGE_1, match=match)],
                         coding=encode_corpus(topics), table=identity_table(["a", "b", "c"]))

    def test_scoring_failure_raises_naming_the_pair(self, tmp_path, monkeypatch):
        write_corpus(tmp_path, {"t1": ({"m1": "a b"}, {"s1": "a b", "s2": "a c", "s3": "b c"})})
        real = harness.score_fields
        calls = []

        def fail_for_s2(refs, cands, metrics, rows=None):
            # The corpus's words a, b, c have the ids 0, 1, 2: s2 is [0, 2],
            # and only rouge-su4 fails on it.
            calls.append(([cand.tolist() for cand in cands],
                          [variant.name for variant, *_ in metrics]))
            if [0, 2] in calls[-1][0] and "rouge-su4" in calls[-1][1]:
                raise RuntimeError("scorer bug")
            return real(refs, cands, metrics, rows)

        monkeypatch.setattr(harness, "score_fields", fail_for_s2)
        table = identity_table(["a", "b", "c"])
        topics = load_corpus(tmp_path)
        for match in MATCH_KINDS:
            metrics = [MetricConfig(ROUGE_1, match=match), MetricConfig(ROUGE_SU4, match=match)]
            calls.clear()
            with pytest.raises(MetaEvalError, match=f"metric {metrics[1].name}, system s2, "
                                                    "topic t1: scorer bug$") as info:
                score_corpus(topics, metrics, coding=encode_corpus(topics), table=table)
            assert isinstance(info.value.__cause__, RuntimeError)
            # The topic under every metric, then each metric's batch alone
            # until one fails, then under that metric the references alone
            # and each summary alone, until one fails.
            batch = [[0, 1], [0, 2], [1, 2]]
            assert calls == [(batch, ["rouge-1", "rouge-su4"]), (batch, ["rouge-1"]),
                             (batch, ["rouge-su4"]), ([], ["rouge-su4"]),
                             ([[0, 1]], ["rouge-su4"]), ([[0, 2]], ["rouge-su4"])]

    def test_failure_of_the_batch_alone_names_the_system_summaries(self, tmp_path, monkeypatch):
        write_corpus(tmp_path, {"t1": ({"m1": "a b"}, {"s1": "a b", "s2": "a c"})})
        real = harness.score_fields
        calls = []

        def fail_for_two(refs, cands, metrics, rows=None):
            calls.append((len(cands), [variant.name for variant, *_ in metrics]))
            if len(cands) > 1 and "rouge-su4" in calls[-1][1]:
                raise RuntimeError("batch bug")
            return real(refs, cands, metrics, rows)

        monkeypatch.setattr(harness, "score_fields", fail_for_two)
        topics = load_corpus(tmp_path)
        with pytest.raises(MetaEvalError, match=r"^scoring failed for metric rouge-su4, topic t1 "
                                                r"\(system summaries\): batch bug$") as info:
            score_corpus(topics, [R1, MetricConfig(ROUGE_SU4)], coding=encode_corpus(topics))
        assert isinstance(info.value.__cause__, RuntimeError)
        # The failing metric's batch is scored once alone, then the
        # references and each summary alone; none fails, so the error is
        # the batch's, not scored again.
        assert calls == [(2, ["rouge-1", "rouge-su4"]), (2, ["rouge-1"]), (2, ["rouge-su4"]),
                         (0, ["rouge-su4"]), (1, ["rouge-su4"]), (1, ["rouge-su4"])]

    def test_failure_of_the_metrics_together_names_the_topic(self, tmp_path, monkeypatch):
        write_corpus(tmp_path, {"t1": ({"m1": "a b"}, {"s1": "a b", "s2": "a c"})})
        real = harness.score_fields

        def fail_together(refs, cands, metrics, rows=None):
            if len(metrics) > 1:
                raise RuntimeError("span cache bug")
            return real(refs, cands, metrics, rows)

        monkeypatch.setattr(harness, "score_fields", fail_together)
        topics = load_corpus(tmp_path)
        with pytest.raises(MetaEvalError,
                           match=r"^scoring failed for topic t1: span cache bug$") as info:
            score_corpus(topics, [R1, MetricConfig(ROUGE_SU4)], coding=encode_corpus(topics))
        assert isinstance(info.value.__cause__, RuntimeError)

    @pytest.mark.parametrize("match", MATCH_KINDS)
    def test_one_scoring_call_codes_each_span_once_per_topic(self, monkeypatch, match):
        # rouge-1, rouge-2 and rouge-su4 hold three spans: the unigrams,
        # the bigrams and the skip-bigrams. Each is coded once per topic,
        # in one ``score_fields`` call, and none again for another metric.
        topics, table = gaussian_corpus(0)
        calls, coded = [], []
        real_score, real_codes = harness.score_fields, rouge._UnitCodes

        def score_spy(refs, cands, metrics, rows=None):
            calls.append(len(refs))
            return real_score(refs, cands, metrics, rows)

        def codes_spy(summaries, variant, keyed):
            coded.append((len(calls), variant.name))
            return real_codes(summaries, variant, keyed)

        monkeypatch.setattr(harness, "score_fields", score_spy)
        monkeypatch.setattr(rouge, "_UnitCodes", codes_spy)
        metrics = [MetricConfig(RougeVariant.parse(name), match=match)
                   for name in ("rouge-1", "rouge-2", "rouge-su4")]
        score_corpus(topics, metrics, coding=encode_corpus(topics), table=table)
        assert calls == [len(t.model_summaries) for t in sorted(topics, key=lambda t: t.topic_id)]
        assert coded == [(call, name) for call in range(1, len(topics) + 1)
                         for name in ("rouge-1", "rouge-2", "rouge-su4")]

    def test_unknown_field_fails_before_scoring(self, monkeypatch):
        topics = [Topic("t1", [("m1", "a b")], [("s1", "a c")])]
        monkeypatch.setattr(harness, "score_fields", None)  # never called
        with pytest.raises(ValueError, match="^unknown score field 'recal'$"):
            score_pairs(topics, [R1], encode_corpus(topics), fields=["recall", "recal"])

    def test_batch_failure_no_summary_repeats_names_the_topic(self, tmp_path, monkeypatch):
        write_corpus(tmp_path, {"t1": ({"m1": "a b"}, {"s1": "a b", "s2": "a c"})})
        real = harness.score_fields

        def fail_batches(refs, cands, *args):
            if len(cands) > 1:
                raise RuntimeError("batch bug")
            return real(refs, cands, *args)

        monkeypatch.setattr(harness, "score_fields", fail_batches)
        topics = load_corpus(tmp_path)
        for metric in (R1, MetricConfig(ROUGE_1, match="we")):
            with pytest.raises(MetaEvalError, match=rf"metric {metric.name}, topic t1 "
                                                    r"\(system summaries\): batch bug") as info:
                score_corpus(topics, [metric], coding=encode_corpus(topics),
                             table=identity_table(["a", "b", "c"]))
            assert isinstance(info.value.__cause__, RuntimeError)

    def test_embedding_metric_requires_table(self, tmp_path):
        write_corpus(tmp_path, {"t1": ({"m1": "a"}, {"s1": "a"})})
        topics = load_corpus(tmp_path)
        with pytest.raises(ValueError, match="table"):
            score_corpus(topics, [MetricConfig(ROUGE_1, match="we")], coding=encode_corpus(topics))

    def test_we_metric_scores(self, tmp_path):
        write_corpus(tmp_path, {"t1": ({"m1": "rain"}, {"s1": "pour"})})
        table = make_table({"rain": [0.6, 0.8], "pour": [0.8, 0.6]})
        topics = load_corpus(tmp_path)
        scores = score_corpus(topics, [MetricConfig(ROUGE_1, match="we")],
                              coding=encode_corpus(topics), table=table)
        assert scores["rouge-we-1"] == pytest.approx({"s1": 0.96}, abs=1e-6)

    def test_no_topics_rejected(self):
        with pytest.raises(ValueError):
            score_corpus([], [R1], coding=encode_corpus([]))

    def test_duplicate_metric_name_rejected(self, tmp_path):
        write_corpus(tmp_path, {"t1": ({"m1": "a b"}, {"s1": "a b", "s2": "a c"})})
        metrics = [MetricConfig(ROUGE_1), MetricConfig(ROUGE_1, component="f1")]
        topics = load_corpus(tmp_path)
        with pytest.raises(MetaEvalError, match="metric rouge-1 is given more than once"):
            score_corpus(topics, metrics, coding=encode_corpus(topics))

    def test_duplicate_topic_id_rejected(self):
        topics = [Topic("t1", [("m1", "a b")], [("s1", "a b")]),
                  Topic("t1", [("m1", "c d")], [("s1", "x y")])]
        with pytest.raises(MetaEvalError, match="topic t1 is given more than once"):
            score_corpus(topics, [R1], coding=encode_corpus(topics))

    def test_permutation_fairness(self, tmp_path):
        # systems hold the model texts, shuffled among systems per topic
        write_corpus(tmp_path, {
            "t1": ({"m1": "a b c", "m2": "d e f"}, {"s1": "a b c", "s2": "d e f", "s3": "a b c"}),
            "t2": ({"m1": "g h i", "m2": "j k l"}, {"s1": "j k l", "s2": "g h i", "s3": "j k l"}),
        })
        topics = load_corpus(tmp_path)
        scores = score_corpus(topics, [R1], coding=encode_corpus(topics))
        # identical texts, identical scores
        assert scores["rouge-1"]["s1"] == scores["rouge-1"]["s3"]


TABLE_WORDS = ["a", "b", "c", "d", "e", "dog"]
# "ghost" and "wraith" are out of vocabulary; "Dogs," is "dogs", out of
# vocabulary, or stemmed "dog", and "the" is out of vocabulary or a stopword.
SUMMARY_WORDS = TABLE_WORDS + ["ghost", "wraith", "Dogs,", "the", "B."]
# The texts normalize to other words under stemming and a stopword list.
TOKENIZE_CONFIGS = [DEFAULT_CONFIG, TokenizeConfig(stem=True, stopwords=frozenset({"the", "b"}))]
SYSTEMS = ["s1", "s2", "s3"]
texts = st.lists(st.sampled_from(SUMMARY_WORDS), max_size=7).map(" ".join)


@st.composite
def corpora(draw) -> list[Topic]:
    """1-3 topics of 1-3 models; each system has a summary in a random subset
    of topics. Summaries may be empty and may hold out-of-vocabulary words."""
    topics = []
    for t in range(draw(st.integers(1, 3))):
        models = [(f"m{i}", draw(texts)) for i in range(draw(st.integers(1, 3)))]
        present = draw(st.lists(st.sampled_from(SYSTEMS), min_size=1, unique=True))
        topics.append(Topic(f"t{t}", models, [(sid, draw(texts)) for sid in sorted(present)]))
    return topics


@st.composite
def metric_lists(draw, match=st.sampled_from(["exact", "we"])) -> list[MetricConfig]:
    """1-3 metrics with distinct names and random options."""
    variants = st.sampled_from(["rouge-1", "rouge-2", "rouge-su0", "rouge-su4"])
    pairs = draw(st.lists(st.tuples(variants, match), min_size=1, max_size=3, unique=True))
    return [MetricConfig(RougeVariant.parse(variant), match=kind,
                         oov=draw(st.sampled_from(["zero", "exact-fallback"])),
                         multiref=draw(st.sampled_from(["average", "jackknife"])),
                         component=draw(st.sampled_from(["recall", "precision", "f1"])))
            for variant, kind in pairs]


def rouge_score_pair(cand, refs, metric, table):
    match = (MatchFunction.we(table, oov_policy=metric.oov) if metric.match == "we"
             else MatchFunction.exact())
    return rouge_score(cand, refs, metric.variant, match, multiref=metric.multiref)


def oracle_score_pair(cand, refs, metric, table):
    return oracle_rouge_score(cand, refs, metric.variant, metric.multiref)


def pair_by_pair(topics, metrics, table, score_pair=rouge_score_pair, config=DEFAULT_CONFIG
                 ) -> list[tuple[str, str, str, object]]:
    """score_pairs spelled out through a per-pair scorer, as a list of
    (metric, system, topic, score) cells in its order: metrics as given,
    systems sorted, topics by id. Every pair is tokenized under ``config``
    and scored on its own, by default through rouge_score with a fresh
    MatchFunction; a system without a summary for the topic scores None."""
    system_ids = sorted({sid for t in topics for sid, _ in t.system_summaries})
    cells = []
    for metric in metrics:
        for system_id in system_ids:
            for topic in sorted(topics, key=lambda t: t.topic_id):
                text = dict(topic.system_summaries).get(system_id)
                score = None if text is None else score_pair(
                    tokenize(text, config),
                    [tokenize(model, config) for _, model in topic.model_summaries], metric, table)
                cells.append((metric.name, system_id, topic.topic_id, score))
    return cells


def score_pair_by_pair(topics, metrics, table, score_pair=rouge_score_pair,
                       config=DEFAULT_CONFIG) -> dict[str, dict[str, float]]:
    """score_corpus spelled out: each system's mean of the metric's report
    component over its ``pair_by_pair`` cells, a missing summary counting 0,
    summed in topic-id order."""
    results = {}
    for metric in metrics:
        values = {}
        for _, system_id, _, score in pair_by_pair(topics, [metric], table, score_pair, config):
            values.setdefault(system_id, []).append(
                0.0 if score is None else getattr(score, metric.component))
        results[metric.name] = {system_id: sum(v) / len(topics) for system_id, v in values.items()}
    return results


def in_order(scores: dict[str, dict[str, float]]) -> dict[str, list[tuple[str, float]]]:
    """Each metric's (system, mean) pairs as a list, so ``==`` compares
    the order of the systems too, which dict ``==`` does not."""
    return {name: list(means.items()) for name, means in scores.items()}


def reorder(topics, shuffle_seed):
    """The corpus with every list permuted: reversed for None, else each
    shuffled from the seed."""
    def permuted(items):
        items = list(items)
        if shuffle_seed is None:
            return items[::-1]
        random.Random(shuffle_seed + len(items)).shuffle(items)
        return items

    return [Topic(t.topic_id, permuted(t.model_summaries), permuted(t.system_summaries))
            for t in permuted(topics)]


class TestScoreCorpusDifferential:
    @given(topics=corpora(), metrics=metric_lists(),
           table_seed=st.none() | st.integers(0, 2**32 - 1),
           random_table=st.sampled_from([sign_table, gaussian_table]),
           config=st.sampled_from(TOKENIZE_CONFIGS))
    @settings(max_examples=150, deadline=None)
    def test_score_corpus_equals_pair_by_pair(self, topics, metrics, table_seed, random_table,
                                              config):
        # None: a one-hot table, where every positive similarity ties at 1.
        table = (identity_table(TABLE_WORDS) if table_seed is None
                 else random_table(table_seed, TABLE_WORDS))
        coding = encode_corpus(topics, config)
        assert in_order(score_corpus(topics, metrics, table=table, coding=coding)) == in_order(
            score_pair_by_pair(topics, metrics, table, config=config))
        # Every present cell's recall, precision and f1 are its pair's
        # rouge_score's, and the missing cells are where the pair-by-pair
        # list has None, in metric, system, topic order; a missing cell
        # holds 0.0 in every field.
        scored = score_pairs(topics, metrics, coding, table, REPORT_COMPONENTS)
        assert [(name, system_id, topic_id,
                 tuple(values[:, s, t].tolist()) if scored.present[s, t] else None)
                for name, values in scored.scores.items()
                for s, system_id in enumerate(scored.systems)
                for t, topic_id in enumerate(scored.topics)] == [
            (name, system_id, topic_id,
             None if score is None else (score.recall, score.precision, score.f1))
            for name, system_id, topic_id, score in pair_by_pair(topics, metrics, table,
                                                                 config=config)]
        assert not any(values[:, ~scored.present].any() for values in scored.scores.values())

    @given(topics=corpora(), metrics=metric_lists(match=st.just("exact")),
           config=st.sampled_from(TOKENIZE_CONFIGS))
    @settings(max_examples=150, deadline=None)
    def test_exact_score_corpus_equals_oracle(self, topics, metrics, config):
        assert in_order(score_corpus(topics, metrics, coding=encode_corpus(topics, config))) == (
            in_order(score_pair_by_pair(topics, metrics, None, oracle_score_pair, config)))

    @given(topics=corpora(), metrics=metric_lists(), table_seed=st.integers(0, 2**32 - 1),
           random_table=st.sampled_from([sign_table, gaussian_table]),
           shuffle_seed=st.none() | st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_order_independent(self, topics, metrics, table_seed, random_table, shuffle_seed):
        table = random_table(table_seed, TABLE_WORDS)
        shuffled = reorder(topics, shuffle_seed)
        assert in_order(score_corpus(shuffled, metrics, coding=encode_corpus(shuffled),
                                     table=table)) == (
            in_order(score_corpus(topics, metrics, coding=encode_corpus(topics), table=table)))

    @given(topics=corpora(), metrics=metric_lists(match=st.just("exact")),
           shuffle_seed=st.none() | st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_exact_order_independent(self, topics, metrics, shuffle_seed):
        shuffled = reorder(topics, shuffle_seed)
        assert in_order(score_corpus(shuffled, metrics, coding=encode_corpus(shuffled))) == (
            in_order(score_corpus(topics, metrics, coding=encode_corpus(topics))))


class TestScoreCorpusFold:
    def test_means_are_the_sequential_fold_over_twelve_topics(self):
        # Topic i's model holds 3 + i distinct words, s1 one of them and s2
        # two, so their rouge-1 recalls are 1 / (3 + i) and 2 / (3 + i),
        # and s3 has a summary on every other topic only. Over twelve
        # topics a pairwise sum (np.sum's) of such values gives a mean other
        # than the sequential sum in topic-id order that the means are.
        topics = [Topic(f"t{i:02d}", [("m1", " ".join(f"w{i}x{j}" for j in range(3 + i)))],
                        [("s1", f"w{i}x0"), ("s2", f"w{i}x0 w{i}x1")]
                        + ([("s3", f"w{i}x1 w{i}x2 z")] if i % 2 else []))
                  for i in range(12)]
        values = {"s1": [], "s2": [], "s3": []}
        for topic in topics:
            models = [tokenize(model) for _, model in topic.model_summaries]
            for system_id, recalls in values.items():
                text = dict(topic.system_summaries).get(system_id)
                recalls.append(0.0 if text is None else rouge_score(
                    tokenize(text), models, ROUGE_1, MatchFunction.exact()).recall)
        assert any(sum(v) / len(v) != np.sum(v) / len(v) for v in values.values())
        # Given in another order, the topics are still folded by id.
        shuffled = reorder(topics, 0)
        assert hexed(score_corpus(shuffled, [R1], encode_corpus(shuffled))) == {
            "rouge-1": [(system_id, float.hex(sum(v) / len(v)))
                        for system_id, v in values.items()]}


# Thirty words with vectors and three without, which exact-fallback matches
# by identity.
GAUSSIAN_WORDS = [f"w{i}" for i in range(30)]
OOV_WORDS = ["ghost", "wraith", "spectre"]


def gaussian_corpus(seed: int) -> tuple[list[Topic], EmbeddingTable]:
    """Two topics of three models and five systems, 6-24 words each, with
    a seeded Gaussian table: no product of its vectors is exact."""
    rng = random.Random(seed)
    words = GAUSSIAN_WORDS + OOV_WORDS

    def text() -> str:
        return " ".join(rng.choices(words, k=rng.randint(6, 24)))

    topics = [Topic(f"t{t}", [(f"m{m}", text()) for m in range(3)],
                    [(f"s{k}", text()) for k in range(5)]) for t in range(2)]
    return topics, gaussian_table(seed, GAUSSIAN_WORDS)


def hexed(scores: dict[str, dict[str, float]]) -> dict[str, list[tuple[str, str]]]:
    """Each metric's (system, mean as float hex) pairs, in the order given."""
    return {name: [(system_id, float.hex(mean)) for system_id, mean in pairs]
            for name, pairs in in_order(scores).items()}


def we_metrics(names: list[str], oov: str = "exact-fallback") -> list[MetricConfig]:
    return [MetricConfig(RougeVariant.parse(name), match="we", oov=oov) for name in names]


class TestSharedUnigramSpan:
    """Under embedding matching a topic's unigram span is scored once per
    OOV policy, for rouge-1 and every rouge-SU. Checked with real-valued
    vectors, whose products round: the shared span must give every metric
    the bits it gets scored alone, and the bits of ``rouge_score``."""

    NAMES = ["rouge-1", "rouge-2", "rouge-su4", "rouge-su0"]
    ORDERS = [NAMES, ["rouge-su4", "rouge-1", "rouge-su0", "rouge-2"],
              ["rouge-su0", "rouge-su4", "rouge-2", "rouge-1"]]

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("oov", ["zero", "exact-fallback"])
    def test_together_equals_alone_and_pair_by_pair(self, seed, oov):
        topics, table = gaussian_corpus(seed)
        coding = encode_corpus(topics)
        metrics = we_metrics(self.NAMES, oov)
        alone = {}
        for metric in metrics:
            alone |= hexed(score_corpus(topics, [metric], coding, table))
        assert hexed(score_pair_by_pair(topics, metrics, table)) == alone
        for order in self.ORDERS:
            assert hexed(score_corpus(topics, we_metrics(order, oov), coding, table)) == alone

    def test_no_sharing_across_oov_policies(self):
        topics, table = gaussian_corpus(2)
        coding = encode_corpus(topics)
        one_zero = we_metrics(["rouge-1"], "zero")
        su4_fallback = we_metrics(["rouge-su4"], "exact-fallback")
        together = hexed(score_corpus(topics, one_zero + su4_fallback, coding, table))
        assert together == (hexed(score_corpus(topics, one_zero, coding, table))
                            | hexed(score_corpus(topics, su4_fallback, coding, table)))
        # The policies differ on this corpus's unigrams, so a span shared
        # across them would change the rouge-su4 means.
        su4_zero = hexed(score_corpus(topics, we_metrics(["rouge-su4"], "zero"), coding, table))
        assert su4_zero != {"rouge-we-su4": together["rouge-we-su4"]}

    @pytest.mark.parametrize("metrics, per_pair", [
        ("rouge-1 rouge-2 rouge-su4", 3),
        ("rouge-1 rouge-su4", 2),
        ("rouge-su4 rouge-su0 rouge-1", 3),
        ("rouge-1", 1),
        ("rouge-1:zero rouge-su4", 3),
    ])
    def test_unigrams_are_assigned_once_per_pair(self, monkeypatch, metrics, per_pair):
        # One ``_greedy_assign`` per (system, model) pair and unit length:
        # the unigrams once for all the metrics that hold them under one
        # OOV policy (exact-fallback unless the name says otherwise).
        topics, table = gaussian_corpus(0)
        calls = []
        real = rouge._greedy_assign

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(rouge, "_greedy_assign", spy)
        configs = [we_metrics([name], *oov)[0] for name, *oov in
                   (entry.split(":") for entry in metrics.split())]
        score_corpus(topics, configs, coding=encode_corpus(topics), table=table)
        pairs = sum(len(t.model_summaries) * len(t.system_summaries) for t in topics)
        assert len(calls) == per_pair * pairs


class TestScoreCorpusKeepsNoState:
    """Each call codes its own corpus under its own config: a chunk means
    what that call's config makes of it, and nothing outlives the call."""

    TABLE = make_table({"the": [1, 0, 0], "dogs": [0.6, 0.8, 0], "dog": [0, 0.6, 0.8],
                        "ran": [0, 0, 1], "cat": [0.8, 0, 0.6]})
    METRICS = [R1, MetricConfig(ROUGE_2), MetricConfig(ROUGE_1, match="we")]
    # "The" and "the" are the same word under either config, and a stopword
    # under one: a memo of chunks kept from a call under the other config,
    # or from the other corpus, changes these scores.
    A = [Topic("t1", [("m1", "The dogs ran, the cat")], [("s1", "the dog ran"), ("s2", "The cat")])]
    B = [Topic("t1", [("m1", "the dog, The cat")], [("s1", "The dogs the"), ("s2", "cat ran")])]
    STOP = TokenizeConfig(stopwords=frozenset({"the"}))

    def score(self, topics, config):
        return score_corpus(topics, self.METRICS, table=self.TABLE,
                            coding=encode_corpus(topics, config))

    def test_calls_do_not_depend_on_earlier_calls(self):
        a_first = self.score(self.A, self.STOP)
        b_after_a = self.score(self.B, DEFAULT_CONFIG)
        b_first = self.score(self.B, DEFAULT_CONFIG)
        a_after_b = self.score(self.A, self.STOP)
        assert (a_first, b_after_a) == (a_after_b, b_first)
        assert self.score(self.B, self.STOP) != b_first

    def test_memory_returns_to_its_level(self):
        # Kept past the call, a corpus's 3,000 distinct chunks, or its word
        # list, would hold hundreds of KB; numpy's caches of small blocks
        # vary by a few KB from call to call.
        rng = random.Random(0)

        def corpus(stem: str) -> list[Topic]:
            chunks = [f"{stem}{i}," for i in range(3000)]
            return [Topic(f"t{t}", [(f"m{m}", " ".join(rng.choices(chunks, k=300)))
                                    for m in range(2)],
                          [(f"s{k}", " ".join(rng.choices(chunks, k=300))) for k in range(5)])
                    for t in range(3)]

        warm = corpus("Warm")  # the first call's one-off allocations
        score_corpus(warm, self.METRICS[:2], coding=encode_corpus(warm))
        for stem, config in (("Word", self.STOP), ("Text", DEFAULT_CONFIG)):
            topics = corpus(stem)
            tracemalloc.start()
            try:
                score_corpus(topics, self.METRICS[:2], coding=encode_corpus(topics, config))
                kept = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert kept < 16 * 1024


class TestScoreCorpusMemory:
    def test_exact_batch_stays_near_two_count_matrices(self):
        # Scoring a batch needs its (summaries x columns) counts and one clip
        # buffer of the systems' rows; taking the minimum against every
        # reference at once would hold four more. Four long references with
        # no word in common give one column per distinct reference unit, and
        # a dense (word x word) lookup table would be 8,001 x 8,001 int32
        # entries, 256 MB, so every level is searched, once for the
        # references and the systems together. Over 30 words, four
        # references as long hold about 8,000 distinct 4-grams but only about
        # 900 bigrams and 7,000 trigrams, so each level's table is below the
        # count matrix its keys make, and every level gathers, one table at
        # a time.
        rng = random.Random(0)
        n_refs, ref_len, n_systems = 4, 2000, 51
        disjoint = [(f"m{r}", " ".join(f"w{r * ref_len + i}" for i in range(ref_len)))
                    for r in range(n_refs)]
        few_words = [(f"m{r}", " ".join(rng.choices([f"w{i}" for i in range(30)], k=ref_len)))
                     for r in range(n_refs)]
        cases = [(disjoint, "rouge-1", 0), (disjoint, "rouge-2", 1), (disjoint, "rouge-3", 2),
                 (disjoint, "rouge-su4", 1), (few_words, "rouge-4", 0)]
        for refs, name, searches in cases:
            variant = RougeVariant.parse(name)
            vocab = [word for _, text in refs for word in text.split()]
            systems = [(f"s{k:02d}", " ".join(rng.choices(vocab, k=100)))
                       for k in range(n_systems)]
            columns = 1 + len(set().union(*(units(tokenize(text), variant) for _, text in refs)))
            matrix_bytes = n_systems * columns * 8
            topics = [Topic("t1", refs, systems)]
            with mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as search:
                tracemalloc.start()
                try:
                    score_corpus(topics, [MetricConfig(variant)], coding=encode_corpus(topics))
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
            assert peak < 4 * matrix_bytes, name
            assert search.call_count == searches, name

    def test_we_batch_composes_one_candidate_at_a_time(self):
        # Scoring a batch under embedding matching holds the references'
        # composed units of one length, one candidate's, and the joint count
        # matrix of all the summaries. Composing every unit of the batch at
        # once would add about 12 MB here: 51 systems of 100 words drawn
        # from 5,000 hold about 5,000 distinct bigrams, at 300 float64
        # values each.
        self.assert_we_peak_within_one_candidate([ROUGE_2])

    def test_we_shared_unigram_span_keeps_no_rows(self):
        # rouge-1 scores the unigram span for rouge-su4 too. Keeping the
        # systems' composed unigrams for it, about 5,000 words at 300
        # float64 values each, would break the same bound.
        self.assert_we_peak_within_one_candidate([ROUGE_1, ROUGE_SU4])

    @staticmethod
    def assert_we_peak_within_one_candidate(variants):
        rng = np.random.default_rng(0)
        vocab = [f"w{i}" for i in range(5000)]
        table = make_table(dict(zip(vocab, rng.standard_normal((len(vocab), 300)))))
        refs = [(f"m{r}", " ".join(rng.choice(vocab, 100))) for r in range(4)]
        systems = [(f"s{k:02d}", " ".join(rng.choice(vocab, 100))) for k in range(51)]
        found = [units(tokenize(text), variants[-1]) for _, text in refs + systems]
        pairs = [[unit for unit in found_units if len(unit) == 2] for found_units in found]
        sides = 8 * table.dim * (sum(map(len, pairs[:4])) + max(map(len, pairs[4:])))
        counts = 8 * len(found) * (1 + len(set().union(*found)))
        topics = [Topic("t1", refs, systems)]
        tracemalloc.start()
        try:
            score_corpus(topics, [MetricConfig(variant, match="we") for variant in variants],
                         coding=encode_corpus(topics), table=table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * (sides + counts)


def correlate(scores: dict[str, dict[str, float]],
              judgments: dict[str, dict[str, float]]) -> MetaEvalReport:
    """``meta_evaluate`` over the axis that ``common_systems`` gives, as
    ``meta-eval`` runs it; every metric of ``scores`` holds the same systems."""
    systems = common_systems(next(iter(scores.values())), judgments)
    return meta_evaluate(scores, judgments, systems)


class TestMetaEvaluate:
    @pytest.mark.parametrize("corpus_extra, judged_extra, left_out", [
        ([], ["S1", "ghost"], "judged but not scored: S1, ghost; scored but not judged: none; "
                              "differing only in case from another: S1"),
        (["Ghost", "s4"], ["ghost"], "judged but not scored: ghost; scored but not judged: "
                                     "Ghost, s4; differing only in case from another: Ghost, ghost"),
    ], ids=["judged-only", "both-sides"])
    def test_systems_left_out_are_logged_once(self, caplog, corpus_extra, judged_extra,
                                              left_out):
        # Corpus systems s1, s2, s3 are judged; the rows are those of these
        # three alone, and only the run with systems left out logs.
        values = {"s1": 0.3, "s2": 0.1, "s3": 0.8}
        common = {s: (v, 1 + v, 2 * v) for s, v in values.items()}
        scored = {**values, **dict.fromkeys(corpus_extra, 0.5)}
        scores = {name: scored for name in ("rouge-1", "rouge-2")}
        judgments = judgments_from({**common, **dict.fromkeys(judged_extra, (0.5, 0.5, 0.5))})
        with caplog.at_level(logging.WARNING):
            report = correlate(scores, judgments)
            assert report == correlate({name: values for name in scores},
                                       judgments_from(common))
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("rougewe.harness", logging.WARNING,
             f"systems left out of the correlations: {left_out}")]
        assert report.n_systems == 3

    def test_common_systems_taken_once_in_sorted_order(self, tmp_path, monkeypatch):
        # The scores list their systems out of order, the judgments in
        # another order and with a judged-only id that sorts first: every
        # correlation runs over the common systems in sorted order, so the
        # report is that of the sorted, intersected input, to the byte.
        values = {"s5": 0.41, "s2": 0.13, "s7": 0.97, "s1": 0.3, "s4": 0.29, "s3": 0.83,
                  "s6": 0.5}
        rows = {s: (v * v, (7 * v) % 1, 3 - v) for s, v in sorted(values.items(), reverse=True)}
        rows["s0"] = (0.7, 0.2, 0.1)
        common = sorted(values)
        scores = {name: values for name in ("rouge-1", "rouge-su4")}
        calls = []
        real = harness.correlation_triple
        monkeypatch.setattr(harness, "correlation_triple",
                            lambda x, y: calls.append((list(x), list(y))) or real(x, y))
        report = correlate(scores, judgments_from(rows))
        assert calls == [([values[s] for s in common], [rows[s][k] for s in common])
                         for _ in scores for k in range(len(JUDGMENT_TYPES))]
        expected = correlate({name: {s: values[s] for s in common} for name in scores},
                             judgments_from({s: rows[s] for s in common}))
        assert report == expected and report.n_systems == 7
        paths = [write_reports(r, tmp_path / name) for name, r in
                 (("given", report), ("sorted", expected))]
        for given, in_sorted in zip(*paths):
            assert given.read_bytes() == in_sorted.read_bytes()

    def test_co_monotone_rank_correlations(self):
        scores = {"m": dict(zip("abcde", (0.1, 0.2, 0.3, 0.4, 0.5)))}
        judgments = judgments_from({
            s: (v, 2 * v, v + 1) for s, v in zip("abcde", (1.0, 2.0, 4.0, 4.5, 9.0))
        })
        report = correlate(scores, judgments)
        for row in report.rows:
            assert row.spearman == 1.0
            assert row.kendall == 1.0

    def test_equal_scores_give_pearson_one(self):
        values = (0.3, 0.1, 0.8, 0.5)
        scores = {"m": dict(zip("abcd", values))}
        judgments = judgments_from({s: (v, 1 + v, 2 * v) for s, v in zip("abcd", values)})
        report = correlate(scores, judgments)
        assert report.rows[0].pearson == pytest.approx(1.0, abs=1e-12)

    def test_adjacent_swap_kendall(self):
        scores = {"m": dict(zip("abcd", (1.0, 3.0, 2.0, 4.0)))}
        judgments = judgments_from({s: (v, v, v) for s, v in zip("abcd", (1.0, 2.0, 3.0, 4.0))})
        report = correlate(scores, judgments)
        assert report.rows[0].kendall == pytest.approx(2 / 3)

    def test_intersection_discipline(self):
        scores = {"m": dict(zip("abc", (1.0, 2.0, 3.0)))}
        judgments = judgments_from({
            "a": (1, 1, 1), "b": (2, 2, 2), "c": (3, 3, 3), "ghost": (9, 9, 9),
        })
        report = correlate(scores, judgments)
        assert report.n_systems == 3

    def test_fewer_than_two_common_systems(self):
        scores = {"m": {"a": 1.0, "b": 2.0}}
        judgments = judgments_from({"b": (1, 1, 1), "z": (2, 2, 2)})
        with pytest.raises(MetaEvalError):
            correlate(scores, judgments)

    def test_constant_metric_raises_not_zero(self):
        scores = {"m": dict.fromkeys("abc", 0.5)}
        judgments = judgments_from({"a": (1, 1, 1), "b": (2, 2, 2), "c": (3, 3, 3)})
        with pytest.raises(UndefinedCorrelationError, match="metric m against pyramid"):
            correlate(scores, judgments)

    def test_row_order_and_shape(self):
        scores = {
            "rouge-1": dict(zip("abc", (1.0, 2.0, 3.0))),
            "rouge-2": dict(zip("abc", (1.0, 2.0, 4.0))),
        }
        judgments = judgments_from({"a": (1, 1, 1), "b": (2, 2, 2), "c": (3, 3, 3)})
        report = correlate(scores, judgments)
        assert [(r.metric, r.judgment) for r in report.rows] == [
            (m, j) for m in ("rouge-1", "rouge-2") for j in JUDGMENT_TYPES
        ]


class TestReports:
    @pytest.fixture
    def report(self):
        scores = {"rouge-1": dict(zip("abc", (1.0, 2.0, 3.0)))}
        judgments = judgments_from({"a": (1, 1, 1), "b": (2, 2, 2), "c": (3, 3, 3)})
        return correlate(scores, judgments)

    def test_csv_shape(self, tmp_path, report):
        csv_path, _ = write_reports(report, tmp_path)
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "metric,judgment,pearson,spearman,kendall,n"
        assert lines[1] == "rouge-1,pyramid,1.0000,1.0000,1.0000,3"
        assert len(lines) == 4

    def test_json_payload(self, tmp_path, report):
        import json

        _, json_path = write_reports(report, tmp_path, config={"command": "meta-eval"})
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        assert payload["config"] == {"command": "meta-eval"}
        assert payload["n_systems"] == 3
        assert payload["rows"][0]["metric"] == "rouge-1"
        assert payload["rows"][0]["pearson"] == 1.0

    def test_table_format(self, report):
        table = format_table(report)
        assert "metric" in table.splitlines()[0]
        assert "rouge-1" in table
        assert "1.0000" in table

    def test_every_writer_orders_the_coefficients_alike(self, tmp_path):
        import json

        report = MetaEvalReport([ReportRow("rouge-su4", "readability", 0.125, -0.5, 0.75)], 5)
        csv_path, json_path = write_reports(report, tmp_path)
        assert csv_path.read_text(encoding="utf-8").splitlines()[1:] == [
            "rouge-su4,readability,0.1250,-0.5000,0.7500,5"]
        rows = json.loads(json_path.read_text(encoding="utf-8"))["rows"]
        assert [list(row.items()) for row in rows] == [[
            ("metric", "rouge-su4"), ("judgment", "readability"), ("pearson", 0.125),
            ("spearman", -0.5), ("kendall", 0.75), ("n", 5)]]
        assert format_table(report).splitlines() == [
            "metric         judgment               P        S        K    n",
            "rouge-su4      readability       0.1250  -0.5000   0.7500    5"]
