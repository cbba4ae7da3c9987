"""Corpus scoring and correlation against human judgments.

A corpus is a directory tree ``<root>/<topic_id>/models/<model_id>.txt``
plus ``<root>/<topic_id>/systems/<system_id>.txt``; judgments arrive as a
CSV ``system_id,pyramid,responsiveness,readability``. Every configured
metric scores every system summary against its topic's model summaries,
per-system means are correlated with each judgment column, and the report
is emitted as CSV and JSON.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .correlation import UndefinedCorrelationError, correlation_triple
from .embeddings import EmbeddingTable
from .rouge import (MULTIREF_POLICIES, OOV_POLICIES, MatchFunction, RougeScore, RougeVariant,
                    score_batch)
from .textpipe import DEFAULT_CONFIG, TokenizeConfig, encode, read_text

logger = logging.getLogger(__name__)

JUDGMENT_TYPES = ("pyramid", "responsiveness", "readability")
JUDGMENTS_HEADER = ("system_id", "pyramid", "responsiveness", "readability")
MATCH_KINDS = ("exact", "we")
REPORT_COMPONENTS = ("recall", "precision", "f1")
# A corpus's sorted word list and each summary's word ids (``encode_corpus``).
Coding = tuple[list[str], list[np.ndarray]]


class CorpusLoadError(Exception):
    pass


class JudgmentsFormatError(Exception):
    pass


class MetaEvalError(Exception):
    pass


@dataclass
class Topic:
    topic_id: str
    model_summaries: list[tuple[str, str]]
    system_summaries: list[tuple[str, str]]


@dataclass(frozen=True)
class MetricConfig:
    """One metric to evaluate: a ROUGE variant plus its matching options."""

    variant: RougeVariant
    match: str = "exact"
    oov: str = "zero"
    multiref: str = "average"
    component: str = "recall"

    def __post_init__(self):
        for what, value, allowed in (("match", self.match, MATCH_KINDS),
                                     ("oov policy", self.oov, OOV_POLICIES),
                                     ("multiref policy", self.multiref, MULTIREF_POLICIES),
                                     ("report component", self.component, REPORT_COMPONENTS)):
            if value not in allowed:
                raise ValueError(f"unknown {what} {value!r}")

    def match_function(self, table: EmbeddingTable | None) -> MatchFunction:
        """The matcher this metric scores with; ``we`` needs ``table``."""
        if self.match == "we":
            return MatchFunction.we(table, oov_policy=self.oov)
        return MatchFunction.exact()

    @property
    def name(self) -> str:
        if self.match == "we":
            return self.variant.name.replace("rouge-", "rouge-we-", 1)
        return self.variant.name

    def to_dict(self) -> dict:
        return {
            "variant": self.variant.name,
            "match": self.match,
            "oov": self.oov,
            "multiref": self.multiref,
            "report": self.component,
        }

    @classmethod
    def from_dict(cls, data: dict, **defaults) -> "MetricConfig":
        """Parse the metric configuration schema. An omitted key takes its
        value from ``defaults`` (run-level ``match``, ``oov``, ``multiref``,
        ``component``), else the field's default."""
        unknown = set(data) - {"variant", "match", "oov", "multiref", "report"}
        if unknown:
            raise ValueError(f"unknown metric config keys: {', '.join(sorted(unknown))}")
        if "variant" not in data:
            raise ValueError("metric config requires a 'variant'")
        given = {"component" if key == "report" else key: value
                 for key, value in data.items() if key != "variant"}
        return cls(RougeVariant.parse(data["variant"]), **{**defaults, **given})


def _read_text(path: Path) -> str:
    try:
        return read_text(path)
    except OSError as exc:
        raise CorpusLoadError(f"unreadable file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CorpusLoadError(f"file {path} is not valid UTF-8 (byte offset {exc.start})") from None


def _read_dir(directory: Path) -> list[tuple[str, str]]:
    entries = sorted(p for p in directory.iterdir() if p.is_file() and p.suffix == ".txt")
    return [(p.stem, _read_text(p)) for p in entries]


def load_corpus(root: str | Path) -> list[Topic]:
    """Load all topics under ``root``. Texts stay raw; normalization is the
    scorer's job."""
    root = Path(root)
    if not root.is_dir():
        raise CorpusLoadError(f"corpus root {root} is not a directory")
    topics = []
    for topic_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        models_dir = topic_dir / "models"
        if not models_dir.is_dir():
            raise CorpusLoadError(f"topic {topic_dir.name!r} has no models/ directory")
        models = _read_dir(models_dir)
        if not models:
            raise CorpusLoadError(f"topic {topic_dir.name!r} has no model summaries")
        systems_dir = topic_dir / "systems"
        systems = _read_dir(systems_dir) if systems_dir.is_dir() else []
        topics.append(Topic(topic_dir.name, models, systems))
    return topics


def load_judgments(path: str | Path) -> dict[str, dict[str, float]]:
    """Parse the judgments CSV into ``judgments[system id][judgment]``, in
    file order; an unreadable file, empty or duplicate system ids and
    non-numeric or non-finite (nan, inf) scores are errors naming the file."""
    scores: dict[str, dict[str, float]] = {}

    def error(message: str) -> JudgmentsFormatError:
        return JudgmentsFormatError(f"judgments file {path}: {message}")

    try:
        text = read_text(path)
    except OSError as exc:
        raise JudgmentsFormatError(f"unreadable judgments file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise JudgmentsFormatError(
            f"judgments file {path} is not valid UTF-8 (byte offset {exc.start})"
        ) from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise error("empty") from None
    if tuple(h.strip() for h in header) != JUDGMENTS_HEADER:
        raise error(f"expected header {','.join(JUDGMENTS_HEADER)!r}, found {','.join(header)!r}")
    for rownum, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise error(f"row {rownum}: expected 4 fields, found {len(row)}")
        system_id = row[0].strip()
        if not system_id:
            raise error(f"row {rownum}: empty system_id")
        if system_id in scores:
            raise error(f"row {rownum}: duplicate system_id {system_id!r}")
        try:
            values = [float(v) for v in row[1:]]
        except ValueError:
            raise error(f"row {rownum}: non-numeric score") from None
        if not all(map(math.isfinite, values)):
            raise error(f"row {rownum}: non-finite score")
        scores[system_id] = dict(zip(JUDGMENT_TYPES, values))
    return scores


def encode_corpus(topics: Sequence[Topic], tokenize_config: TokenizeConfig = DEFAULT_CONFIG
                  ) -> Coding:
    """The corpus coded by ``textpipe.encode`` under ``tokenize_config``:
    its words in sorted order, the only ones that scoring looks up in an
    embedding table, and each summary's word ids, each topic's models and
    then its systems, in ``topics`` order."""
    return encode([text for t in topics for _, text in (*t.model_summaries, *t.system_summaries)],
                  tokenize_config)


def score_pairs(topics: Sequence[Topic], metrics: Sequence[MetricConfig], coding: Coding,
                table: EmbeddingTable | None = None
                ) -> dict[str, dict[str, dict[str, RougeScore | None]]]:
    """Every system's score on every topic under every metric:
    ``pairs[metric name][system id][topic id]``, systems in sorted order and
    topics in ``topic_id`` order, ``None`` where a system has no summary for
    a topic (logged once, in topic then system order).

    ``coding`` is ``encode_corpus(topics, ...)`` under the run's
    tokenization: each summary one array of word ids over the corpus's
    sorted word list, whose table rows are looked up once under embedding
    matching, where ``table`` must hold the words' vectors. The topics are
    scored one at a time: for each metric, all of a topic's system summaries
    are scored against its model summaries in one ``score_batch`` call, and
    every score is bitwise what ``rouge_score`` gives for that pair. Each
    unit span of a topic is scored once per match kind and OOV policy, so
    the unigrams of rouge-1 and every rouge-SU once, and its counts serve
    every metric that holds it (``score_batch``'s ``shared``, one dict per
    topic, dropped after it).
    A batch that fails to score raises ``MetaEvalError`` naming the metric
    and topic, and the model summaries or the system whose summary fails
    when scored alone, chained from the cause (the references and then each
    summary are scored again on their own, with nothing shared, to find
    it): a zero in its place would bias the correlations without a trace.
    Two metrics with the same name would share one set of report rows, and
    two topics with the same id one set of summaries, so either raises
    ``MetaEvalError`` too.
    """
    if not topics:
        raise ValueError("no topics to score")
    for what, names in (("topic", [t.topic_id for t in topics]),
                        ("metric", [m.name for m in metrics])):
        for name in names:
            if names.count(name) > 1:
                raise MetaEvalError(f"{what} {name} is given more than once; "
                                    f"each {what} needs a distinct name")

    matches = [metric.match_function(table) for metric in metrics]
    rows = table.rows(coding[0]) if any(m.match == "we" for m in metrics) else None
    ids = iter(coding[1])  # in ``encode_corpus`` order
    # Each topic's model summaries, and its system summaries by system id.
    seqs = {t.topic_id: ([next(ids) for _ in t.model_summaries],
                         {sid: next(ids) for sid, _ in t.system_summaries}) for t in topics}
    system_ids = sorted({sid for t in topics for sid, _ in t.system_summaries})
    pairs = {metric.name: {system_id: {} for system_id in system_ids} for metric in metrics}
    for topic in sorted(topics, key=lambda t: t.topic_id):
        refs, cands = seqs[topic.topic_id]
        for system_id in sorted(set(system_ids).difference(cands)):
            logger.warning("system %s has no summary for topic %s; scoring 0",
                           system_id, topic.topic_id)
        present = sorted(cands)
        batch = [cands[system_id] for system_id in present]
        # The batch's span counts, shared by the metrics that hold each
        # span; a summary scored again alone is given none.
        shared = {}
        for metric, match in zip(metrics, matches):
            try:
                scores = score_batch(refs, batch, metric.variant, match, metric.multiref, rows,
                                     shared)
            except Exception as exc:
                suspects = [(f"topic {topic.topic_id} (model summaries)", [])]
                suspects += [(f"system {system_id}, topic {topic.topic_id}", [cands[system_id]])
                             for system_id in present]
                for name, alone in suspects:
                    try:
                        score_batch(refs, alone, metric.variant, match, metric.multiref, rows)
                    except Exception as one:
                        raise MetaEvalError(f"scoring failed for metric {metric.name}, {name}: "
                                            f"{one}") from one
                raise MetaEvalError(f"scoring failed for metric {metric.name}, topic "
                                    f"{topic.topic_id} (system summaries): {exc}") from exc
            scored = dict(zip(present, scores))
            for system_id, by_topic in pairs[metric.name].items():
                by_topic[topic.topic_id] = scored.get(system_id)
    return pairs


def score_corpus(topics: Sequence[Topic], metrics: Sequence[MetricConfig], coding: Coding,
                 table: EmbeddingTable | None = None) -> dict[str, dict[str, float]]:
    """Per-metric mean score of every system over all topics,
    ``means[metric name][system id]`` with systems in sorted order: the mean
    of the metric's report component over the system's ``score_pairs``
    cells, a missing summary counting 0. Each mean is a sequential sum over
    topics in ``topic_id`` order, so no input order changes a bit.
    """
    pairs = score_pairs(topics, metrics, coding, table)
    return {metric.name: {system_id: sum(0.0 if score is None else getattr(score, metric.component)
                                         for score in by_topic.values()) / len(by_topic)
                          for system_id, by_topic in pairs[metric.name].items()}
            for metric in metrics}


@dataclass
class ReportRow:
    metric: str
    judgment: str
    pearson: float
    spearman: float
    kendall: float


# ``correlation_triple``'s coefficients, in its order: the report columns.
COEFFICIENTS = tuple(f.name for f in fields(ReportRow))[2:]


@dataclass
class MetaEvalReport:
    rows: list[ReportRow] = field(default_factory=list)
    n_systems: int = 0


def meta_evaluate(system_scores: dict[str, dict[str, float]],
                  judgments: dict[str, dict[str, float]]) -> MetaEvalReport:
    """Correlate each metric's per-system scores with each judgment column.

    Every metric's dict must hold the same systems, as ``score_corpus``
    gives. The systems present on both sides are taken once, in sorted
    order, and every correlation runs over them; fewer than 2 common
    systems is an error. The systems left out on either side are logged
    in one warning, which flags those whose ids differ only in case from
    another system's. Each row holds a metric, a judgment and their
    ``correlation_triple``, whose Pearson does not depend on either side's
    scale. A constant side raises ``UndefinedCorrelationError`` naming the
    metric and the judgment.
    """
    scored = {system_id for scores in system_scores.values() for system_id in scores}
    judged = set(judgments)
    if scored != judged:
        folded = [s.lower() for s in scored | judged]
        logger.warning("systems left out of the correlations: judged but not scored: %s; "
                       "scored but not judged: %s; differing only in case from another: %s",
                       *(", ".join(ids) or "none" for ids in (
                           sorted(judged - scored), sorted(scored - judged),
                           [s for s in sorted(scored ^ judged) if folded.count(s.lower()) > 1])))
    common = sorted(scored & judged)
    if len(common) < 2:
        raise MetaEvalError(
            f"only {len(common)} system(s) common to scores and judgments; need at least 2"
        )
    columns = {judgment: [judgments[s][judgment] for s in common] for judgment in JUDGMENT_TYPES}
    report = MetaEvalReport(n_systems=len(common))
    for metric_name, scores in system_scores.items():
        x = [scores[s] for s in common]
        for judgment, y in columns.items():
            try:
                coefficients = correlation_triple(x, y)
            except UndefinedCorrelationError as exc:
                raise UndefinedCorrelationError(
                    f"metric {metric_name} against {judgment}: {exc}"
                ) from exc
            report.rows.append(ReportRow(metric_name, judgment, *coefficients))
    return report


def write_reports(report: MetaEvalReport, out_dir: str | Path, config: dict | None = None) -> tuple[Path, Path]:
    """Emit report.csv and report.json into ``out_dir``, made if missing,
    and return their paths; failing to make or write them raises ``OSError``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "report.csv"
    json_path = out_dir / "report.json"

    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["metric", "judgment", *COEFFICIENTS, "n"])
        for row in report.rows:
            writer.writerow([row.metric, row.judgment,
                             *(f"{getattr(row, c):.4f}" for c in COEFFICIENTS), report.n_systems])

    payload = {
        "config": config or {},
        "n_systems": report.n_systems,
        "rows": [{**asdict(row), "n": report.n_systems} for row in report.rows],
    }
    json_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return csv_path, json_path


def format_table(report: MetaEvalReport) -> str:
    """Fixed-width correlation table for terminal output."""
    heads = " ".join(f"{c[0].upper():>8}" for c in COEFFICIENTS)
    lines = [f"{'metric':<14} {'judgment':<15} {heads} {'n':>4}"]
    for row in report.rows:
        values = " ".join(f"{getattr(row, c):>8.4f}" for c in COEFFICIENTS)
        lines.append(f"{row.metric:<14} {row.judgment:<15} {values} {report.n_systems:>4}")
    return "\n".join(lines)
