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
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .correlation import UndefinedCorrelationError, correlation_triple
from .embeddings import EmbeddingTable
from .rouge import (MULTIREF_POLICIES, OOV_POLICIES, SCORE_FIELDS, MatchFunction, RougeVariant,
                    score_fields)
from .textpipe import DEFAULT_CONFIG, InputError, TokenizeConfig, encode, read_text

logger = logging.getLogger(__name__)

JUDGMENT_TYPES = ("pyramid", "responsiveness", "readability")
JUDGMENTS_HEADER = ("system_id", "pyramid", "responsiveness", "readability")
MATCH_KINDS = ("exact", "we")
REPORT_COMPONENTS = ("recall", "precision", "f1")
# A corpus's sorted word list and each summary's word ids (``encode_corpus``).
Coding = tuple[list[str], list[np.ndarray]]


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


def _read_dir(directory: Path) -> list[tuple[str, str]]:
    entries = sorted(p for p in directory.iterdir() if p.is_file() and p.suffix == ".txt")
    return [(p.stem, read_text(p)) for p in entries]


def load_corpus(root: str | Path) -> list[Topic]:
    """Load all topics under ``root``. Texts stay raw; normalization is the
    scorer's job. No topic, a topic without model summaries or a summary
    that cannot be read raises ``InputError``."""
    path = Path(root)
    if not path.is_dir():
        raise InputError(f"corpus root {path} is not a directory")
    topics = []
    for topic_dir in sorted(p for p in path.iterdir() if p.is_dir()):
        models_dir = topic_dir / "models"
        if not models_dir.is_dir():
            raise InputError(f"topic {topic_dir.name!r} has no models/ directory")
        models = _read_dir(models_dir)
        if not models:
            raise InputError(f"topic {topic_dir.name!r} has no model summaries")
        systems_dir = topic_dir / "systems"
        systems = _read_dir(systems_dir) if systems_dir.is_dir() else []
        topics.append(Topic(topic_dir.name, models, systems))
    if not topics:
        raise InputError(f"corpus {root} contains no topics")
    return topics


def load_judgments(path: str | Path) -> dict[str, dict[str, float]]:
    """Parse the judgments CSV into ``judgments[system id][judgment]``, in
    file order; an unreadable file, empty or duplicate system ids and
    non-numeric or non-finite (nan, inf) scores raise ``InputError`` naming the file."""
    scores: dict[str, dict[str, float]] = {}

    def error(message: str) -> InputError:
        return InputError(f"judgments file {path}: {message}")

    reader = csv.reader(io.StringIO(read_text(path, "judgments file"), newline=""))
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


def require_distinct(what: str, names: Sequence[str]) -> None:
    """Raise ``MetaEvalError`` naming the first of ``names`` given twice."""
    for name in names:
        if names.count(name) > 1:
            raise MetaEvalError(f"{what} {name} is given more than once; "
                                f"each {what} needs a distinct name")


class PairScores(NamedTuple):
    """``score_pairs``'s cells, over one system axis, ``systems`` in sorted
    order, and one topic axis, ``topics`` by id: ``present`` marks the
    (system, topic) cells with a summary, and ``scores`` holds per metric
    name a (fields × systems × topics) float64 array, 0.0 in every field of
    a cell without a summary."""

    systems: list[str]
    topics: list[str]
    present: np.ndarray
    scores: dict[str, np.ndarray]


def score_pairs(topics: Sequence[Topic], metrics: Sequence[MetricConfig], coding: Coding,
                table: EmbeddingTable | None = None, fields: Sequence[str] | None = None
                ) -> PairScores:
    """Every system's score on every topic under every metric, as arrays
    (``PairScores``): of each metric, the ``RougeScore`` fields named by
    ``fields``, in that order, or its report component alone when
    ``fields`` is None; a name that is not a field raises ``ValueError``
    before anything is scored. A system without a summary for a topic is
    logged once, in topic then system order.

    ``coding`` is ``encode_corpus(topics, ...)`` under the run's
    tokenization: each summary one array of word ids over the corpus's
    sorted word list, whose table rows are looked up once under embedding
    matching, where ``table`` must hold the words' vectors. The topics are
    scored one at a time: all of a topic's system summaries are scored
    against its model summaries under every metric in one ``score_fields``
    call, which scores each unit span once per match kind and OOV policy
    (the unigrams of rouge-1 and every rouge-SU once), and every value is
    bitwise that field of ``rouge_score`` for that pair.
    A topic that fails to score raises ``MetaEvalError`` naming the first
    metric, in ``metrics`` order, whose batch fails when scored alone, the
    topic, and the model summaries or the system whose summary fails when
    scored alone under that metric, chained from the cause (the references
    and then each summary are scored again on their own to find it): a zero
    in its place would bias the correlations without a trace. When no
    metric's batch fails alone, the error names the topic alone.
    Two metrics with the same name would share one set of report rows, and
    two topics with the same id one set of summaries, so either raises
    ``MetaEvalError`` too (``require_distinct``), before anything is scored.
    """
    if not topics:
        raise ValueError("no topics to score")
    for name in fields or ():
        if name not in SCORE_FIELDS:
            raise ValueError(f"unknown score field {name!r}")
    require_distinct("topic", [t.topic_id for t in topics])
    require_distinct("metric", [m.name for m in metrics])

    specs = [(metric.variant, metric.match_function(table), metric.multiref,
              (metric.component,) if fields is None else tuple(fields)) for metric in metrics]
    rows = table.rows(coding[0]) if any(m.match == "we" for m in metrics) else None
    ids = iter(coding[1])  # in ``encode_corpus`` order
    # Each topic's model summaries, and its system summaries by system id.
    seqs = {t.topic_id: ([next(ids) for _ in t.model_summaries],
                         {sid: next(ids) for sid, _ in t.system_summaries}) for t in topics}
    system_ids = sorted({sid for t in topics for sid, _ in t.system_summaries})
    column = {system_id: i for i, system_id in enumerate(system_ids)}
    topic_ids = sorted(seqs)
    scored = PairScores(system_ids, topic_ids,
                        np.zeros((len(system_ids), len(topic_ids)), dtype=bool),
                        {metric.name: np.zeros((len(names), len(system_ids), len(topic_ids)))
                         for metric, (*_, names) in zip(metrics, specs)})
    for t, topic_id in enumerate(topic_ids):
        refs, cands = seqs[topic_id]
        for system_id in sorted(set(system_ids).difference(cands)):
            logger.warning("system %s has no summary for topic %s; scoring 0",
                           system_id, topic_id)
        present = sorted(cands)
        cells = [column[system_id] for system_id in present]
        scored.present[cells, t] = True
        batch = [cands[system_id] for system_id in present]
        try:
            values = score_fields(refs, batch, specs, rows)
        except Exception as exc:
            # The first metric whose batch fails alone, and under it the
            # first of these that fails alone, or else the batch.
            suspects = [(f"topic {topic_id} (model summaries)", [])] + [
                (f"system {sid}, topic {topic_id}", [cands[sid]]) for sid in present]
            for metric, spec in zip(metrics, specs):
                if (err := _failure(refs, batch, spec, rows)) is not None:
                    for name, alone in suspects:
                        if (one := _failure(refs, alone, spec, rows)) is not None:
                            raise MetaEvalError(f"scoring failed for metric {metric.name}, "
                                                f"{name}: {one}") from one
                    raise MetaEvalError(f"scoring failed for metric {metric.name}, topic "
                                        f"{topic_id} (system summaries): {err}") from err
            raise MetaEvalError(f"scoring failed for topic {topic_id}: {exc}") from exc
        for metric, value in zip(metrics, values):
            scored.scores[metric.name][:, cells, t] = value
    return scored


def _failure(refs: list, cands: list, spec: tuple, rows: np.ndarray | None) -> Exception | None:
    """What scoring ``cands`` against ``refs`` under the one metric ``spec``
    (a ``score_fields`` metric) raises, or None when it scores."""
    try:
        score_fields(refs, cands, [spec], rows)
    except Exception as exc:
        return exc


def score_corpus(topics: Sequence[Topic], metrics: Sequence[MetricConfig], coding: Coding,
                 table: EmbeddingTable | None = None) -> dict[str, dict[str, float]]:
    """Per-metric mean score of every system over all topics,
    ``means[metric name][system id]`` with systems in sorted order: the mean
    of the metric's report component over the system's ``score_pairs``
    cells, a missing summary counting 0. The component is folded over the
    topics in ``topic_id`` order by one element-wise add per topic from 0,
    then divided by their number: bitwise each system's Python ``sum`` over
    its topics, so no input order changes a bit. (``np.sum`` over the topic
    axis would sum pairwise, which changes bits from 8 topics on.)
    """
    scored = score_pairs(topics, metrics, coding, table)
    means = {}
    for name, (component,) in scored.scores.items():
        total = np.zeros(len(scored.systems))
        for column in component.T:
            total += column
        means[name] = dict(zip(scored.systems, (total / len(scored.topics)).tolist()))
    return means


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


def common_systems(scored_ids: Iterable[str], judgments: dict[str, dict[str, float]]) -> list[str]:
    """The systems both scored and judged, in sorted order: the axis of every
    correlation. ``scored_ids`` are the corpus's systems, the keys of
    ``score_corpus``'s means. The systems left out on either side are logged
    in one warning, which flags those whose ids differ only in case from
    another system's; fewer than 2 common systems raise ``MetaEvalError``."""
    scored = set(scored_ids)
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
    return common


def meta_evaluate(system_scores: dict[str, dict[str, float]],
                  judgments: dict[str, dict[str, float]], systems: list[str]) -> MetaEvalReport:
    """Correlate each metric's scores with each judgment column over
    ``systems``, the axis ``common_systems`` gives, so no order of systems on
    either side changes a bit of the report. Each row holds a metric, a
    judgment and their ``correlation_triple``, whose Pearson does not depend
    on either side's scale. A constant side raises
    ``UndefinedCorrelationError`` naming the metric and the judgment."""
    columns = {judgment: [judgments[s][judgment] for s in systems] for judgment in JUDGMENT_TYPES}
    report = MetaEvalReport(n_systems=len(systems))
    for metric_name, scores in system_scores.items():
        x = [scores[s] for s in systems]
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
