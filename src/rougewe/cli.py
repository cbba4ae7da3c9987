"""Command-line interface: summary scoring, meta-evaluation, embedding tools.

Options can also come from a JSON config file (--config); explicit
command-line flags win over the file, and the fully resolved configuration
is echoed into the JSON report for provenance.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection

import click
import numpy as np

from . import __version__
from .correlation import UndefinedCorrelationError
from .embeddings import EmbeddingFormatError, EmbeddingTable, load_binary, load_text
from .harness import (
    CorpusLoadError,
    JudgmentsFormatError,
    MetaEvalError,
    MetricConfig,
    corpus_vocabulary,
    format_table,
    load_corpus,
    load_judgments,
    meta_evaluate,
    score_corpus,
    write_reports,
)
from .rouge import RougeVariant, rouge_score
from .textpipe import TokenizeConfig, load_stopwords, tokenize

DEFAULT_METRICS = "rouge-1,rouge-2,rouge-su4"

_CONFIG_KEYS = {
    "metrics", "match", "embeddings", "embeddings_format", "oov", "multiref",
    "report_component", "lowercase", "stem", "stopwords", "out", "normalize",
}


@dataclass
class RunConfig:
    """Fully resolved settings for one invocation."""

    command: str
    metrics: list[MetricConfig] = field(default_factory=list)
    embeddings: str | None = None
    embeddings_format: str = "binary"
    lowercase: bool = True
    stem: bool = False
    stopwords: str | None = None
    normalize: bool = True
    out: str = "."
    corpus: str | None = None
    judgments: str | None = None

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "metrics": [m.to_dict() for m in self.metrics],
            "embeddings": self.embeddings,
            "embeddings_format": self.embeddings_format,
            "lowercase": self.lowercase,
            "stem": self.stem,
            "stopwords": self.stopwords,
            "normalize": self.normalize,
            "out": self.out,
            "corpus": self.corpus,
            "judgments": self.judgments,
        }

    def tokenize_config(self) -> TokenizeConfig:
        stopwords = None
        if self.stopwords:
            try:
                stopwords = load_stopwords(self.stopwords, lowercase=self.lowercase)
            except UnicodeDecodeError as exc:
                raise _not_utf8("stopword file", self.stopwords, exc) from None
        return TokenizeConfig(lowercase=self.lowercase, stem=self.stem, stopwords=stopwords)

    @property
    def uses_embeddings(self) -> bool:
        return any(m.match == "we" for m in self.metrics)

    def load_table(self, vocabulary: Collection[str]) -> EmbeddingTable:
        """The vectors of the words in ``vocabulary``, the only ones scoring looks up."""
        loader = load_binary if self.embeddings_format == "binary" else load_text
        try:
            return loader(self.embeddings, normalize=self.normalize, vocabulary=vocabulary)
        except (EmbeddingFormatError, OSError) as exc:
            raise click.ClickException(f"failed to load embeddings: {exc}") from exc


def _not_utf8(what: str, path: str, exc: UnicodeDecodeError) -> click.ClickException:
    return click.ClickException(f"{what} {path} is not valid UTF-8 (byte offset {exc.start})")


def _read_utf8(path: str, what: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(what, path, exc) from None


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        data = json.loads(_read_utf8(path, "config file"))
    except (OSError, json.JSONDecodeError) as exc:
        raise click.ClickException(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise click.ClickException(f"config file {path} must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise click.ClickException(f"unknown config keys: {', '.join(sorted(unknown))}")
    return data


def _resolve(cli_value, file_config: dict, key: str, default):
    if cli_value is not None:
        return cli_value
    if key in file_config:
        return file_config[key]
    return default


def _build_run_config(command: str, file_config: dict, **cli) -> RunConfig:
    metrics_raw = _resolve(cli.get("metrics"), file_config, "metrics", DEFAULT_METRICS)
    if isinstance(metrics_raw, str):
        metric_entries = [m.strip() for m in metrics_raw.split(",") if m.strip()]
    else:
        metric_entries = list(metrics_raw)  # names or per-metric schema objects
    if not metric_entries:
        raise click.ClickException("no metrics configured")
    match = _resolve(cli.get("match"), file_config, "match", "exact")
    oov = _resolve(cli.get("oov"), file_config, "oov", "zero")
    multiref = _resolve(cli.get("multiref"), file_config, "multiref", "average")
    component = _resolve(cli.get("report_component"), file_config, "report_component", "recall")
    try:
        metrics = []
        for entry in metric_entries:
            if isinstance(entry, dict):
                metrics.append(MetricConfig.from_dict(entry, match=match, oov=oov,
                                                      multiref=multiref, component=component))
            else:
                metrics.append(MetricConfig(RougeVariant.parse(entry), match=match, oov=oov,
                                            multiref=multiref, component=component))
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    config = RunConfig(
        command=command,
        metrics=metrics,
        embeddings=_resolve(cli.get("embeddings"), file_config, "embeddings", None),
        embeddings_format=_resolve(cli.get("embeddings_format"), file_config,
                                   "embeddings_format", "binary"),
        lowercase=_resolve(cli.get("lowercase"), file_config, "lowercase", True),
        stem=_resolve(cli.get("stem"), file_config, "stem", False),
        stopwords=_resolve(cli.get("stopwords"), file_config, "stopwords", None),
        normalize=_resolve(cli.get("normalize"), file_config, "normalize", True),
        out=_resolve(cli.get("out"), file_config, "out", "."),
        corpus=cli.get("corpus"),
        judgments=cli.get("judgments"),
    )
    if config.uses_embeddings and not config.embeddings:
        raise click.ClickException(
            "embedding-based metrics (--match we) require --embeddings <path>"
        )
    return config


def _common_options(fn):
    options = [
        click.option("--metrics", default=None, metavar="LIST",
                      help=f"Comma-separated ROUGE variants [default: {DEFAULT_METRICS}]."),
        click.option("--match", type=click.Choice(["exact", "we"]), default=None,
                      help="Word matching: exact lexical or word-embedding (we) [default: exact]."),
        click.option("--embeddings", type=click.Path(exists=True, dir_okay=False), default=None,
                      help="Embedding file (required for --match we)."),
        click.option("--embeddings-format", type=click.Choice(["binary", "text"]), default=None,
                      help="Embedding file layout [default: binary]."),
        click.option("--oov", type=click.Choice(["zero", "exact-fallback"]), default=None,
                      help="Similarity for out-of-vocabulary units [default: zero]."),
        click.option("--multiref", type=click.Choice(["average", "jackknife"]), default=None,
                      help="Multi-reference aggregation [default: average]."),
        click.option("--report-component", type=click.Choice(["recall", "precision", "f1"]),
                      default=None, help="Score component used by the harness [default: recall]."),
        click.option("--lowercase/--no-lowercase", default=None,
                      help="Lowercase tokens [default: on]."),
        click.option("--stem/--no-stem", default=None, help="Apply Porter stemming [default: off]."),
        click.option("--stopwords", type=click.Path(exists=True, dir_okay=False), default=None,
                      help="Stopword list to remove (one word per line)."),
        click.option("--normalize/--no-normalize", default=None,
                      help="Unit-normalize embedding vectors at load [default: on; "
                           "--no-normalize is experimental]."),
        click.option("--config", "config_file", type=click.Path(exists=True, dir_okay=False),
                      default=None, help="JSON config file; explicit flags override it."),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


@click.group()
@click.version_option(version=__version__, prog_name="rougewe")
def main():
    """Summarization evaluation: ROUGE / ROUGE-WE scoring and meta-evaluation."""
    logging.basicConfig(level=logging.WARNING)


@main.command()
@click.argument("candidate", type=click.Path(exists=True, dir_okay=False))
@click.argument("references", type=click.Path(exists=True, dir_okay=False), nargs=-1, required=True)
@_common_options
def score(candidate, references, config_file, **cli):
    """Score CANDIDATE against one or more REFERENCES files.

    Prints one line per metric: '<metric> R=<recall> P=<precision> F=<f1>'.
    """
    config = _build_run_config("score", _load_config_file(config_file), **cli)
    texts = [(candidate, _read_utf8(candidate, "candidate file"))]
    texts += [(r, _read_utf8(r, "reference file")) for r in references]
    tok_config = config.tokenize_config()
    cand, *refs = [tokenize(text, tok_config, source_id=path) for path, text in texts]
    table = None
    if config.uses_embeddings:
        table = config.load_table({word for seq in (cand, *refs) for word in seq})
    for metric in config.metrics:
        result = rouge_score(cand, refs, metric.variant, metric.match_function(table),
                             multiref=metric.multiref)
        click.echo(f"{metric.name} R={result.recall:.6f} P={result.precision:.6f} "
                   f"F={result.f1:.6f}")


@main.command("meta-eval")
@click.option("--corpus", type=click.Path(exists=True, file_okay=False), required=True,
              help="Corpus root: <topic>/models/*.txt and <topic>/systems/*.txt.")
@click.option("--judgments", type=click.Path(exists=True, dir_okay=False), required=True,
              help="CSV of human judgments (system_id,pyramid,responsiveness,readability).")
@click.option("--out", type=click.Path(file_okay=False), default=None,
              help="Output directory for report.csv / report.json [default: .].")
@_common_options
def meta_eval(corpus, judgments, out, config_file, **cli):
    """Score a corpus with every configured metric and correlate with judgments.

    The corpus and the judgments are read before the vector file, and only
    the vectors of the corpus's words are loaded.
    """
    config = _build_run_config("meta-eval", _load_config_file(config_file),
                               out=out, corpus=corpus, judgments=judgments, **cli)
    try:
        topics = load_corpus(corpus)
        human = load_judgments(judgments)
        if not topics:
            raise click.ClickException(f"corpus {corpus} contains no topics")
        tok_config = config.tokenize_config()
        table = None
        if config.uses_embeddings:
            table = config.load_table(corpus_vocabulary(topics, tok_config))
        scores = score_corpus(topics, config.metrics, table=table, tokenize_config=tok_config)
        report = meta_evaluate(scores, human)
    except (CorpusLoadError, JudgmentsFormatError, MetaEvalError, UndefinedCorrelationError) as exc:
        raise click.ClickException(str(exc)) from exc
    csv_path, json_path = write_reports(report, config.out, config.to_dict())
    click.echo(format_table(report))
    click.echo(f"wrote {csv_path} and {json_path}")


@main.group()
def embeddings():
    """Embedding table utilities."""


@embeddings.command("inspect")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(["binary", "text"]), default="binary",
              help="File layout [default: binary].")
@click.option("--word", default=None, help="Also look up one word.")
@click.option("--normalize/--no-normalize", default=True,
              help="Unit-normalize vectors at load [default: on].")
def embeddings_inspect(path, fmt, word, normalize):
    """Print summary information about an embedding file."""
    loader = load_binary if fmt == "binary" else load_text
    try:
        table = loader(path, normalize=normalize)
    except (EmbeddingFormatError, OSError) as exc:
        raise click.ClickException(f"failed to load embeddings: {exc}") from exc
    click.echo(f"file: {path}")
    click.echo(f"format: {fmt}")
    click.echo(f"vocab: {table.size}  dim: {table.dim}")
    s = table.load_summary
    click.echo(f"duplicates: {s.duplicates}  case_collisions: {s.case_collisions}  "
               f"zero_dropped: {s.zero_dropped}")
    if word is not None:
        vec = table.lookup(word)
        if vec is None:
            click.echo(f"word: {word}  OOV")
        else:
            norm = float(np.linalg.norm(np.asarray(vec, dtype="float64")))
            values = " ".join(f"{v:.6f}" for v in vec)
            click.echo(f"word: {word}  norm: {norm:.6f}")
            click.echo(f"values: {values}")


if __name__ == "__main__":
    main()
