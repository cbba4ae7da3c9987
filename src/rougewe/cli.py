"""Command-line interface: summary scoring, meta-evaluation, embedding tools.

Options can also come from a JSON config file (--config), which becomes the
defaults of the command's options: a flag wins over the file, the file over
the option's default, and a file value meets the same check as the flag. The
fully resolved configuration is echoed into the JSON report for provenance.
"""

from __future__ import annotations

import ctypes
import json
import logging
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Collection

import click
import numpy as np

from . import __version__
from . import embeddings as _embeddings
from .correlation import UndefinedCorrelationError
from .embeddings import FORMATS, EmbeddingFormatError, EmbeddingTable
from .harness import (
    MATCH_KINDS,
    REPORT_COMPONENTS,
    Coding,
    MetaEvalError,
    MetricConfig,
    Topic,
    common_systems,
    encode_corpus,
    format_table,
    load_corpus,
    load_judgments,
    meta_evaluate,
    require_distinct,
    score_corpus,
    score_pairs,
    write_reports,
)
from .rouge import MULTIREF_POLICIES, OOV_POLICIES
from .textpipe import InputError, TokenizeConfig, load_stopwords, read_text

DEFAULT_METRICS = "rouge-1,rouge-2,rouge-su4"
# glibc's mallopt parameters M_MMAP_THRESHOLD and M_TRIM_THRESHOLD, and the
# values the CLI fixes them to: glibc's own ceiling for the dynamic mmap
# threshold on 64-bit, and twice that for trim, as its dynamic rule keeps them.
_MALLOPT_SETTINGS = ((-3, 32 << 20), (-1, 64 << 20))
_MALLOC_ENV = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


@dataclass
class RunConfig:
    """Fully resolved settings for one invocation."""

    command: str
    metrics: list[MetricConfig]
    embeddings: str | None
    embeddings_format: str
    stem: bool
    stopwords: str | None
    out: str | None = None
    corpus: str | None = None
    judgments: str | None = None

    def to_dict(self) -> dict:
        return {**asdict(self), "metrics": [m.to_dict() for m in self.metrics]}

    @property
    def uses_embeddings(self) -> bool:
        return any(m.match == "we" for m in self.metrics)

    def code(self, topics: list[Topic]) -> tuple[Coding, EmbeddingTable | None]:
        """``topics`` coded under the run's tokenization, after its stopword
        list is read, and under WE the vectors of their words, the only ones
        scoring looks up (``None`` for an exact run): the one path by which
        both ``score`` and ``meta-eval`` code and load."""
        stopwords = load_stopwords(self.stopwords) if self.stopwords else None
        coding = encode_corpus(topics, TokenizeConfig(stem=self.stem, stopwords=stopwords))
        if not self.uses_embeddings:
            return coding, None
        return coding, _load_vectors(self.embeddings, self.embeddings_format, vocabulary=coding[0])


def _load_vectors(path: str, fmt: str,
                  vocabulary: Collection[str] | None = None) -> EmbeddingTable:
    # The loader is looked up on its module at call time, so that a wrapper
    # installed there (a tracer's, a test's spy) sees the call.
    loader = getattr(_embeddings, f"load_{fmt}")
    try:
        return loader(path, vocabulary=vocabulary)
    except (EmbeddingFormatError, OSError) as exc:
        raise click.ClickException(f"failed to load embeddings: {exc}") from exc


def _hold_heap() -> bool:
    """Fix glibc's mmap and trim thresholds for the rest of the process;
    whether both were set.

    glibc's default thresholds are dynamic: the mmap threshold rises to the
    largest mmapped block freed so far, so whether a scoring work array
    (a count matrix, rank table or pair code array of 0.1 to 0.6 MB per
    topic and span) comes from the heap or from a fresh mmap, and whether a
    freed one is trimmed back to the system, follows which array was freed
    first. Fresh pages fault in one by one on every topic: the scoring of an
    aesop-exact benchmark run takes about 3,000 minor faults, against about
    290 with both thresholds fixed, and about 3,200 or 5,200 with only the
    trim or only the mmap threshold fixed.
    Nothing is done off glibc or when a ``MALLOC_*_THRESHOLD_`` variable
    sets either threshold, which then wins. Only the CLI calls this: a
    library caller's process keeps its allocator as it was.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return False
    if any(name in os.environ for name in _MALLOC_ENV):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 1 on success. An mmap threshold above its ceiling (a
    # 32-bit build's) fails, and then the trim threshold is left alone too.
    return all(mallopt(param, value) == 1 for param, value in _MALLOPT_SETTINGS)


def _check_out(out: str) -> None:
    """Fail, making nothing, unless ``out`` or its nearest existing ancestor is a directory."""
    path = Path(out)
    found = next(p for p in (path, *path.parents) if os.path.lexists(p))
    if not os.path.isdir(found):
        raise click.ClickException(f"cannot write reports to {out}: {found} is not a directory")


def _apply_config_file(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Make a --config file the defaults of the command's other options."""
    if path is None:
        return
    try:
        data = json.loads(read_text(path, "config file"))
    except json.JSONDecodeError as exc:
        raise click.ClickException(f"cannot read config file {path}: {exc}") from exc
    except InputError as exc:
        raise click.ClickException(str(exc)) from exc
    if not isinstance(data, dict):
        raise click.ClickException(f"config file {path} must hold a JSON object")
    # The keys are the options' names. Inputs are named on the command line
    # only; score accepts and ignores meta-eval's out.
    keys = {p.name for p in ctx.command.params if isinstance(p, click.Option) and p.expose_value}
    unknown = set(data) - (keys - {"corpus", "judgments"} | {"out"})
    if unknown:
        raise click.ClickException(f"unknown config keys: {', '.join(sorted(unknown))}")
    # Each value reaches its option as the text a flag would carry, so it meets
    # the flag's check (a JSON number is no file descriptor, nor a boolean no
    # path); only metrics may also be a list. null leaves the option's default.
    ctx.default_map = {key: value if key == "metrics" else str(value)
                       for key, value in data.items() if value is not None}


class _MetricList(click.ParamType):
    """Comma-separated ROUGE variants or, from a config file, a list of names
    and per-metric objects; converts to per-metric schema dicts."""

    name = "list"

    def convert(self, value, param, ctx) -> list[dict]:
        if isinstance(value, str):
            value = [name.strip() for name in value.split(",") if name.strip()]
        if not isinstance(value, list) or not all(isinstance(e, (str, dict)) for e in value):
            self.fail(f"{value!r} is not a list of metric names and objects", param, ctx)
        if not value:
            self.fail("no metrics configured", param, ctx)
        return [{"variant": e} if isinstance(e, str) else e for e in value]


def _build_run_config(command: str, metrics: list[dict], match: str, oov: str, multiref: str,
                      report_component: str, **settings) -> RunConfig:
    try:
        metrics = [MetricConfig.from_dict(entry, match=match, oov=oov, multiref=multiref,
                                          component=report_component) for entry in metrics]
        require_distinct("metric", [m.name for m in metrics])
    except (ValueError, MetaEvalError) as exc:
        raise click.ClickException(str(exc)) from exc
    config = RunConfig(command, metrics, **settings)
    if config.uses_embeddings and not config.embeddings:
        raise click.ClickException(
            "embedding-based metrics (--match we) require --embeddings <path>"
        )
    return config


def _common_options(fn):
    options = [
        click.option("--metrics", type=_MetricList(), default=DEFAULT_METRICS,
                     help="Comma-separated ROUGE variants."),
        click.option("--match", type=click.Choice(MATCH_KINDS), default="exact",
                     help="Word matching: exact lexical or word-embedding (we)."),
        click.option("--embeddings", type=click.Path(exists=True, dir_okay=False),
                     help="Embedding file (required for --match we)."),
        click.option("--embeddings-format", type=click.Choice(FORMATS), default="binary",
                     help="Embedding file layout."),
        click.option("--oov", type=click.Choice(OOV_POLICIES), default="zero",
                     help="Similarity for out-of-vocabulary units."),
        click.option("--multiref", type=click.Choice(MULTIREF_POLICIES), default="average",
                     help="Multi-reference aggregation."),
        click.option("--report-component", type=click.Choice(REPORT_COMPONENTS), default="recall",
                     help="Score component used by the harness."),
        click.option("--stem/--no-stem", default=False, help="Apply Porter stemming."),
        click.option("--stopwords", type=click.Path(exists=True, dir_okay=False),
                     help="Stopword list to remove (one word per line)."),
        click.option("--config", type=click.Path(exists=True, dir_okay=False), is_eager=True,
                     expose_value=False, callback=_apply_config_file,
                     help="JSON config file of option defaults; explicit flags override it."),
    ]
    for option in reversed(options):
        fn = option(fn)
    return fn


@click.group(context_settings={"show_default": True})
@click.version_option(version=__version__, prog_name="rougewe")
def main():
    """Summarization evaluation: ROUGE / ROUGE-WE scoring and meta-evaluation."""
    _hold_heap()
    logging.basicConfig(level=logging.WARNING)


@main.command()
@click.argument("candidate", type=click.Path(exists=True, dir_okay=False))
@click.argument("references", type=click.Path(exists=True, dir_okay=False), nargs=-1, required=True)
@_common_options
def score(candidate, references, **settings):
    """Score CANDIDATE against one or more REFERENCES files.

    Prints one line per metric: '<metric> R=<recall> P=<precision> F=<f1>'.
    A metric given twice exits 1 before any file is read. The candidate,
    the references and the stopword list are then read in that order,
    before the vector file, of which only the texts' words are loaded.
    The files are scored as meta-eval scores a corpus, as one topic named
    'references': the references are its model summaries and the candidate,
    named by its path, its only system. So a pair that fails to score exits
    1 as in meta-eval.
    """
    config = _build_run_config("score", **settings)
    try:
        system = (candidate, read_text(candidate, "candidate file"))
        topic = Topic("references", [(r, read_text(r, "reference file")) for r in references],
                      [system])
        pairs = score_pairs([topic], config.metrics, *config.code([topic]))
    except (InputError, MetaEvalError) as exc:
        raise click.ClickException(str(exc)) from exc
    for metric in config.metrics:
        result = pairs[metric.name][candidate][topic.topic_id]
        click.echo(f"{metric.name} R={result.recall:.6f} P={result.precision:.6f} "
                   f"F={result.f1:.6f}")


@main.command("meta-eval")
@click.option("--corpus", type=click.Path(exists=True, file_okay=False), required=True,
              help="Corpus root: <topic>/models/*.txt and <topic>/systems/*.txt.")
@click.option("--judgments", type=click.Path(exists=True, dir_okay=False), required=True,
              help="CSV of human judgments (system_id,pyramid,responsiveness,readability).")
@click.option("--out", type=click.Path(file_okay=False), default=".",
              help="Output directory for report.csv / report.json.")
@_common_options
def meta_eval(**settings):
    """Score a corpus with every configured metric and correlate with judgments.

    The metric names and --out are checked first, then the corpus and the
    judgments are read and their common systems decided, and only then the
    stopword list and the vectors of the corpus's words.
    """
    config = _build_run_config("meta-eval", **settings)
    _check_out(config.out)
    try:
        topics = load_corpus(config.corpus)
        human = load_judgments(config.judgments)
        systems = common_systems({sid for t in topics for sid, _ in t.system_summaries}, human)
        scores = score_corpus(topics, config.metrics, *config.code(topics))
        report = meta_evaluate(scores, human, systems)
    except (InputError, MetaEvalError, UndefinedCorrelationError) as exc:
        raise click.ClickException(str(exc)) from exc
    try:
        csv_path, json_path = write_reports(report, config.out, config.to_dict())
    except OSError as exc:
        raise click.ClickException(f"cannot write reports to {config.out}: {exc}") from exc
    click.echo(format_table(report))
    click.echo(f"wrote {csv_path} and {json_path}")


@main.group()
def embeddings():
    """Embedding table utilities."""


@embeddings.command("inspect")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="binary",
              help="File layout.")
@click.option("--word", default=None, help="Also look up one word (lowercased, as keys are).")
def embeddings_inspect(path, fmt, word):
    """Print summary information about an embedding file."""
    table = _load_vectors(path, fmt)
    click.echo(f"file: {path}")
    click.echo(f"format: {fmt}")
    click.echo(f"vocab: {table.size}  dim: {table.dim}")
    s = table.load_summary
    click.echo(f"duplicates: {s.duplicates}  case_collisions: {s.case_collisions}  "
               f"zero_dropped: {s.zero_dropped}")
    if word is not None:
        key = word.lower()  # the loaders key every word lowercased
        vec = table.lookup(key)
        if vec is None:
            click.echo(f"word: {key}  OOV")
        else:
            norm = float(np.linalg.norm(np.asarray(vec, dtype="float64")))
            values = " ".join(f"{v:.6f}" for v in vec)
            click.echo(f"word: {key}  norm: {norm:.6f}")
            click.echo(f"values: {values}")


if __name__ == "__main__":
    main()
