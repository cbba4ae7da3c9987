"""The names the package itself exports: those of the README's library
example and those the benchmark's sample check calls; and the names the
benchmark's tracer and sample check reach into beyond them."""

import dataclasses
import inspect

import rougewe
from rougewe import embeddings, rouge, textpipe

EXPORTED = ["MatchFunction", "ROUGE_SU4", "RougeVariant", "__version__", "load_binary",
            "rouge_score", "tokenize"]


def test_all_is_the_exported_set():
    assert sorted(rougewe.__all__) == sorted(EXPORTED)


def test_every_exported_name_imports_from_the_package():
    namespace = {}
    exec("from rougewe import *", namespace)  # fails on a listed name the package lacks
    assert set(EXPORTED) <= namespace.keys()


def test_names_the_benchmark_reaches_into():
    """``perfbench/`` wraps or calls these names. Its self-test would not
    notice a removed extractor: the per-layer figures would just read 0."""
    reached = {
        "EmbeddingTable.compose": getattr(embeddings.EmbeddingTable, "compose", None),
        "textpipe.extract_ngrams": getattr(textpipe, "extract_ngrams", None),
        "textpipe.extract_skip_bigrams": getattr(textpipe, "extract_skip_bigrams", None),
        "rouge.extract_units": getattr(rouge, "extract_units", None),
    }
    missing = [name for name, obj in reached.items() if not callable(obj)]
    if "source_id" not in inspect.signature(rougewe.tokenize).parameters:
        missing.append("tokenize's source_id parameter")
    fields = {field.name for field in dataclasses.fields(rouge.RougeScore)}
    missing += [f"rouge_score's result field {name}" for name in
                sorted({"recall", "soft_match_count", "ref_total", "cand_total"} - fields)]
    assert not missing, (f"perfbench/ uses {', '.join(missing)}; these go only with "
                         "ROADMAP item 1's tracer change")
