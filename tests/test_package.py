"""The names the package itself exports: those of the README's library
example and those the benchmark's sample check calls; the names the
benchmark's tracer and sample check reach into beyond them; and no
top-level import in the package that nothing reads."""

import ast
import dataclasses
import inspect
from pathlib import Path

import rougewe
from rougewe import embeddings, rouge

EXPORTED = ["MatchFunction", "ROUGE_SU4", "RougeVariant", "__version__", "load_binary",
            "rouge_score", "tokenize"]


def test_all_is_the_exported_set():
    assert sorted(rougewe.__all__) == sorted(EXPORTED)


def test_every_exported_name_imports_from_the_package():
    namespace = {}
    exec("from rougewe import *", namespace)  # fails on a listed name the package lacks
    assert set(EXPORTED) <= namespace.keys()


def test_names_the_benchmark_reaches_into():
    """``perfbench/`` cannot run without these names: its tracer rebinds
    ``EmbeddingTable.compose``, and its sample check passes ``tokenize`` a
    ``source_id`` and reads four ``RougeScore`` fields. If one of them goes,
    what breaks is the tier-1 self-test's traced quick run."""
    missing = []
    if not callable(getattr(embeddings.EmbeddingTable, "compose", None)):
        missing.append("EmbeddingTable.compose")
    if "source_id" not in inspect.signature(rougewe.tokenize).parameters:
        missing.append("tokenize's source_id parameter")
    fields = {field.name for field in dataclasses.fields(rouge.RougeScore)}
    missing += [f"rouge_score's result field {name}" for name in
                sorted({"recall", "soft_match_count", "ref_total", "cand_total"} - fields)]
    assert not missing, (f"perfbench/ uses {', '.join(missing)}; these go only with "
                         "ROADMAP item 1's tracer change")


def unused_imports(source: str) -> list[str]:
    """The names a module's top-level imports bind that the module never
    reads and does not list in ``__all__``."""
    tree = ast.parse(source)
    imported, exported = {}, set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in read | exported]


def test_unused_imports_finds_a_planted_import():
    source = "from itertools import chain, count\nimport os.path\n__all__ = ['count']\n"
    assert unused_imports(source) == ["line 1: chain", "line 2: os"]
    assert unused_imports(source + "os.path.join\nchain\n") == []


def test_package_has_no_unused_imports():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(Path(rougewe.__file__).parent.glob("*.py"))}
    assert not {name: names for name, names in found.items() if names}
