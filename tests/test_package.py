"""The names the package itself exports: those of the README's library
example and those the benchmark's sample check calls; the names the
benchmark's tracer and sample check reach into beyond them; no top-level
import, private top-level name, or attribute of a private class, in the
package that nothing reads; one module that scores, which both commands go
through; one reader that decodes text inputs; and a README flags table that
lists the scoring commands' options as they are."""

import ast
import dataclasses
import importlib.util
import inspect
import re
from pathlib import Path

import click
from hypothesis import given, settings
from hypothesis import strategies as st

import rougewe
from rougewe import cli, embeddings, harness, rouge

from conftest import DEEP_FACTOR, deepen

EXPORTED = ["MatchFunction", "ROUGE_SU4", "RougeVariant", "__version__", "load_binary",
            "rouge_score", "tokenize"]


def test_all_is_the_exported_set():
    assert sorted(rougewe.__all__) == sorted(EXPORTED)


def test_every_exported_name_imports_from_the_package():
    namespace = {}
    exec("from rougewe import *", namespace)  # fails on a listed name the package lacks
    assert set(EXPORTED) <= namespace.keys()


def test_names_the_benchmark_reaches_into():
    """``perfbench/`` cannot run without these names: its measured process
    times the scoring window by rebinding ``score_corpus`` in every module
    that holds ``harness.score_corpus``, of which the CLI calls its own
    name; its tracer rebinds ``EmbeddingTable.compose``; and its sample
    check passes ``tokenize`` a ``source_id``, hands ``rouge_score`` the
    tuples of words ``tokenize`` returns, and reads four ``RougeScore``
    fields. If one of them goes, what breaks is the tier-1 self-test's
    traced quick run, or, for ``score_corpus``, the timing of every round.
    ``compose`` is ``compose_many`` of one unit and ``tokenize`` ignores
    ``source_id``; only their names wait for ROADMAP item 1."""
    missing = []
    if getattr(cli, "score_corpus", None) is not harness.score_corpus:
        missing.append("cli's name score_corpus for harness.score_corpus")
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
    read = read_names(tree) | exported
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def read_names(tree: ast.Module) -> set[str]:
    """The names a module reads anywhere in it."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def read_attributes(tree: ast.Module) -> set[str]:
    """The attribute names a module reads anywhere in it."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_private_names(source: str) -> list[str]:
    """The private names (``_x``, not ``__x__``) that a module's top-level
    functions, classes and assignments bind and that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update((name.id, node.lineno) for target in targets
                         for name in ast.walk(target) if isinstance(name, ast.Name))
    read = read_names(tree)
    return [f"line {line}: {name}" for name, line in bound.items()
            if name.startswith("_") and not name.endswith("__") and name not in read]


def unread_private_attributes(source: str) -> list[str]:
    """The attributes that a module's private classes (``_X``) assign on
    ``self`` or list in ``__slots__`` and that the module never reads."""
    tree = ast.parse(source)
    read = read_attributes(tree)
    found = []
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and cls.name.startswith("_")):
            continue
        bound = {}
        for node in ast.walk(cls):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"):
                bound.setdefault(node.attr, node.lineno)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__slots__"
                    for target in node.targets):
                for name in ast.literal_eval(node.value):
                    bound.setdefault(name, node.lineno)
        found += [f"line {line}: {cls.name}.{name}" for name, line in bound.items()
                  if name not in read]
    return found


def test_unused_imports_finds_a_planted_import():
    source = "from itertools import chain, count\nimport os.path\n__all__ = ['count']\n"
    assert unused_imports(source) == ["line 1: chain", "line 2: os"]
    assert unused_imports(source + "os.path.join\nchain\n") == []


def test_package_has_no_unused_imports():
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(Path(rougewe.__file__).parent.glob("*.py"))}
    assert not {name: names for name, names in found.items() if names}


def test_unread_private_names_finds_a_planted_helper():
    source = ("_SEP = ','\n__all__ = ['join']\n\n\ndef _strip(text):\n    return text\n\n\n"
              "class _Box:\n    pass\n\n\ndef join(items):\n    return _SEP.join(items)\n")
    assert unread_private_names(source) == ["line 5: _strip", "line 9: _Box"]
    assert unread_private_names(source + "_strip(_Box())\n") == []


def test_package_reads_every_private_name():
    found = {path.name: unread_private_names(path.read_text(encoding="utf-8"))
             for path in sorted(Path(rougewe.__file__).parent.glob("*.py"))}
    assert not {name: names for name, names in found.items() if names}


def test_unread_private_attributes_finds_a_planted_slot():
    source = ("class _Box:\n    __slots__ = ('size', 'first')\n\n    def __init__(self, size):\n"
              "        self.size = size\n        self.first = 1\n        self.spare = None\n\n\n"
              "class Open:\n    def __init__(self):\n        self.free = 0\n\n\n"
              "def width(box):\n    return box.size\n")
    assert unread_private_attributes(source) == ["line 2: _Box.first", "line 7: _Box.spare"]
    assert unread_private_attributes(source + "_Box(1).first, _Box(1).spare\n") == []


def test_package_reads_every_private_attribute():
    found = {path.name: unread_private_attributes(path.read_text(encoding="utf-8"))
             for path in sorted(Path(rougewe.__file__).parent.glob("*.py"))}
    assert not {name: names for name, names in found.items() if names}


def readme_flags_table() -> dict[str, str]:
    """Each row of README's Flags table: its flag, as the option spells it,
    and its default cell, without backticks."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n### Flags\n", 1)[1].split("\n#", 1)[0]
    return {flag.split()[0]: default.strip().strip("`")
            for flag, default in re.findall(r"^\| `([^`]+)` \|([^|]*)\|", section, re.M)}


def test_readme_flags_table_lists_the_common_options():
    """README's Flags table lists exactly the options that ``score`` and
    ``meta-eval`` share, those of ``cli._common_options``, each with its
    default: off or on for a boolean flag, blank where there is none."""
    def default(option: click.Option) -> str:
        value = option.to_info_dict()["default"]
        if option.is_flag:
            return "on" if value else "off"
        return "" if value is None else str(value)

    options = click.command()(cli._common_options(lambda **settings: None)).params
    assert readme_flags_table() == {"/".join(option.opts + option.secondary_opts): default(option)
                                    for option in options}


def readers(sources: dict[str, str], names: list[str]) -> dict[str, list[str]]:
    """For each of ``names``, the modules among ``sources`` (file name to
    source) that read it, as a name or as an attribute, in sorted order."""
    read = {}
    for module, source in sources.items():
        tree = ast.parse(source)
        read[module] = read_names(tree) | read_attributes(tree)
    return {name: sorted(module for module, found in read.items() if name in found)
            for name in names}


def test_readers_finds_a_planted_second_driver():
    sources = {
        "harness.py": ("from .rouge import score_batch\n\n\n"
                       "def score(metric, table):\n"
                       "    return score_batch(metric.match_function(table))\n"),
        "cli.py": "from .rouge import score_batch\nfrom .textpipe import encode\nscore_batch\n",
        "rouge.py": "def score_batch():\n    pass\n",
    }
    assert readers(sources, ["score_batch", "match_function", "encode"]) == {
        "score_batch": ["cli.py", "harness.py"], "match_function": ["harness.py"], "encode": []}


def test_one_scoring_driver():
    """Only the harness scores and builds matchers: ``score`` and
    ``meta-eval`` both go through it, and the CLI codes nothing itself.
    ``rouge.py`` reads ``score_fields`` too, as ``rouge_score``, the
    per-pair API, calls it with its one metric; ``score_batch``, a second
    per-pair entry that wrapped it, is read by no module."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in Path(rougewe.__file__).parent.glob("*.py")}
    assert readers(sources, ["score_fields", "score_batch", "match_function"]) == {
        "score_fields": ["harness.py", "rouge.py"], "score_batch": [],
        "match_function": ["harness.py"]}
    assert readers({"cli.py": sources["cli.py"]}, ["encode", "score_fields"]) == {
        "encode": [], "score_fields": []}


def test_one_text_reader():
    """Every text input is decoded by ``textpipe.read_text``, which turns a
    bad byte into the one ``InputError`` message. Only the vector loaders
    decode on their own, so that an error keeps its entry and line."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in Path(rougewe.__file__).parent.glob("*.py")}
    assert readers(sources, ["UnicodeDecodeError"]) == {
        "UnicodeDecodeError": ["embeddings.py", "textpipe.py"]}


def test_src_lines_counts_code_without_docstrings_or_comments(tmp_path, capsys):
    """``tools/src_lines.py`` gives the line counts each change reports."""
    spec = importlib.util.spec_from_file_location(
        "src_lines", Path(__file__).parents[1] / "tools" / "src_lines.py")
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    source = ('"""A module\n\nof two lines."""\n\n# A comment.\nimport os\n\n\n'
              'def join(*parts):\n    """Join ``parts``."""\n'
              '    return os.path.join(  # a comment after code\n        *parts,\n    )\n')
    assert src_lines.count_lines(source) == (13, 5)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(source, encoding="utf-8")
    (tmp_path / "pkg" / "b.py").write_text("x = '''\n\n'''\n", encoding="utf-8")
    assert src_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        " lines   code  module", "    13      5  pkg/a.py", "     3      3  pkg/b.py",
        "    16      8  total"]


def test_deep_profile_multiplies_each_example_count_once():
    """``HYPOTHESIS_PROFILE=deep`` runs each hypothesis test for
    ``DEEP_FACTOR`` times its own example count (``conftest.deepen``), once
    per test function however many collected items share it, and leaves
    other tests alone."""
    drawn = []

    @settings(max_examples=7, database=None)
    @given(st.integers())
    def counted(value):
        drawn.append(value)

    def plain():
        pass

    deepen([counted, counted, plain, None], DEEP_FACTOR)
    counted()
    assert len(drawn) == 7 * DEEP_FACTOR == 70
    assert not hasattr(plain, "_hypothesis_internal_use_settings")
