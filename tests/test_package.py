"""The names the package itself exports: those of the README's library
example and those the benchmark's sample check calls."""

import rougewe

EXPORTED = ["MatchFunction", "ROUGE_SU4", "RougeVariant", "__version__", "load_binary",
            "rouge_score", "tokenize"]


def test_all_is_the_exported_set():
    assert sorted(rougewe.__all__) == sorted(EXPORTED)


def test_every_exported_name_imports_from_the_package():
    namespace = {}
    exec("from rougewe import *", namespace)  # fails on a listed name the package lacks
    assert set(EXPORTED) <= namespace.keys()
