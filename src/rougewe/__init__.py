"""ROUGE and embedding-augmented ROUGE-WE summarization metrics.

The package exports what scoring a summary takes; everything else is
imported from its module (``rougewe.harness``, ``rougewe.embeddings``, ...).
"""

__version__ = "0.1.0"

from .embeddings import load_binary
from .rouge import ROUGE_SU4, MatchFunction, RougeVariant, rouge_score
from .textpipe import tokenize

__all__ = [
    "MatchFunction",
    "ROUGE_SU4",
    "RougeVariant",
    "__version__",
    "load_binary",
    "rouge_score",
    "tokenize",
]
