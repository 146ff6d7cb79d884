"""Passage recall over a closed corpus without pre-splitting the documents.

The engine decodes its way to a passage: a title is generated under a
prefix-tree constraint to pick documents, a short prefix is generated under
an FM-index constraint to pin a position inside them, and the surrounding
passage is cut straight from the full document text at that position.

Everything else stays importable from its submodule.
"""

from .corpus import ingest_corpus
from .pipeline import (
    DeadEndError,
    InternalInconsistencyError,
    RecallConfig,
    RecallEngine,
    Reference,
)
from .scorer import corpus_scorer
from .trie import build_trie

__version__ = "0.1.0"

__all__ = [
    "DeadEndError",
    "InternalInconsistencyError",
    "RecallConfig",
    "RecallEngine",
    "Reference",
    "build_trie",
    "corpus_scorer",
    "ingest_corpus",
]
