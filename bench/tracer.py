"""Layer tracing from outside the program, for the traced pass only.

``Tracer.install`` replaces public functions and methods at the names their
callers look up (``cli.load_artifacts``, ``pipeline.recall_titles``,
``BWTIndex.backward_extend``, ...) with wrappers that record a span or bump
a counter, then call the original.  Spans are (id, parent, query, name,
start, end) tuples kept in memory; every span and count made while a query
runs carries that query's number, and a span's parent is the span that was
open when it started.  ``dump`` writes everything out once, at the end.

Calls made millions of times per run (constraint steps, backward
extensions, n-gram training streams) are counted, not timed: a span per
call would cost more than the work it measures.
"""

from __future__ import annotations

import inspect
import itertools
import json
import time
from collections import Counter

from passrecall import cli, pipeline
from passrecall.decode import SubstringConstraint, TrieConstraint
from passrecall.fmindex import BWTIndex
from passrecall.scorer import NGramScorer

# (owner, attribute, span name); the owner is where the caller looks it up.
SPANS = [
    (cli, "load_jsonl_corpus", "corpus.ingest"),
    (BWTIndex, "build", "fmindex.index_build"),
    (cli, "save_corpus", "storage.write"),
    (cli, "save_trie", "storage.write"),
    (cli, "save_index", "storage.write"),
    (cli, "load_artifacts", "storage.load"),
    (cli, "load_index", "fmindex.load_index"),
    (cli, "corpus_scorer", "scorer.train"),
    (pipeline.RecallEngine, "recall", "query"),
    (pipeline, "recall_titles", "pipeline.stage1"),
    (pipeline, "recall_prefixes", "pipeline.stage2"),
    (pipeline, "localize", "pipeline.localize"),
    (NGramScorer, "log_probs", "scorer.call"),
]

COUNTS = [
    (TrieConstraint, "step", "decode.constraint_steps"),
    (SubstringConstraint, "step", "decode.constraint_steps"),
    (BWTIndex, "backward_extend", "fmindex.backward_extends"),
    (NGramScorer, "add_stream", "scorer.train_streams"),
]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()  # (query, name) -> calls or items
        self.stage2_docs: set[str] = set()
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self.query: int | None = None
        self._queries = itertools.count()

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            if name == "query":
                self.query = next(self._queries)
            elif name == "pipeline.stage2":
                self.stage2_docs.update(r.doc_id for r in args[1])
            elif name == "scorer.call":
                self.counts[(self.query, "scorer.candidates")] += len(args[2])
            self._stack.append(span_id)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                self._stack.pop()
                self.spans.append((span_id, parent, self.query, name, start, end))
                if name == "query":
                    self.query = None

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[(self.query, name)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for owner, attr, name in table:
                static = inspect.getattr_static(owner, attr)
                if isinstance(static, classmethod):
                    wrapped = classmethod(make(name, static.__func__))
                else:
                    wrapped = make(name, static)
                setattr(owner, attr, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": self.spans,
                    "counts": [[q, n, c] for (q, n), c in self.counts.items()],
                    "stage2_docs": sorted(self.stage2_docs),
                },
                fh,
            )
