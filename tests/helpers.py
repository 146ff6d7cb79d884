"""Shared fixture builders for the test suite.

The synthetic corpus gives every document its own disjoint word pool, so a
verbatim excerpt can only have come from one place and the trained n-gram
scorer has an unambiguous route back to the owning document.  Title words
never appear in bodies, keeping stage-1 candidates separate from body
continuations.
"""

import contextlib
import json
import os
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from passrecall.corpus import Corpus, ingest_corpus
from passrecall.decode import SubstringConstraint
from passrecall.fmindex import BWTIndex
from passrecall.pipeline import RecallConfig
from passrecall.scorer import PromptTemplate
from passrecall.trie import TitleTrie, build_trie


def tree_files(root) -> list[str]:
    """Every file under ``root``, as sorted paths relative to it."""
    return sorted(
        os.path.relpath(os.path.join(folder, name), root)
        for folder, _, names in os.walk(root)
        for name in names
    )


def plain_template() -> PromptTemplate:
    """A prompt that is just the query, so context equals the query tokens."""
    return PromptTemplate("{}")


def plain_config(**overrides) -> RecallConfig:
    base = dict(
        stage1_template=plain_template(),
        stage2_template=plain_template(),
    )
    base.update(overrides)
    return RecallConfig(**base)


def synthetic_records(
    num_docs: int = 50,
    body_len: int = 300,
    pool_size: int = 120,
    seed: int = 20240901,
) -> list[dict]:
    """Corpus records with per-document disjoint vocabularies."""
    rng = random.Random(seed)
    records = []
    for d in range(num_docs):
        pool = [f"w{d:02d}t{j:03d}" for j in range(pool_size)]
        length = body_len + rng.randrange(-20, 21)
        words = rng.choices(pool, k=length)
        title = f"topic{d:02d} study{d:02d}"
        # A few documents arrive as multiple fragments to exercise joining.
        if d % 7 == 0 and length > 40:
            cut = rng.randrange(20, length - 20)
            text = [" ".join(words[:cut]), " ".join(words[cut:])]
        else:
            text = [" ".join(words)]
        records.append({"id": f"doc-{d:02d}", "title": title, "text": text})
    return records


def synthetic_corpus(**kwargs) -> Corpus:
    return ingest_corpus(synthetic_records(**kwargs))


def build_indexes(corpus: Corpus) -> dict[str, BWTIndex]:
    return {
        doc.doc_id: BWTIndex.build(doc.body_tokens)
        for doc in corpus.documents
    }


def walk(constraint, tokens):
    """``constraint`` stepped through ``tokens``, or None once a step is
    refused: both constraints raise ValueError for a token they do not allow.
    """
    for token in tokens:
        try:
            constraint = constraint.step(token)
        except ValueError:
            return None
    return constraint


def walk_range(index: BWTIndex, pattern) -> tuple[int, int]:
    """The rows ``(lo, hi)`` a one-document substring walk through
    ``pattern`` ends on.

    ``hi - lo`` counts the pattern's occurrences, ``index.starts(lo, hi,
    len(pattern))`` locates them and ``index.range_successors(lo, hi)``
    lists what can follow; a pattern the document lacks gives ``(0, 0)``.
    """
    state = walk(SubstringConstraint([("doc", index)]), pattern)
    return (0, 0) if state is None else state.live[0][2:]


def live_doc_ids(constraint: SubstringConstraint) -> list[str]:
    """Documents, in constraint order, whose range is still nonempty."""
    return [doc_id for doc_id, *_ in constraint.live]


def build_artifacts(corpus: Corpus) -> tuple[TitleTrie, dict[str, BWTIndex]]:
    return build_trie(corpus), build_indexes(corpus)


def excerpt_queries(
    corpus: Corpus,
    count: int = 100,
    excerpt_len: int = 30,
    tail_margin: int = 60,
    seed: int = 77,
) -> list[tuple[str, str]]:
    """(query_text, source_doc_id) pairs, queries being verbatim excerpts."""
    rng = random.Random(seed)
    queries = []
    docs = corpus.documents
    for _ in range(count):
        doc = docs[rng.randrange(len(docs))]
        limit = len(doc.body_tokens) - (excerpt_len + tail_margin)
        start = rng.randrange(0, max(limit, 1))
        tokens = doc.body_tokens[start : start + excerpt_len]
        queries.append((corpus.codec.decode(tokens), doc.doc_id))
    return queries


def dense(answer, candidates) -> dict[int, float]:
    """A scorer's ``(scores, rest)`` answer as one log-prob per candidate."""
    scores, rest = answer
    return {c: scores.get(c, rest) for c in candidates}


class CountingScorer:
    """Delegates scoring while counting calls; the speedup-claim probe."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def log_probs(self, context, candidates):
        self.calls += 1
        return self.inner.log_probs(context, candidates)

    def reset(self) -> int:
        calls, self.calls = self.calls, 0
        return calls


def random_token_text(
    rng: random.Random, alphabet: int, length: int, first_id: int = 3
) -> list[int]:
    """Random token sequence over ids [first_id, first_id + alphabet)."""
    return [first_id + rng.randrange(alphabet) for _ in range(length)]


@contextlib.contextmanager
def serve_scorer(inner):
    """Run a local HTTP endpoint answering scoring requests from ``inner``."""

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers.get("Content-Length", 0))
            payload = json.loads(self.rfile.read(length))
            cands = set(payload["candidates"])
            log_probs = dense(inner.log_probs(payload["context"], cands), cands)
            body = json.dumps(
                {"logprobs": {str(t): lp for t, lp in log_probs.items()}}
            ).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/score"
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
