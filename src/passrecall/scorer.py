"""The model boundary: prompt rendering and next-token log-probabilities.

Every decoder in this package talks to a scorer through one contract:
given a token context and a nonempty candidate set, return a log-probability
per candidate.  ``NGramScorer`` is the deterministic in-process stand-in;
``RemoteScorer`` forwards the same calls to an HTTP endpoint that fronts a
real model.  ``NGramScorer`` normalizes within the candidate set only.  That
is a known defect: the beam ranks children of different parents together,
so values normalized over different allowed sets are compared, and a token
forced by a one-element set scores 0 whatever the context (ROADMAP item 1).
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from itertools import compress, islice, repeat
from operator import and_, lshift, ne, or_, rshift
from typing import TYPE_CHECKING, Iterable, Mapping, Protocol, Sequence

from .corpus import END_ID, Corpus, TokenCodec

if TYPE_CHECKING:
    import requests

STAGE_ONE = "stage-1"
STAGE_TWO = "stage-2"


class ScorerError(RuntimeError):
    """Base class for scoring failures."""


class ScorerTransportError(ScorerError):
    """The remote endpoint stayed unreachable through the retry budget."""


class ScorerProtocolError(ScorerError):
    """The remote endpoint answered, but not with a usable response."""


@dataclass(frozen=True)
class PromptTemplate:
    """A surface string with exactly one ``{}`` slot for the query."""

    template: str

    def __post_init__(self):
        if not isinstance(self.template, str) or self.template.count("{}") != 1:
            raise ValueError(
                f"template needs exactly one {{}} slot: {self.template!r}"
            )

    def render(self, query: str) -> str:
        return self.template.replace("{}", query)


def render_prompt(
    template: PromptTemplate, query: str, codec: TokenCodec
) -> list[int]:
    """Fill the slot with ``query`` and encode the result."""
    return codec.encode(template.render(query))


def default_templates() -> dict[str, dict[str, PromptTemplate]]:
    """Packaged per-task prompt texts, keyed task -> stage."""
    raw = json.loads(
        resources.files("passrecall").joinpath("templates.json").read_text("utf-8")
    )
    return {
        task: {
            stage: PromptTemplate(text)
            for stage, text in stages.items()
        }
        for task, stages in raw.items()
    }


class TokenScorer(Protocol):
    def log_probs(
        self, context: Sequence[int], candidates: Iterable[int]
    ) -> dict[int, float]:
        """One finite-or-``-inf`` log-probability per candidate, never NaN."""
        ...


_MASK = (1 << 32) - 1  # one token of a packed n-gram key


class NGramScorer:
    """Count-based n-gram scorer of order 1 to 3, deterministic once trained.

    Counts are kept for every context length from 0 to order-1, so short
    contexts are first-class rather than a backoff special case.  Smoothing
    is add-one over the candidate set: p(c) = (count(c)+1) / (total+|set|),
    which sums to exactly 1 within the set.

    Streams are counted into one ``Counter`` per context length, keyed by
    the packed n-gram: 32 bits per token, oldest token highest.  The first
    lookup packs each counter into sorted arrays and drops it; a scorer
    takes no streams after that.  Every context length has the same CSR
    table, ``(contexts, start, toks, counts)``: ``contexts`` holds the
    distinct packed contexts in sorted order (length 0 has the single key
    0), and the rows of ``contexts[i]`` are ``start[i]:start[i+1]`` of
    ``toks``/``counts``.  Two context tokens fill a u64 key, so the order
    stops at 3.
    """

    def __init__(self, order: int = 3):
        if not 1 <= order <= 3:
            raise ValueError("order must be 1, 2 or 3")
        self.order = order
        self._grams: list[Counter] = [Counter() for _ in range(order)]
        self._tables: list[tuple] = []

    def add_stream(self, tokens: Sequence[int]) -> None:
        if self._tables:
            raise ValueError("the scorer is packed; it takes no more streams")
        toks = list(tokens)
        if toks and not (0 <= min(toks) and max(toks) <= _MASK):
            raise ValueError("token ids must lie in [0, 2**32)")
        for n, grams in enumerate(self._grams, 1):
            grams.update(_packed(toks, n))

    def _pack(self, levels: int) -> None:
        """Pack the counters of the context lengths below ``levels``."""
        while len(self._tables) < levels:
            self._tables.append(_table(self._grams[len(self._tables)]))

    def log_probs(
        self, context: Sequence[int], candidates: Iterable[int]
    ) -> dict[int, float]:
        cands = sorted(set(candidates))
        if not cands:
            raise ValueError("candidates must be nonempty")
        if len(self._tables) < self.order:
            self._pack(self.order)
        if len(cands) == 1:
            # (n+1)/(n+1): a lone candidate gets log 1 whatever its count.
            # Over 90% of decoding's calls are these forced steps.
            return {cands[0]: 0.0}
        use = min(self.order - 1, len(context))
        contexts, start, toks, seen = self._tables[use]
        key = 0
        for tok in context[len(context) - use :]:
            if not 0 <= tok <= _MASK:
                key = -1  # packing it would alias another context
                break
            key = key << 32 | tok
        i = bisect_left(contexts, key)
        lo = hi = 0
        if i < len(contexts) and contexts[i] == key:
            lo, hi = start[i], start[i + 1]
        found = dict(zip(toks[lo:hi], seen[lo:hi]))
        counts = list(map(found.get, cands, repeat(0)))
        denom = sum(counts) + len(cands)
        # Wide sets repeat few counts (most are 0): one log per distinct count.
        logs = {n: math.log((n + 1) / denom) for n in set(counts)}
        return dict(zip(cands, map(logs.__getitem__, counts)))


def _packed(tokens: Sequence[int], n: int) -> Iterable[int]:
    """The packed key of every n-gram of ``tokens``, in stream order."""
    keys: Iterable[int] = tokens
    for k in range(1, n):
        keys = map(or_, map(lshift, keys, repeat(32)), tokens[k:])
    return keys


def _table(grams: Counter) -> tuple:
    """One context length's CSR table; see ``NGramScorer``.  Empties
    ``grams`` as soon as it is read, to keep the peak low."""
    keys = sorted(grams)
    wide = max(grams.values(), default=0) > _MASK
    counts = array("Q" if wide else "I", map(grams.__getitem__, keys))
    grams.clear()
    toks = array("I", map(and_, keys, repeat(_MASK)))
    rows = list(map(rshift, keys, repeat(32)))
    del keys
    # Row i opens a new context where its context differs from row i-1's.
    opens = [True, *map(ne, rows[1:], rows)]
    start = array("I", compress(range(len(rows)), opens))
    start.append(len(rows))
    contexts = array("Q", compress(rows, opens))
    return contexts, start, toks, counts


def corpus_scorer(corpus: Corpus) -> NGramScorer:
    """Train an order-3 ``NGramScorer`` on a corpus.

    Four stream families: each body (so in-document continuations score
    well), each title (so titles terminate cleanly), a bridge from every
    body bigram into the owning title, and each title echoed into itself.
    The body bridges are what let a verbatim excerpt pull up its own
    document's title during constrained decoding; the echo does the same
    for a query that is itself a title string.

    The counts equal streaming every stream through ``add_stream``, but are
    taken in bulk, one context length at a time.  A bridge
    ``[b_j, b_{j+1}, *title, END]`` has body tokens only in the n-grams that
    start at its first two positions; the rest are the title's own n-grams,
    the same for every ``j``, so they are counted once times the number of
    bridges.
    """
    scorer = NGramScorer()
    for n in range(1, scorer.order + 1):
        grams = scorer._grams[n - 1]
        for doc in corpus.documents:
            body = list(doc.body_tokens)
            tail = [*doc.title_tokens, END_ID]
            grams.update(_packed(body + [END_ID], n))
            grams.update(_packed(tail, n))
            grams.update(_packed(tail[:-1] + tail, n))
            bridges = len(body) - 1
            if bridges < 1:
                continue
            # n-grams starting at b_j hold min(n, 2) body tokens; those
            # starting at b_{j+1} hold one.  The rest of each comes from tail.
            for head, from_tail in (
                (islice(_packed(body, min(n, 2)), bridges), max(n - 2, 0)),
                (body[1:], n - 1),
            ):
                if from_tail > len(tail):
                    continue
                suffix = 0
                for tok in tail[:from_tail]:
                    suffix = suffix << 32 | tok
                grams.update(
                    map(or_, map(lshift, head, repeat(32 * from_tail)), repeat(suffix))
                )
            for key in _packed(tail, n):
                grams[key] += bridges
        scorer._pack(n)
    return scorer


class RemoteScorer:
    """Forwards scoring calls to an HTTP endpoint sharing the same vocabulary.

    Request: POST JSON {"context": [...], "candidates": [...], "vocab_hash":
    "..."}; response: {"logprobs": {"<token id>": float, ...}}.  Connection
    failures, timeouts, and 5xx answers are retried; a 4xx answer means the
    two sides disagree (usually on the vocabulary) and is raised immediately.
    Only this scorer uses ``requests``, so it imports it when made and the
    CLI starts without it.
    """

    def __init__(
        self,
        endpoint: str,
        vocab_hash: str,
        timeout: float = 10.0,
        retries: int = 2,
        session: requests.Session | None = None,
    ):
        import requests

        self.endpoint = endpoint
        self.vocab_hash = vocab_hash
        self.timeout = timeout
        self.retries = retries
        self._session = session or requests.Session()

    def log_probs(
        self, context: Sequence[int], candidates: Iterable[int]
    ) -> dict[int, float]:
        import requests

        cands = sorted(set(candidates))
        if not cands:
            raise ValueError("candidates must be nonempty")
        payload = {
            "context": list(context),
            "candidates": cands,
            "vocab_hash": self.vocab_hash,
        }
        last_error: Exception | None = None
        for _ in range(self.retries + 1):
            try:
                response = self._session.post(
                    self.endpoint, json=payload, timeout=self.timeout
                )
            except requests.RequestException as exc:
                last_error = exc
                continue
            if 400 <= response.status_code < 500:
                raise ScorerProtocolError(
                    f"endpoint rejected request ({response.status_code}): "
                    f"{response.text[:200]}"
                )
            if response.status_code != 200:
                last_error = ScorerTransportError(
                    f"endpoint returned {response.status_code}"
                )
                continue
            return self._parse(response, cands)
        raise ScorerTransportError(
            f"scoring endpoint failed after {self.retries + 1} attempts: "
            f"{last_error}"
        )

    @staticmethod
    def _parse(response: requests.Response, cands: list[int]) -> dict[int, float]:
        try:
            body = response.json()
        except ValueError as exc:
            raise ScorerProtocolError(f"non-JSON response: {exc}") from exc
        if not isinstance(body, Mapping):
            raise ScorerProtocolError("response is not a JSON object")
        logprobs = body.get("logprobs")
        if not isinstance(logprobs, Mapping):
            raise ScorerProtocolError("response missing 'logprobs' object")
        out = {}
        for cand in cands:
            raw = logprobs.get(str(cand))
            if raw is None:
                raise ScorerProtocolError(f"no log-prob for candidate {cand}")
            try:
                value = float(raw)
            except (TypeError, ValueError) as exc:
                raise ScorerProtocolError(
                    f"log-prob for candidate {cand} is not a number: {raw!r}"
                ) from exc
            if math.isnan(value) or value > 0.0:
                raise ScorerProtocolError(
                    f"log-prob for candidate {cand} out of range: {value}"
                )
            out[cand] = value
        return out
