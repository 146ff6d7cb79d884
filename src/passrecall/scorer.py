"""The model boundary: prompt rendering and next-token log-probabilities.

Every decoder in this package talks to a scorer through one contract:
given a token context and a nonempty candidate set, return a log-probability
per candidate.  ``NGramScorer`` is the deterministic in-process stand-in;
``RemoteScorer`` forwards the same calls to an HTTP endpoint that fronts a
real model.  Both normalize within the candidate set only, since constrained
decoding never compares across different allowed sets.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Mapping, Protocol, Sequence

import requests

from .corpus import END_ID, Corpus, TokenCodec

STAGE_ONE = "stage-1"
STAGE_TWO = "stage-2"
_STAGES = (STAGE_ONE, STAGE_TWO, "eval")


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
    stage: str = "eval"

    def __post_init__(self):
        if self.template.count("{}") != 1:
            raise ValueError(
                f"template needs exactly one {{}} slot: {self.template!r}"
            )
        if self.stage not in _STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")

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
            stage: PromptTemplate(template=text, stage=stage)
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


class NGramScorer:
    """Count-based n-gram scorer, deterministic and immutable once trained.

    Counts are kept for every context length from 0 to order-1, so short
    contexts are first-class rather than a backoff special case.  Smoothing
    is add-one over the candidate set: p(c) = (count(c)+1) / (total+|set|),
    which sums to exactly 1 within the set.
    """

    def __init__(self, order: int = 3):
        if order < 1:
            raise ValueError("order must be at least 1")
        self.order = order
        self._counts: list[dict[tuple[int, ...], dict[int, int]]] = [
            {} for _ in range(order)
        ]

    def add_stream(self, tokens: Sequence[int]) -> None:
        toks = list(tokens)
        for pos, tok in enumerate(toks):
            for ctx_len in range(self.order):
                if ctx_len > pos:
                    break
                ctx = tuple(toks[pos - ctx_len : pos])
                table = self._counts[ctx_len].setdefault(ctx, {})
                table[tok] = table.get(tok, 0) + 1

    def log_probs(
        self, context: Sequence[int], candidates: Iterable[int]
    ) -> dict[int, float]:
        cands = sorted(set(candidates))
        if not cands:
            raise ValueError("candidates must be nonempty")
        ctx = tuple(context)
        use = min(self.order - 1, len(ctx))
        table = self._counts[use].get(ctx[len(ctx) - use :], {})
        counts = [table.get(c, 0) for c in cands]
        denom = sum(counts) + len(cands)
        return {
            c: math.log((n + 1) / denom) for c, n in zip(cands, counts)
        }


def corpus_scorer(corpus: Corpus) -> NGramScorer:
    """Train an order-3 ``NGramScorer`` on a corpus.

    Four stream families: each body (so in-document continuations score
    well), each title (so titles terminate cleanly), a bridge from every
    body bigram into the owning title, and each title echoed into itself.
    The body bridges are what let a verbatim excerpt pull up its own
    document's title during constrained decoding; the echo does the same
    for a query that is itself a title string.
    """
    scorer = NGramScorer()
    for doc in corpus.documents:
        scorer.add_stream(list(doc.body_tokens) + [END_ID])
        scorer.add_stream(list(doc.title_tokens) + [END_ID])
        body = doc.body_tokens
        title = list(doc.title_tokens)
        scorer.add_stream(title + title + [END_ID])
        for j in range(len(body) - 1):
            scorer.add_stream([body[j], body[j + 1], *title, END_ID])
    return scorer


class RemoteScorer:
    """Forwards scoring calls to an HTTP endpoint sharing the same vocabulary.

    Request: POST JSON {"context": [...], "candidates": [...], "vocab_hash":
    "..."}; response: {"logprobs": {"<token id>": float, ...}}.  Connection
    failures, timeouts, and 5xx answers are retried; a 4xx answer means the
    two sides disagree (usually on the vocabulary) and is raised immediately.
    """

    def __init__(
        self,
        endpoint: str,
        vocab_hash: str,
        timeout: float = 10.0,
        retries: int = 2,
        session: requests.Session | None = None,
    ):
        self.endpoint = endpoint
        self.vocab_hash = vocab_hash
        self.timeout = timeout
        self.retries = retries
        self._session = session or requests.Session()

    def log_probs(
        self, context: Sequence[int], candidates: Iterable[int]
    ) -> dict[int, float]:
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
