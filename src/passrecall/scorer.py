"""The model boundary: prompt rendering and next-token log-probabilities.

Every decoder in this package talks to a scorer through one contract:
given a token context and a nonempty candidate set, return ``(scores,
rest)``: ``scores`` maps some candidates to their log-probabilities, and
every candidate it leaves out has log-probability ``rest``.
``NGramScorer`` is the deterministic in-process stand-in.  Most candidates
of a wide set were never seen after the context and share one add-one
value, so it lists only the seen ones, and a decoder pays for those rather
than for the whole set.  ``RemoteScorer`` forwards the same calls to an
HTTP endpoint that fronts a real model; it lists every candidate, with
``rest = -inf``.  ``NGramScorer`` normalizes within the candidate set only.
That is a known defect: the beam ranks children of different parents
together, so values normalized over different allowed sets are compared,
and a token forced by a one-element set scores 0 whatever the context
(ROADMAP item 1).
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from itertools import accumulate, compress, islice, repeat
from operator import and_, lshift, ne, or_, rshift, sub
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
        self, context: Sequence[int], candidates: set[int]
    ) -> tuple[dict[int, float], float]:
        """``(scores, rest)``: ``scores`` maps some candidates to their
        log-probs, and every candidate it does not list has log-prob
        ``rest``.  Each value is finite or ``-inf``, never NaN."""
        ...


_MASK = (1 << 32) - 1  # one token of a packed n-gram key
# Two context tokens fill a u64 key, so the order stops at 3.
NGRAM_ORDER = 3


@dataclass(frozen=True, eq=False)
class NGramScorer:
    """Count-based trigram scorer, fixed once made.

    Counts are kept for every context length from 0 to 2, so short
    contexts are first-class rather than a backoff special case.  Smoothing
    is add-one over the candidate set: p(c) = (count(c)+1) / (total+|set|),
    which sums to exactly 1 within the set.  ``log_probs`` lists only the
    candidates seen after the context; the rest have count 0 and share
    ``log(1 / (total+|set|))``.

    ``tables[m]``, made by ``from_streams`` or ``corpus_scorer``, is context
    length m's CSR table ``(contexts, start, toks, counts)``: ``contexts``
    holds the distinct contexts in sorted order, packed 32 bits per token,
    oldest highest (length 0 has the single key 0), and the rows of
    ``contexts[i]`` are ``start[i]:start[i+1]`` of ``toks``/``counts``.
    """

    tables: tuple = field(repr=False)

    @classmethod
    def from_streams(cls, streams: Iterable[Sequence[int]]) -> NGramScorer:
        """The scorer of ``streams``' counts; no streams is uniform."""
        counts = _Counts()
        for stream in streams:
            cls.add_stream(counts, stream)
        return cls(counts.tables())

    # A classmethod, not a staticmethod, so the benchmark's tracer can wrap it.
    @classmethod
    def add_stream(cls, counts: _Counts, tokens: Sequence[int]) -> None:
        if tokens and not (0 <= min(tokens) and max(tokens) <= _MASK):
            raise ValueError("token ids must lie in [0, 2**32)")
        counts.keys += _packed(tokens, NGRAM_ORDER)
        for m, ends in enumerate(counts.ends, 1):
            ends.update(_packed(tokens[-m:], m))

    def log_probs(
        self, context: Sequence[int], candidates: set[int]
    ) -> tuple[dict[int, float], float]:
        """``scores`` lists the candidates seen after the context, and
        ``rest`` is the value every other candidate shares."""
        if not candidates:
            raise ValueError("candidates must be nonempty")
        if len(candidates) == 1:
            # (n+1)/(n+1): a lone candidate gets log 1 whatever its count.
            # Over 90% of decoding's calls are these forced steps, and
            # listing it keeps them off the decoder's path for unlisted ones.
            return dict.fromkeys(candidates, 0.0), 0.0
        use = min(NGRAM_ORDER - 1, len(context))
        contexts, start, toks, seen = self.tables[use]
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
        hits = found.keys() & candidates
        denom = sum(map(found.__getitem__, hits)) + len(candidates)
        scores = {tok: math.log((found[tok] + 1) / denom) for tok in hits}
        return scores, math.log(1 / denom)


class _Counts:
    """One scorer's counts, until ``tables`` reads them (once).

    Only trigrams are counted, as KenLM's estimator counts only the top
    order (Heafield et al., 2013): ``keys`` gets the packed key of each
    trigram of a stream, ``ends[m-1]`` its final m-gram for m = 1 and 2,
    and ``extra`` further counts of listed keys.  Every m-gram of a stream
    but its last starts an (m+1)-gram, so a bigram's or unigram's count is
    its row sum in the order above plus the number of streams it ends.
    """

    def __init__(self):
        self.keys: list[int] = []
        self.extra: Counter = Counter()
        self.ends: list[Counter] = [Counter() for _ in range(NGRAM_ORDER - 1)]

    def tables(self) -> tuple:
        """Every context length's table, shortest context first; empties ``keys``."""
        keys = self.keys
        keys.sort()
        # Key i opens a run where it differs from key i-1.
        opens = [True, *map(ne, islice(keys, 1, None), keys)]
        grams = list(compress(keys, opens))
        starts = list(compress(range(len(keys)), opens))
        starts.append(len(keys))
        keys.clear()
        del opens
        counts = list(map(sub, islice(starts, 1, None), starts))
        del starts
        for key, extra in self.extra.items():
            counts[bisect_left(grams, key)] += extra
        tables = [_table(grams, counts)]
        for ends in reversed(self.ends):
            # An m-gram's count: its row sum in the order above, plus the
            # streams it ends.  Row sums come out keyed by ``contexts``.
            contexts, start, _, counts = tables[-1]
            at = list(map(list(accumulate(counts, initial=0)).__getitem__, start))
            grams = list(contexts)
            counts = list(map(sub, islice(at, 1, None), at))
            tables.append(_table(*_merged(grams, counts, ends)))
        return tuple(tables[::-1])


def _packed(tokens: Sequence[int], n: int) -> Iterable[int]:
    """The packed key of every n-gram of ``tokens``, in stream order."""
    keys: Iterable[int] = tokens
    for k in range(1, n):
        keys = map(or_, map(lshift, keys, repeat(32)), tokens[k:])
    return keys


def _merged(
    keys: list[int], counts: list[int], ends: Counter
) -> tuple[list[int], list[int]]:
    """Sorted distinct ``keys`` and their ``counts``, with ``ends``' counts
    added and its new keys inserted in order."""
    out_keys: list[int] = []
    out_counts: list[int] = []
    lo = 0
    for key, n in sorted(ends.items()):
        i = bisect_left(keys, key, lo)
        out_keys += keys[lo:i]
        out_counts += counts[lo:i]
        if i < len(keys) and keys[i] == key:
            n += counts[i]
            i += 1
        out_keys.append(key)
        out_counts.append(n)
        lo = i
    out_keys += keys[lo:]
    out_counts += counts[lo:]
    return out_keys, out_counts


def _table(keys: list[int], counts: list[int]) -> tuple:
    """One context length's CSR table (see ``NGramScorer``) from its sorted
    distinct n-gram keys and their counts.  Empties both lists as soon as
    they are read, to keep the peak low."""
    # A derived row sum can outgrow a u32 even where no counted n-gram does.
    wide = max(counts, default=0) > _MASK
    counts_arr = array("Q" if wide else "I", counts)
    counts.clear()
    toks = array("I", map(and_, keys, repeat(_MASK)))
    rows = list(map(rshift, keys, repeat(32)))
    keys.clear()
    # Row i opens a new context where its context differs from row i-1's.
    opens = [True, *map(ne, rows[1:], rows)]
    start = array("I", compress(range(len(rows)), opens))
    start.append(len(rows))
    contexts = array("Q", compress(rows, opens))
    return contexts, start, toks, counts_arr


def corpus_scorer(corpus: Corpus) -> NGramScorer:
    """The ``NGramScorer`` of a corpus.

    Four stream families: each body (so in-document continuations score
    well), each title (so titles terminate cleanly), a bridge from every
    body bigram into the owning title, and each title echoed into itself.
    The body bridges are what let a verbatim excerpt pull up its own
    document's title during constrained decoding; the echo does the same
    for a query that is itself a title string.

    The tables equal ``NGramScorer.from_streams`` over every stream, but the
    bridges skip ``add_stream``.  A bridge ``[b_j, b_{j+1}, *title, END]``
    has body tokens only in the trigrams that start at its first two
    positions; the rest are the title's own trigrams, the same for every
    ``j``, so each is listed once and given the other bridges' counts in
    ``extra``.  Every bridge ends in the same tokens, as no title is empty.
    """
    counts = _Counts()
    keys = counts.keys
    for doc in corpus.documents:
        body = list(doc.body_tokens)
        tail = [*doc.title_tokens, END_ID]
        for stream in (body + [END_ID], tail, tail[:-1] + tail):
            NGramScorer.add_stream(counts, stream)
        bridges = len(body) - 1
        if bridges < 1:
            continue
        # (b_j, b_{j+1}, t_0) and (b_{j+1}, t_0, t_1), for every j.
        keys += map(or_, map(lshift, _packed(body, 2), repeat(32)), repeat(tail[0]))
        keys += map(
            or_, map(lshift, body[1:], repeat(64)), repeat(tail[0] << 32 | tail[1])
        )
        for key in _packed(tail, 3):
            keys.append(key)
            counts.extra[key] += bridges - 1
        for m, counter in enumerate(counts.ends, 1):
            counter.update(dict.fromkeys(_packed(tail[-m:], m), bridges))
    return NGramScorer(counts.tables())


class RemoteScorer:
    """Forwards scoring calls to an HTTP endpoint sharing the same vocabulary.

    Request: POST JSON {"context": [...], "candidates": [...], "vocab_hash":
    "..."}; response: {"logprobs": {"<token id>": number, ...}}.  Connection
    failures, timeouts, and 5xx answers are retried; a 4xx answer means the
    two sides disagree (usually on the vocabulary) and is raised immediately.
    ``timeout`` must be finite and above 0, ``retries`` at least 0.
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
        if not 0 < timeout < math.inf:
            raise ValueError(f"timeout must be finite and above 0, not {timeout}")
        if not isinstance(retries, int) or retries < 0:
            raise ValueError(f"retries must be an integer >= 0, not {retries!r}")
        import requests

        self.endpoint = endpoint
        self.vocab_hash = vocab_hash
        self.timeout = timeout
        self.retries = retries
        self._session = session or requests.Session()

    def log_probs(
        self, context: Sequence[int], candidates: Iterable[int]
    ) -> tuple[dict[int, float], float]:
        """Every candidate's log-prob, as the endpoint gave it; ``rest`` is
        ``-inf`` and applies to none."""
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
            return self._parse(response, cands), -math.inf
        raise ScorerTransportError(
            f"scoring endpoint failed after {self.retries + 1} attempts: "
            f"{last_error}"
        )

    @staticmethod
    def _parse(response: requests.Response, cands: list[int]) -> dict[int, float]:
        try:
            body = response.json()
        except (ValueError, RecursionError) as exc:
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
            if not isinstance(raw, (int, float)) or isinstance(raw, bool):
                raise ScorerProtocolError(
                    f"log-prob for candidate {cand} is not a number: {raw!r}"
                )
            try:
                in_range = float(raw) <= 0.0  # false for NaN
            except OverflowError:  # an integer beyond float range
                in_range = False
            if not in_range:
                raise ScorerProtocolError(
                    f"log-prob for candidate {cand} out of range: {raw}"
                )
            out[cand] = float(raw)
        return out
