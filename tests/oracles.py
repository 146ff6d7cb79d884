"""Naive reference implementations the fast code is checked against.

Everything here favors obviousness over speed: direct scans, full sorts,
explicit enumeration.  Nothing imports from the package's index modules, so
agreement between the two sides is meaningful evidence.
"""

import math
from functools import cmp_to_key
from typing import Sequence

END_ID = 0
SENTINEL_ID = 1


def naive_suffix_array(tokens: Sequence[int]) -> list[int]:
    """Sort suffix start positions by direct suffix comparison.

    The implicit sentinel at position n compares below every token, same as
    the real construction.
    """
    symbols = list(tokens) + [-1]
    n = len(symbols)

    def compare(a: int, b: int) -> int:
        while a < n and b < n:
            if symbols[a] != symbols[b]:
                return -1 if symbols[a] < symbols[b] else 1
            a += 1
            b += 1
        # The shorter suffix ran out first; it sorts first.
        return -1 if a == n else 1

    return sorted(range(n), key=cmp_to_key(compare))


def naive_bwt_inverse(bwt: Sequence[int]) -> list[int]:
    """Invert a BWT by the standard last-to-first column walk."""
    order = sorted(range(len(bwt)), key=lambda i: (bwt[i], i))
    # order[j] maps first-column row j to its BWT row; walking it from the
    # sentinel's row spells the text forward.
    out = []
    row = bwt.index(SENTINEL_ID)
    for _ in range(len(bwt) - 1):
        row = order[row]
        out.append(bwt[row])
    return out


def naive_backward_extend(
    bwt: Sequence[int], lo: int, hi: int, symbol: int
) -> tuple[int, int] | None:
    """LF-mapping of rows [lo, hi) through ``symbol``, from the textbook
    definition: C(symbol) plus the symbol's rank at each end.  ``None`` when
    no row of the range holds the symbol."""
    bwt = list(bwt)
    below = sum(1 for x in bwt if x < symbol)
    new_lo = below + bwt[:lo].count(symbol)
    new_hi = below + bwt[:hi].count(symbol)
    return (new_lo, new_hi) if new_lo < new_hi else None


def naive_count(text: Sequence[int], pattern: Sequence[int]) -> int:
    return len(naive_locate(text, pattern))


def naive_locate(text: Sequence[int], pattern: Sequence[int]) -> list[int]:
    """All start offsets of pattern in text by direct comparison."""
    m = len(pattern)
    if m == 0:
        raise ValueError("pattern must be nonempty")
    return [
        i
        for i in range(len(text) - m + 1)
        if list(text[i : i + m]) == list(pattern)
    ]


def naive_successors(
    texts: Sequence[Sequence[int]], prefix: Sequence[int]
) -> set[int]:
    """Distinct symbols that can follow ``prefix`` in any of the texts."""
    out: set[int] = set()
    if not prefix:
        for text in texts:
            out.update(text)
        return out
    m = len(prefix)
    for text in texts:
        for i in naive_locate(text, prefix):
            if i + m < len(text):
                out.add(text[i + m])
    return out


def naive_title_allowed(
    titles: Sequence[Sequence[int]], prefix: Sequence[int]
) -> set[int]:
    """Brute-force prefix filter over the title list, END where one completes."""
    out: set[int] = set()
    prefix = list(prefix)
    m = len(prefix)
    for title in titles:
        title = list(title)
        if title[:m] != prefix:
            continue
        if len(title) == m:
            out.add(END_ID)
        else:
            out.add(title[m])
    return out


def score_sequence(scorer, prompt, sequence, allowed_fn) -> float:
    """Recompute a decode score from scratch: mean per-step log-prob.

    ``allowed_fn(prefix)`` must return the candidate set offered at that
    step, terminator included where legal, because within-set normalization
    makes every candidate's value depend on the whole set.  A token the
    scorer does not list scores its ``rest``.
    """
    prompt = list(prompt)
    sequence = list(sequence)
    total = 0.0
    for i, token in enumerate(sequence):
        allowed = allowed_fn(sequence[:i])
        assert token in allowed, f"token {token} not allowed at step {i}"
        scores, rest = scorer.log_probs(prompt + sequence[:i], allowed)
        total += scores.get(token, rest)
    return total / len(sequence)


def enumerate_substring_finishers(
    bodies: Sequence[Sequence[int]], max_len: int
) -> set[tuple[int, ...]]:
    """Every sequence the substring-constrained search can finish with.

    A sequence finishes either by reaching max_len while being a substring
    of some body, or earlier when every occurrence across all bodies sits
    flush against a document end (the only case the terminator is offered).
    """
    finishers: set[tuple[int, ...]] = set()
    substrings: set[tuple[int, ...]] = set()
    for body in bodies:
        body = list(body)
        for i in range(len(body)):
            for j in range(i + 1, min(i + max_len, len(body)) + 1):
                substrings.add(tuple(body[i:j]))
    for sub in substrings:
        if len(sub) == max_len:
            finishers.add(sub)
            continue
        occurs_inside = any(
            i + len(sub) < len(body)
            for body in bodies
            for i in naive_locate(body, sub)
        )
        if not occurs_inside:
            finishers.add(sub)
    return finishers


class StreamingNGramScorer:
    """The n-gram scorer as a per-token loop over dict-of-dict count tables.

    ``counts[ctx_len][context_tuple][token]`` is how often ``token``
    followed ``context_tuple``; scoring is the same add-one rule over the
    candidate set as the packed scorer's.
    """

    def __init__(self):
        self.counts: list[dict[tuple[int, ...], dict[int, int]]] = [{}, {}, {}]

    def add_stream(self, tokens: Sequence[int]) -> None:
        toks = list(tokens)
        for pos, tok in enumerate(toks):
            for ctx_len in range(3):
                if ctx_len > pos:
                    break
                ctx = tuple(toks[pos - ctx_len : pos])
                table = self.counts[ctx_len].setdefault(ctx, {})
                table[tok] = table.get(tok, 0) + 1

    def log_probs(self, context, candidates) -> dict[int, float]:
        cands = sorted(set(candidates))
        if not cands:
            raise ValueError("candidates must be nonempty")
        ctx = tuple(context)
        use = min(2, len(ctx))
        table = self.counts[use].get(ctx[len(ctx) - use :], {})
        counts = [table.get(c, 0) for c in cands]
        denom = sum(counts) + len(cands)
        return {c: math.log((n + 1) / denom) for c, n in zip(cands, counts)}


def corpus_streams(corpus):
    """Every stream the corpus scorer is trained on, written out one by one:
    body+END, title+END, title+title+END, and [b_j, b_j+1, *title, END] for
    every body bigram."""
    for doc in corpus.documents:
        body = list(doc.body_tokens)
        title = list(doc.title_tokens)
        yield body + [END_ID]
        yield title + [END_ID]
        yield title + title + [END_ID]
        for j in range(len(body) - 1):
            yield [body[j], body[j + 1], *title, END_ID]


def global_cut_beam_search(scorer, prompt, constraint, beam_size, max_len):
    """The beam search with one global cut over every child of every live
    hypothesis, as ``(tokens, mean log-prob)`` best-first.

    Each step builds a ``(-(cum + lp), tokens, parent)`` key for every
    allowed content token, listed by the scorer or not, and keeps the
    ``beam_size`` smallest; a parent offered END_ID is parked as finished.
    """
    prompt = list(prompt)
    if not constraint.allowed():
        raise ValueError("constraint offers no tokens at the start")
    live = [((), 0.0, constraint)]
    finished = []
    for _ in range(max_len):
        if not live:
            break
        candidates = []
        for tokens, cum, state in live:
            allowed = state.allowed()
            if not allowed:
                continue
            scores, rest = scorer.log_probs(prompt + list(tokens), allowed)
            for token in sorted(allowed):
                if token == END_ID:
                    if tokens:
                        finished.append((tokens, cum, state))
                    continue
                lp = scores.get(token, rest)
                candidates.append((-(cum + lp), tokens + (token,), state))
        candidates.sort(key=lambda c: (c[0], c[1]))
        live = [
            (tokens, -neg, state.step(tokens[-1]))
            for neg, tokens, state in candidates[:beam_size]
        ]
    finished.extend(
        (tokens, cum, state)
        for tokens, cum, state in live
        if tokens and state.is_terminal()
    )
    ranked = sorted(
        ((tokens, cum / len(tokens)) for tokens, cum, _ in finished),
        key=lambda r: (-r[1], r[0]),
    )
    return ranked[:beam_size]
