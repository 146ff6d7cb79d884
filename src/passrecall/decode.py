"""Constrained beam search over token-id sequences.

A constraint walks in lockstep with generation: at each step the candidate
set is whatever the constraint allows, so every emitted sequence exists in
the backing structure by construction.  Stage 1 walks a title trie; stage
2 walks a set of per-document FM-indexes, where appending a token is one
backward-extension step per live document.  The terminator (id 0) is a
control signal, not content: choosing it freezes the hypothesis without
scoring the terminator itself, and the final score is the mean
log-probability of the content tokens alone.

Each beam step first cuts every parent's children to its own best
``beam_size``, then keeps the best ``beam_size`` of what is left.  The cut
is exact: both rankings use the key ``(-(cum + lp), tokens)``, which orders
one parent's children the same way, so a child its parent's cut drops has
``beam_size`` siblings ahead of it in the global ranking too.  A parent
builds keys only for the children its scorer lists and for the
``beam_size`` smallest ids among the rest.  That drops nothing the full cut
would keep: every unlisted child has the same log-prob ``rest``, so they
share one key, and each one dropped has ``beam_size`` unlisted siblings
with smaller ids ahead of it.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass
from itertools import repeat
from typing import Protocol, Sequence

from .corpus import END_ID
from .fmindex import BWTIndex
from .scorer import TokenScorer
from .trie import TrieNode

logger = logging.getLogger(__name__)


class Constraint(Protocol):
    def allowed(self) -> set[int]:
        """Tokens legal right now; includes END_ID when stopping is legal."""
        ...

    def step(self, token: int) -> "Constraint":
        """Advance past a content token (never END_ID)."""
        ...

    def is_terminal(self) -> bool:
        """Whether the sequence so far is complete on its own."""
        ...


class TrieConstraint:
    """Restricts generation to exact root-to-terminal paths of a title trie.

    Made at the trie's root, as ``TrieConstraint(trie.root)``; each step
    moves to a child node.
    """

    def __init__(self, node: TrieNode):
        self.node = node

    def allowed(self) -> set[int]:
        """The node's child tokens, plus END_ID when the node is terminal."""
        allowed = set(self.node.children)
        if self.node.doc_id is not None:
            allowed.add(END_ID)
        return allowed

    def step(self, token: int) -> "TrieConstraint":
        if token == END_ID:
            raise ValueError("the search finishes on END_ID instead of stepping")
        child = self.node.children.get(token)
        if child is None:
            raise ValueError(f"token {token} not allowed here")
        return TrieConstraint(child)

    def is_terminal(self) -> bool:
        return self.node.doc_id is not None


class SubstringConstraint:
    """Restricts generation to verbatim substrings of an ordered document set.

    ``live`` holds one ``(doc_id, index, lo, hi)`` per document the
    generated prefix still occurs in, in the order the documents were given;
    rows ``[lo, hi)`` are the prefix's suffix-array range there, and the
    root starts each document at ``(0, len(index.sa))``.  A step keeps only
    the documents with ``lo < hi``, so a dead document is dropped and never
    revives.  The constraint is a cheap per-hypothesis value, so
    ``step`` returns a new instance instead of mutating.

    END_ID only becomes legal when every live occurrence has reached its
    document's end; until then the prefix keeps growing and stops only at
    the search's length cap.  Any nonempty prefix is terminal, which is what
    lets length-capped prefixes finish cleanly, so every step sets the
    terminal flag and only the root lacks it.  ``pipeline.localize`` reads
    the prefix's start off the first live document.
    """

    def __init__(self, entries: Sequence[tuple[str, BWTIndex]]):
        self.live = tuple(
            (doc_id, index, 0, len(index.sa)) for doc_id, index in entries
        )
        self._terminal = False

    def allowed(self) -> set[int]:
        successors: set[int] = set()
        for _, index, lo, hi in self.live:
            successors |= index.range_successors(lo, hi)
        if successors or not self._terminal:
            return successors
        return {END_ID}

    def step(self, token: int) -> "SubstringConstraint":
        if token == END_ID:
            raise ValueError("the search finishes on END_ID instead of stepping")
        live = []
        for doc_id, index, lo, hi in self.live:
            lo, hi = index.backward_extend(lo, hi, token)
            if lo < hi:
                live.append((doc_id, index, lo, hi))
        if not live:
            raise ValueError(f"token {token} not allowed here")
        # Skips __init__, which starts every document at its full range.
        stepped = object.__new__(SubstringConstraint)
        stepped.live = tuple(live)
        stepped._terminal = True
        return stepped

    def is_terminal(self) -> bool:
        return self._terminal


@dataclass(frozen=True)
class BeamConfig:
    beam_size: int
    max_len: int

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError("beam_size must be at least 1")
        if self.max_len < 1:
            raise ValueError("max_len must be at least 1")


@dataclass(frozen=True)
class BeamResult:
    tokens: tuple[int, ...]
    score: float
    constraint: Constraint


def constrained_beam_search(
    scorer: TokenScorer,
    prompt: Sequence[int],
    constraint: Constraint,
    config: BeamConfig,
) -> list[BeamResult]:
    """Beam-decode under a constraint; ranked best-first by mean log-prob.

    Ties break toward the lexicographically smaller token sequence so runs
    are reproducible.  Finished hypotheses are parked and only compete at
    the end, so an early short finisher cannot crowd live ones out of the
    beam.  Returns at most beam_size results; an all-dead beam returns an
    empty list after logging the dead end.
    """
    root_allowed = constraint.allowed()
    if not root_allowed:
        raise ValueError("constraint offers no tokens at the start")
    prompt = list(prompt)
    # Hypotheses are (cum_logprob, tokens, constraint); only the root has no
    # tokens.
    live = [(0.0, (), constraint)]
    finished = []

    for _ in range(config.max_len):
        if not live:
            break
        # (-cum_logprob, tokens, parent constraint): only the kept ones get
        # stepped.
        candidates: list[tuple[float, tuple[int, ...], Constraint]] = []
        for cum, tokens, state in live:
            allowed = state.allowed() if tokens else root_allowed
            if not allowed:
                continue
            scores, rest = scorer.log_probs(prompt + list(tokens), allowed)
            if tokens and END_ID in allowed:
                finished.append((cum, tokens, state))
            # The per-parent cut uses the global key, not lp alone: float
            # addition can tie children whose lp differ.
            keys = [(-(cum + lp), tok) for tok, lp in scores.items() if tok != END_ID]
            unscored = allowed.difference(scores, (END_ID,))
            if unscored:
                # They share one key, so only the smallest ids can survive.
                smallest = heapq.nsmallest(config.beam_size, unscored)
                keys += zip(repeat(-(cum + rest)), smallest)
            if len(keys) > config.beam_size:
                keys = heapq.nsmallest(config.beam_size, keys)
            candidates.extend(
                (neg_logprob, tokens + (token,), state) for neg_logprob, token in keys
            )
        # Candidate token tuples are distinct, so ties never compare parents.
        live = [
            (-neg_logprob, tokens, parent.step(tokens[-1]))
            for neg_logprob, tokens, parent in heapq.nsmallest(
                config.beam_size, candidates
            )
        ]

    # max_len is at least 1, so every hypothesis still live holds tokens.
    finished.extend(hyp for hyp in live if hyp[2].is_terminal())

    if not finished:
        logger.warning(
            "beam search dead-ended with no finished hypothesis "
            "(beam_size=%d, max_len=%d)",
            config.beam_size,
            config.max_len,
        )
        return []
    results = [
        BeamResult(tokens=tokens, score=cum / len(tokens), constraint=state)
        for cum, tokens, state in finished
    ]
    results.sort(key=lambda r: (-r.score, r.tokens))
    return results[: config.beam_size]
