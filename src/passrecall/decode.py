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
from .fmindex import EMPTY_RANGE, BWTIndex, SearchRange
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

    One suffix-array range per document tracks where the generated prefix
    still occurs; a document whose range empties is dead and never revives.
    The constraint is a cheap per-hypothesis value, so ``step`` returns a new
    instance instead of mutating.

    END_ID only becomes legal when every live occurrence has reached its
    document's end; until then the prefix keeps growing and stops only at
    the search's length cap.  Any nonempty prefix is terminal, which is what
    lets length-capped prefixes finish cleanly.  A document is live while
    its range is nonempty; ``pipeline.localize`` reads the prefix's start
    off the first live one.
    """

    def __init__(
        self,
        entries: Sequence[tuple[str, BWTIndex]],
        ranges: Sequence[SearchRange] | None = None,
    ):
        self.entries = tuple(entries)
        if ranges is None:
            ranges = [index.full_range() for _, index in self.entries]
        self.ranges = tuple(ranges)

    def allowed(self) -> set[int]:
        successors: set[int] = set()
        for (_, index), rng in zip(self.entries, self.ranges):
            successors |= index.range_successors(rng)
        if successors or not self.is_terminal():
            return successors
        return {END_ID}

    def step(self, token: int) -> "SubstringConstraint":
        if token == END_ID:
            raise ValueError("the search finishes on END_ID instead of stepping")
        ranges = [
            index.backward_extend(rng, token) if not rng.empty else EMPTY_RANGE
            for (_, index), rng in zip(self.entries, self.ranges)
        ]
        if all(rng.empty for rng in ranges):
            raise ValueError(f"token {token} not allowed here")
        return SubstringConstraint(self.entries, ranges)

    def is_terminal(self) -> bool:
        # Whether a token has been stepped: a step drops the sentinel's row,
        # so it narrows every document's range below the full one.
        return any(
            rng != index.full_range()
            for (_, index), rng in zip(self.entries, self.ranges)
        )


@dataclass(frozen=True)
class BeamConfig:
    beam_size: int
    max_len: int

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError("beam_size must be at least 1")
        if self.max_len < 1:
            raise ValueError("max_len must be at least 1")


@dataclass
class Hypothesis:
    constraint: Constraint
    tokens: tuple[int, ...] = ()
    cum_logprob: float = 0.0

    @property
    def normalized(self) -> float:
        if not self.tokens:
            raise ValueError("cannot normalize an empty hypothesis")
        return self.cum_logprob / len(self.tokens)


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
    live = [Hypothesis(constraint=constraint)]
    finished: list[Hypothesis] = []

    for _ in range(config.max_len):
        if not live:
            break
        # (-cum_logprob, tokens, parent): only the kept ones get stepped.
        candidates: list[tuple[float, tuple[int, ...], Hypothesis]] = []
        for hyp in live:
            # Only the root hypothesis has no tokens yet.
            allowed = hyp.constraint.allowed() if hyp.tokens else root_allowed
            if not allowed:
                continue
            scores, rest = scorer.log_probs(prompt + list(hyp.tokens), allowed)
            if hyp.tokens and END_ID in allowed:
                finished.append(hyp)
            cum = hyp.cum_logprob
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
                (neg_logprob, hyp.tokens + (token,), hyp)
                for neg_logprob, token in keys
            )
        # Candidate token tuples are distinct, so ties never compare parents.
        live = [
            Hypothesis(
                constraint=parent.constraint.step(tokens[-1]),
                tokens=tokens,
                cum_logprob=-neg_logprob,
            )
            for neg_logprob, tokens, parent in heapq.nsmallest(
                config.beam_size, candidates
            )
        ]

    finished.extend(
        hyp for hyp in live if hyp.tokens and hyp.constraint.is_terminal()
    )

    if not finished:
        logger.warning(
            "beam search dead-ended with no finished hypothesis "
            "(beam_size=%d, max_len=%d)",
            config.beam_size,
            config.max_len,
        )
        return []
    finished.sort(key=lambda h: (-h.normalized, h.tokens))
    return [
        BeamResult(tokens=h.tokens, score=h.normalized, constraint=h.constraint)
        for h in finished[: config.beam_size]
    ]
