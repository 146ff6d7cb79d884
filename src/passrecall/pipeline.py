"""Two-stage recall: titles first, then short prefixes located in context.

Stage 1 decodes a document title under the trie constraint and keeps the
top k distinct documents.  Stage 2 decodes a short prefix (prefix_len
tokens) constrained to be a verbatim substring of those documents, reads
its first occurrence off the suffix-array range the decoder ends on in the
first document it is still live in, or off the body position the decoder
pinned it to once one occurrence was left, and extracts passage_len tokens
from there.  The two stage scores are combined as alpha * score1 + (1 -
alpha) * score2, where a weight of 0 drops its term, and references are
ranked by the combined value.
"""

from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

from .corpus import Corpus, Document
from .decode import (
    BeamConfig,
    BeamResult,
    PinnedConstraint,
    SubstringConstraint,
    TrieConstraint,
    constrained_beam_search,
)
from .fmindex import BWTIndex
from .scorer import (
    STAGE_ONE,
    STAGE_TWO,
    PromptTemplate,
    TokenScorer,
    default_templates,
    render_prompt,
)
from .trie import TitleTrie

logger = logging.getLogger(__name__)


class DeadEndError(RuntimeError):
    """A stage produced no output at all for this query."""


class InternalInconsistencyError(RuntimeError):
    """Two structures that must agree (index vs. raw text) disagreed."""


def _default_stage1() -> PromptTemplate:
    return default_templates()["qa"][STAGE_ONE]


def _default_stage2() -> PromptTemplate:
    return default_templates()["qa"][STAGE_TWO]


@dataclass(frozen=True)
class RecallConfig:
    """Knobs for one recall run; defaults are the working configuration."""

    alpha: float = 0.9
    k: int = 2
    beam1: int = 15
    beam2: int = 10
    prefix_len: int = 16
    passage_len: int = 150
    stage1_template: PromptTemplate = field(default_factory=_default_stage1)
    stage2_template: PromptTemplate = field(default_factory=_default_stage2)
    rescore_full_passage: bool = False

    def __post_init__(self):
        # type(), not isinstance: a bool is an int but no count or weight.
        sizes = (self.k, self.beam1, self.beam2, self.prefix_len, self.passage_len)
        if any(type(value) is not int for value in sizes):
            raise TypeError("k, beams and lengths must be integers")
        if type(self.alpha) not in (int, float):
            raise TypeError("alpha must be a number")
        if type(self.rescore_full_passage) is not bool:
            raise TypeError("rescore_full_passage must be true or false")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.beam1 < 1 or self.beam2 < 1:
            raise ValueError("beam sizes must be at least 1")
        if self.prefix_len < 1 or self.passage_len < 1:
            raise ValueError("lengths must be at least 1")
        if self.prefix_len > self.passage_len:
            raise ValueError("prefix_len must not exceed passage_len")

    def described(self) -> dict:
        """Config values for run metadata: every field, a template as its text."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {
            name: value.template if isinstance(value, PromptTemplate) else value
            for name, value in values.items()
        }


@dataclass(frozen=True)
class StageOneResult:
    doc_id: str
    score1: float


@dataclass(frozen=True)
class Reference:
    doc_id: str
    title: str
    start: int
    passage_text: str
    score1: float
    score2: float
    combined: float


def recall_titles(
    query: str,
    corpus: Corpus,
    trie: TitleTrie,
    scorer: TokenScorer,
    config: RecallConfig,
) -> list[StageOneResult]:
    """Decode up to beam1 titles, best first, each resolved to its document."""
    prompt = render_prompt(config.stage1_template, query, corpus.codec)
    results = constrained_beam_search(
        scorer,
        prompt,
        TrieConstraint(trie.root),
        BeamConfig(beam_size=config.beam1, max_len=trie.max_depth),
    )
    if not results:
        raise DeadEndError("no title could be generated for this query")
    # A finished title ends on a terminal node, which names its document.
    return [StageOneResult(r.constraint.node.doc_id, r.score) for r in results]


def select_documents(
    results: Sequence[StageOneResult], k: int
) -> list[StageOneResult]:
    """Top-k documents in stage-1 score order.

    Stage 1 never names a document twice: finished titles are distinct
    token sequences, and each terminal node names one document.
    """
    if not results:
        raise ValueError("no stage-1 results to select from")
    return list(results[:k])


def recall_prefixes(
    query: str,
    selected: Sequence[StageOneResult],
    indexes: Mapping[str, BWTIndex],
    corpus: Corpus,
    scorer: TokenScorer,
    config: RecallConfig,
) -> list[BeamResult]:
    """Decode up to beam2 short prefixes constrained to the selected docs.

    Each result's constraint is a ``SubstringConstraint`` whose ``live``
    holds the prefix's suffix-array range in each selected document it
    occurs in, in stage-1 order, or a ``PinnedConstraint`` once the prefix
    occurs only once.
    """
    entries = []
    for result in selected:
        index = indexes.get(result.doc_id)
        if index is None:
            raise KeyError(f"missing index for document {result.doc_id!r}")
        entries.append((result.doc_id, index))
    prompt = render_prompt(config.stage2_template, query, corpus.codec)
    return constrained_beam_search(
        scorer,
        prompt,
        SubstringConstraint(entries),
        BeamConfig(beam_size=config.beam2, max_len=config.prefix_len),
    )


def localize(prefix: BeamResult) -> tuple[str, int]:
    """First occurrence of a stage-2 prefix, in the first document it is
    live in, read off the decoder's final range there.

    The constraint keeps its live documents in stage-1 order, so this is
    the first match a scan of the selected documents in score order would
    find.  A prefix with one occurrence left ends on a ``PinnedConstraint``,
    which already holds its document and the position past it.
    """
    state = prefix.constraint
    if isinstance(state, PinnedConstraint):
        return state.doc_id, state.pos - len(prefix.tokens)
    doc_id, index, lo, hi = state.live[0]
    return doc_id, index.starts(lo, hi, len(prefix.tokens))[0]


def extract_reference(doc: Document, start: int, passage_len: int) -> array:
    """Passage slice [start, start + passage_len), clamped at document end.

    A start outside the body means the index and the text disagree.
    """
    if not 0 <= start < len(doc.body_tokens):
        raise InternalInconsistencyError(
            f"start {start} out of range for {doc.doc_id!r}"
        )
    return doc.body_tokens[start : start + passage_len]


def combine_scores(score1: float, score2: float, alpha: float) -> float:
    # A weight of 0 drops its term: 0.0 * -inf would make the sum NaN.
    if alpha == 1:
        return score1
    if alpha == 0:
        return score2
    return alpha * score1 + (1 - alpha) * score2


def _rescore_passage(
    passage: Sequence[int],
    doc_id: str,
    indexes: Mapping[str, BWTIndex],
    prompt: Sequence[int],
    scorer: TokenScorer,
) -> float:
    """Mean log-prob of the whole passage under the single-document constraint."""
    constraint = SubstringConstraint([(doc_id, indexes[doc_id])])
    total = 0.0
    context = list(prompt)
    for token in passage:
        scores, rest = scorer.log_probs(context, constraint.allowed())
        total += scores.get(token, rest)
        constraint = constraint.step(token)
        context.append(token)
    return total / len(passage)


class RecallEngine:
    """Bundles the immutable artifacts one recall run needs."""

    def __init__(
        self,
        corpus: Corpus,
        trie: TitleTrie,
        indexes: Mapping[str, BWTIndex],
        scorer: TokenScorer,
        config: RecallConfig | None = None,
    ):
        self.corpus = corpus
        self.trie = trie
        self.indexes = dict(indexes)
        self.scorer = scorer
        self.config = config or RecallConfig()

    def recall(self, query: str) -> list[Reference]:
        """End-to-end recall for one query, ranked by combined score."""
        corpus, config = self.corpus, self.config
        stage1 = recall_titles(query, corpus, self.trie, self.scorer, config)
        selected = select_documents(stage1, config.k)
        prefixes = recall_prefixes(
            query, selected, self.indexes, corpus, self.scorer, config
        )
        if not prefixes:
            raise DeadEndError("no prefix could be generated for this query")
        score1_by_doc = {r.doc_id: r.score1 for r in selected}
        if config.rescore_full_passage:
            stage2_prompt = render_prompt(config.stage2_template, query, corpus.codec)

        # Two prefixes never share a position, so references need no dedupe.
        # Decoded prefixes are distinct token sequences, and one shorter than
        # prefix_len finishes only when every occurrence of it ends at its
        # document's end, so no longer prefix starts where it does.
        references = []
        for prefix in prefixes:
            doc_id, start = localize(prefix)
            doc = corpus.document(doc_id)
            passage = extract_reference(doc, start, config.passage_len)
            if tuple(passage[: len(prefix.tokens)]) != prefix.tokens:
                raise InternalInconsistencyError(
                    "extracted passage does not begin with its prefix"
                )
            score2 = prefix.score
            if config.rescore_full_passage:
                score2 = _rescore_passage(
                    passage, doc_id, self.indexes, stage2_prompt, self.scorer
                )
            score1 = score1_by_doc[doc_id]
            references.append(
                Reference(
                    doc_id=doc_id,
                    title=corpus.codec.decode(doc.title_tokens),
                    start=start,
                    passage_text=corpus.codec.decode(passage),
                    score1=score1,
                    score2=score2,
                    combined=combine_scores(score1, score2, config.alpha),
                )
            )
        references.sort(key=lambda r: (-r.combined, r.doc_id, r.start))
        return references
