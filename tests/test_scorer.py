import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
import oracles
from passrecall.corpus import END_ID, WordCodec, ingest_corpus
from passrecall.scorer import (
    STAGE_ONE,
    STAGE_TWO,
    NGramScorer,
    PromptTemplate,
    _Counts,
    corpus_scorer,
    default_templates,
    render_prompt,
)

words = st.text(
    alphabet=st.characters(whitelist_categories=("Ll",), max_codepoint=0x17F),
    min_size=1,
    max_size=8,
)


class TestPromptTemplate:
    def test_requires_exactly_one_slot(self):
        with pytest.raises(ValueError, match="slot"):
            PromptTemplate("no slot here")
        with pytest.raises(ValueError, match="slot"):
            PromptTemplate("{} twice {}")

    def test_render_replaces_slot(self):
        assert PromptTemplate("Q: {} A:").render("x") == "Q: x A:"

    def test_render_prompt_equals_encoding_the_filled_text(self):
        codec = WordCodec.build(["Q : x A :"])
        template = PromptTemplate("Q: {} A:")
        assert render_prompt(template, "x", codec) == codec.encode("Q: x A:")

    @given(prefix=words, suffix=words, query=st.text(max_size=30))
    @settings(max_examples=150, deadline=None)
    def test_rendering_is_length_additive(self, prefix, suffix, query):
        # Whitespace-delimited slot: the query's tokens drop in unchanged.
        template = PromptTemplate(f"{prefix} {{}} {suffix}")
        codec = WordCodec.build([template.template, query])
        rendered = render_prompt(template, query, codec)
        assert len(rendered) == (
            len(codec.encode(template.template)) - 1 + len(codec.encode(query))
        )


class TestDefaultTemplates:
    def test_all_task_forms_have_both_stages(self):
        templates = default_templates()
        assert sorted(templates) == ["dialogue", "fact", "qa"]
        for stages in templates.values():
            assert sorted(stages) == [STAGE_ONE, STAGE_TWO]
            for template in stages.values():
                assert template.template.count("{}") == 1

    def test_qa_stage1_text(self):
        template = default_templates()["qa"][STAGE_ONE]
        assert template.template == (
            "Question: {}\n \n The Wikipedia article corresponding to the "
            "above question is:\n \n Title:"
        )

    def test_fact_stage2_text(self):
        template = default_templates()["fact"][STAGE_TWO]
        assert template.template == (
            "Claim: {}\n \n The Wikipedia paragraph to support or refute the "
            "above claim is:\n \n Answer:"
        )


def packed_counts(scorer):
    """The packed tables read back as ``counts[ctx_len][context][token]``,
    the oracle's layout."""
    out = []
    for ctx_len, (contexts, start, toks, counts) in enumerate(scorer.tables):
        table = {}
        for i, key in enumerate(contexts):
            ctx = tuple(key >> 32 * k & 0xFFFFFFFF for k in range(ctx_len)[::-1])
            rows = slice(start[i], start[i + 1])
            table[ctx] = dict(zip(toks[rows], counts[rows]))
        out.append(table)
    return out


def streamed(streams, order=3):
    oracle = oracles.StreamingNGramScorer(order)
    for stream in streams:
        oracle.add_stream(stream)
    return oracle


# Small ids collide often enough to share contexts; ids of 2**32 and above
# must match no context, where packing them would alias a small one.
any_token = st.one_of(
    st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=2**40)
)


class TestNGramScorer:
    def test_order_must_be_positive(self):
        with pytest.raises(ValueError, match="order"):
            NGramScorer.from_streams([], order=0)

    def test_order_above_three_rejected(self):
        with pytest.raises(ValueError, match="order"):
            NGramScorer.from_streams([], order=4)

    @pytest.mark.parametrize("token", [-1, 2**32])
    def test_token_id_outside_32_bits_rejected(self, token):
        with pytest.raises(ValueError, match="token ids"):
            NGramScorer.from_streams([[3, token]])

    def test_counts_beyond_32_bits_are_kept(self):
        # Bridge counts are multiplied by the body length, so one n-gram can
        # outgrow a u32 without the corpus holding 2**32 tokens.
        counts = _Counts(order=1)
        NGramScorer.add_stream(counts, [7])
        counts.extra[7] += 2**33 - 1  # how corpus_scorer adds bridge counts
        scorer = NGramScorer(1, counts.tables())
        assert scorer.log_probs([], {7, 8}) == {
            7: math.log((2**33 + 1) / (2**33 + 2)),
            8: math.log(1 / (2**33 + 2)),
        }

    def test_derived_row_sum_beyond_32_bits_is_kept(self):
        # Each bigram count fits a u32; the unigram count of 7, their row
        # sum, does not.
        counts = _Counts(order=2)
        for last in (8, 9):
            NGramScorer.add_stream(counts, [7, last])
            counts.extra[7 << 32 | last] += 2**31
        scorer = NGramScorer(2, counts.tables())
        assert scorer.log_probs([7], {8, 9}) == {8: math.log(1 / 2), 9: math.log(1 / 2)}
        assert scorer.tables[1][3].typecode == "I"
        assert scorer.tables[0][3].typecode == "Q"
        # 7: 2 * (2**31 + 1); 8 and 9 each end one stream.
        assert scorer.log_probs([], {7, 8}) == {
            7: math.log((2**32 + 3) / (2**32 + 5)),
            8: math.log(2 / (2**32 + 5)),
        }

    @given(
        order=st.integers(min_value=1, max_value=3),
        streams=st.lists(
            st.lists(st.integers(min_value=0, max_value=8), max_size=12), max_size=6
        ),
        context=st.lists(any_token, max_size=5),
        cands=st.sets(any_token, min_size=1, max_size=10),
        with_end=st.booleans(),
        wide=st.one_of(st.just(0), st.integers(min_value=65, max_value=400)),
    )
    @settings(max_examples=300, deadline=None)
    # Context tokens outside 32 bits, which a packed key would alias onto
    # the trained context (1, 5), score as an unseen context.
    @example(order=3, streams=[[1, 5, 7]], context=[0, 2**32 + 5], cands={7, 8},
             with_end=False, wide=0)
    @example(order=3, streams=[[1, 5, 7]], context=[1, 5 - 2**32], cands={7, 8},
             with_end=False, wide=0)
    # The lower orders are derived from the top one plus each stream's final
    # tokens: streams too short to hold a trigram, and final bigrams and
    # unigrams shared by several streams.
    @example(order=3, streams=[[]], context=[], cands={0, 3}, with_end=False, wide=0)
    @example(order=3, streams=[[4]], context=[], cands={3, 4}, with_end=False, wide=0)
    @example(order=3, streams=[[4, 5]], context=[4], cands={4, 5}, with_end=False,
             wide=0)
    @example(order=3, streams=[[1, 4, 5], [2, 4, 5], [4, 5], [3, 4, 5, 4]],
             context=[4], cands={4, 5, 6}, with_end=False, wide=0)
    def test_log_probs_match_the_streaming_oracle(
        self, order, streams, context, cands, with_end, wide
    ):
        if with_end:
            cands = cands | {END_ID}
        # A wide set over a 9-token alphabet: most counts are 0, the rest
        # repeat, so one cached log serves many candidates.
        cands = cands | set(range(wide))
        scorer = NGramScorer.from_streams(streams, order)
        oracle = streamed(streams, order)
        # Every trained context, then one that may be unseen or out of range.
        contexts = [stream[:i] for stream in streams for i in range(len(stream) + 1)]
        for ctx in contexts + [context]:
            assert scorer.log_probs(ctx, cands) == oracle.log_probs(ctx, cands)
        assert packed_counts(scorer) == oracle.counts

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            NGramScorer.from_streams([]).log_probs([], set())

    def test_single_candidate_scores_zero(self):
        scorer = NGramScorer.from_streams([])
        assert scorer.log_probs([3, 4], {9}) == {9: 0.0}

    def test_untrained_is_uniform(self):
        scorer = NGramScorer.from_streams([])
        got = scorer.log_probs([], {3, 4, 5, 6})
        for value in got.values():
            assert value == math.log(1 / 4)

    def test_bigram_counts_order_candidates(self):
        # Stream "a b a b": after "a", "b" has been seen twice, "a" never.
        codec = WordCodec.build(["a b"])
        a, b = codec.encode("a"), codec.encode("b")
        scorer = NGramScorer.from_streams([codec.encode("a b a b")], order=2)
        got = scorer.log_probs(a, {a[0], b[0]})
        assert got[b[0]] > got[a[0]]
        assert got[b[0]] == math.log(3 / 4)
        assert got[a[0]] == math.log(1 / 4)

    def test_context_uses_only_the_last_order_minus_one_tokens(self):
        scorer = NGramScorer.from_streams([[3, 4]], order=2)
        long_context = scorer.log_probs([9, 9, 9, 3], {4, 5})
        short_context = scorer.log_probs([3], {4, 5})
        assert long_context == short_context

    def test_short_context_uses_short_tables(self):
        scorer = NGramScorer.from_streams([[3, 4, 5]])
        # Unigram table: both 3 and 4 were seen once; 9 never.
        got = scorer.log_probs([], {3, 4, 9})
        assert got[3] == got[4] > got[9]

    @given(
        stream=st.lists(st.integers(min_value=3, max_value=8), max_size=50),
        context=st.lists(st.integers(min_value=3, max_value=8), max_size=5),
        cands=st.sets(st.integers(min_value=0, max_value=10), min_size=1, max_size=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_within_set_normalization_sums_to_one(self, stream, context, cands):
        scorer = NGramScorer.from_streams([stream])
        got = scorer.log_probs(context, cands)
        assert abs(sum(math.exp(v) for v in got.values()) - 1.0) <= 1e-9

    def test_repeated_calls_are_bit_identical(self):
        scorer = NGramScorer.from_streams([[3, 4, 5, 3, 4]])
        first = scorer.log_probs([3, 4], {5, 6, 7})
        second = scorer.log_probs([3, 4], {5, 6, 7})
        assert first == second


class TestCorpusScorer:
    def test_excerpt_tail_bridges_to_owning_title(self):
        corpus = ingest_corpus(
            [
                {"id": "a", "title": "red badge", "text": ["cat dog fox cat dog"]},
                {"id": "b", "title": "blue flag", "text": ["sun moon star sun moon"]},
            ]
        )
        scorer = corpus_scorer(corpus)
        codec = corpus.codec
        title_a = corpus.document("a").title_tokens
        title_b = corpus.document("b").title_tokens
        context = codec.encode("fox cat")
        got = scorer.log_probs(context, {title_a[0], title_b[0]})
        assert got[title_a[0]] > got[title_b[0]]

    def test_title_continuation_and_termination(self):
        corpus = ingest_corpus(
            [
                {"id": "a", "title": "red badge", "text": ["cat dog fox"]},
                {"id": "b", "title": "blue flag", "text": ["sun moon star"]},
            ]
        )
        scorer = corpus_scorer(corpus)
        title_a = list(corpus.document("a").title_tokens)
        after_title = scorer.log_probs(title_a, {0, title_a[0]})
        assert after_title[0] > after_title[title_a[0]]

    def test_counts_equal_streaming_every_stream(self):
        corpus = helpers.synthetic_corpus()
        oracle = streamed(oracles.corpus_streams(corpus))
        assert packed_counts(corpus_scorer(corpus)) == oracle.counts

    def test_tables_equal_counting_every_stream(self):
        # Array for array and typecode for typecode: the bulk-counted bridges
        # leave the same tables as counting each bridge stream one by one.
        corpus = helpers.synthetic_corpus()
        got = corpus_scorer(corpus).tables
        want = NGramScorer.from_streams(oracles.corpus_streams(corpus)).tables
        assert len(got) == len(want)
        for got_table, want_table in zip(got, want):
            assert [a.typecode for a in got_table] == [a.typecode for a in want_table]
            assert got_table == want_table

    @pytest.mark.parametrize(
        "title, text",
        [
            ("red badge", "cat"),
            ("solo", "dog fox hen dog fox"),
            (" ".join(f"t{i}" for i in range(5000)), "sun moon star sun"),
            ("owl song", " ".join(["owl"] * 200)),
        ],
        ids=[
            "one-token-body",
            "one-token-title",
            "5000-token-title",
            "one-repeated-token",
        ],
    )
    def test_extreme_documents_match_the_oracle(self, title, text):
        corpus = ingest_corpus(
            [
                {"id": "x", "title": title, "text": [text]},
                {"id": "y", "title": "blue flag", "text": ["cat dog cat owl"]},
            ]
        )
        scorer = corpus_scorer(corpus)
        oracle = streamed(oracles.corpus_streams(corpus))
        assert packed_counts(scorer) == oracle.counts
        cands = set(range(corpus.codec.vocab_size))
        for doc in corpus.documents:
            for ctx in ([], doc.body_tokens[-1:], doc.title_tokens[-2:]):
                assert scorer.log_probs(ctx, cands) == oracle.log_probs(ctx, cands)
