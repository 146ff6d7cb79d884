import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
import oracles
from passrecall import pipeline
from passrecall.corpus import ingest_corpus
from passrecall.decode import BeamResult, SubstringConstraint
from passrecall.pipeline import (
    InternalInconsistencyError,
    RecallConfig,
    RecallEngine,
    StageOneResult,
    combine_scores,
    extract_reference,
    localize,
    recall_prefixes,
    recall_titles,
    select_documents,
)
from passrecall.scorer import NGramScorer, corpus_scorer

# Scorers are immutable, so tests share one that was trained on nothing.
UNTRAINED = NGramScorer.from_streams([])


class TestSelectDocuments:
    def results(self):
        return [
            StageOneResult("d1", -0.1),
            StageOneResult("d2", -0.3),
            StageOneResult("d3", -0.4),
        ]

    def test_takes_top_k_distinct(self):
        chosen = select_documents(self.results(), 2)
        assert [r.doc_id for r in chosen] == ["d1", "d2"]
        assert chosen[0].score1 == -0.1

    def test_k_larger_than_distinct_pool(self):
        chosen = select_documents(self.results(), 10)
        assert [r.doc_id for r in chosen] == ["d1", "d2", "d3"]

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError, match="no stage-1"):
            select_documents([], 2)


class TestLocalize:
    def corpus(self):
        return ingest_corpus(
            [
                {"id": "d1", "title": "one", "text": ["cat dog fox cat dog"]},
                {"id": "d2", "title": "two", "text": ["fox cat dog bird"]},
            ]
        )

    def prefix(self, tokens, indexes, doc_ids):
        """The stage-2 result for ``tokens`` decoded over ``doc_ids`` in order."""
        state = SubstringConstraint([(d, indexes[d]) for d in doc_ids])
        for token in tokens:
            state = state.step(token)
        return BeamResult(tuple(tokens), -1.0, state)

    def test_scans_documents_in_given_order(self):
        corpus = self.corpus()
        indexes = helpers.build_indexes(corpus)
        tokens = corpus.codec.encode("cat dog")
        assert localize(self.prefix(tokens, indexes, ["d2", "d1"])) == ("d2", 1)
        assert localize(self.prefix(tokens, indexes, ["d1", "d2"])) == ("d1", 0)

    def test_falls_through_to_later_documents(self):
        # d1, selected first, dies at the prefix's first or second token.
        corpus = self.corpus()
        indexes = helpers.build_indexes(corpus)
        for text, start in (("bird", 3), ("dog bird", 2)):
            prefix = self.prefix(corpus.codec.encode(text), indexes, ["d1", "d2"])
            assert helpers.live_doc_ids(prefix.constraint) == ["d2"]
            assert localize(prefix) == ("d2", start)

    def test_randomized_against_naive_scan(self):
        rng = random.Random(17)
        for _ in range(40):
            bodies = {
                f"d{i}": [3 + rng.randrange(4) for _ in range(rng.randrange(4, 30))]
                for i in range(rng.randrange(1, 4))
            }
            records = []
            for doc_id, body in bodies.items():
                surface = " ".join(f"t{t}" for t in body)
                records.append(
                    {"id": doc_id, "title": f"title {doc_id}", "text": [surface]}
                )
            corpus = ingest_corpus(records)
            indexes = helpers.build_indexes(corpus)
            ordered = list(bodies)
            source = rng.choice(ordered)
            tokens = corpus.document(source).body_tokens
            m = rng.randrange(1, min(4, len(tokens)) + 1)
            i = rng.randrange(len(tokens) - m + 1)
            prefix = list(tokens[i : i + m])
            # Live documents as stage 2 leaves them: the constraint advanced
            # over the prefix, starting from the selected documents in order.
            docs = SubstringConstraint([(d, indexes[d]) for d in ordered])
            for token in prefix:
                docs = docs.step(token)
            got = localize(BeamResult(tuple(prefix), -1.0, docs))
            expected = None
            for doc_id in ordered:
                occurrences = oracles.naive_locate(
                    corpus.document(doc_id).body_tokens, prefix
                )
                if occurrences:
                    expected = (doc_id, occurrences[0])
                    break
            assert got == expected


class TestExtractReference:
    def doc(self):
        corpus = ingest_corpus(
            [{"id": "d1", "title": "t", "text": ["a b c d e f g h"]}]
        )
        return corpus.document("d1")

    def test_whole_body_when_passage_len_covers_it(self):
        doc = self.doc()
        assert extract_reference(doc, 0, 100) == doc.body_tokens

    def test_exact_length_mid_document(self):
        doc = self.doc()
        assert extract_reference(doc, 2, 3) == doc.body_tokens[2:5]

    def test_tail_is_clamped(self):
        doc = self.doc()
        assert extract_reference(doc, 6, 5) == doc.body_tokens[6:]

    def test_out_of_range_start_rejected(self):
        doc = self.doc()
        for bad in (-1, len(doc.body_tokens)):
            with pytest.raises(InternalInconsistencyError, match="out of range"):
                extract_reference(doc, bad, 3)


class TestCombineScores:
    def test_worked_arithmetic(self):
        assert combine_scores(-1.0, -2.0, 0.9) == -1.1

    def test_boundaries(self):
        assert combine_scores(-1.5, -7.0, 1.0) == -1.5
        assert combine_scores(-1.5, -7.0, 0.0) == -7.0

    @given(
        scores=st.lists(
            st.tuples(
                st.floats(min_value=-50, max_value=0),
                st.floats(min_value=-50, max_value=0),
            ),
            min_size=2,
            max_size=6,
        ),
        scale=st.floats(min_value=0.01, max_value=100),
        alpha=st.floats(min_value=0, max_value=1),
    )
    @example(scores=[(-5e-324, 0.0), (0.0, 0.0)], scale=0.5, alpha=1.0)
    @example(
        scores=[(-11.0, -33.0), (0.0, -33.0)],
        scale=0.01171875,
        alpha=2.220446049250313e-16,
    )
    @settings(max_examples=200, deadline=None)
    def test_scaling_both_scores_keeps_the_argmax(self, scores, scale, alpha):
        # Rounding can break or make exact ties after scaling, so the plain
        # winner need only stay within rounding of the scaled maximum.
        plain = [combine_scores(s1, s2, alpha) for s1, s2 in scores]
        scaled = [combine_scores(scale * s1, scale * s2, alpha) for s1, s2 in scores]
        winner = plain.index(max(plain))
        assert math.isclose(
            scaled[winner], max(scaled), rel_tol=1e-9, abs_tol=1e-9
        )


def small_fixture(num_docs=8, body_len=120, seed=5):
    corpus = ingest_corpus(
        helpers.synthetic_records(num_docs=num_docs, body_len=body_len, seed=seed)
    )
    trie, indexes = helpers.build_artifacts(corpus)
    scorer = corpus_scorer(corpus)
    return corpus, trie, indexes, scorer


class TestRecallTitles:
    def test_single_document_corpus_returns_its_title(self):
        corpus = ingest_corpus(
            [{"id": "d1", "title": "only doc", "text": ["some words here"]}]
        )
        trie, _ = helpers.build_artifacts(corpus)
        results = recall_titles(
            "anything at all", corpus, trie, UNTRAINED, helpers.plain_config()
        )
        assert [r.doc_id for r in results] == ["d1"]
        title_tokens = corpus.document(results[0].doc_id).title_tokens
        assert corpus.codec.decode(title_tokens) == "only doc"

    def test_query_equal_to_title_ranks_that_title_first(self):
        corpus, trie, _, scorer = small_fixture()
        config = helpers.plain_config()
        for doc in corpus.documents[:4]:
            title = corpus.codec.decode(doc.title_tokens)
            results = recall_titles(title, corpus, trie, scorer, config)
            assert results[0].doc_id == doc.doc_id, title
            # Cross-check the top score against exhaustive scoring.
            titles = [d.title_tokens for d in corpus.documents]
            prompt = corpus.codec.encode(title)
            expected = max(
                oracles.score_sequence(
                    scorer,
                    prompt,
                    t,
                    lambda prefix: oracles.naive_title_allowed(titles, prefix),
                )
                for t in titles
            )
            assert abs(results[0].score1 - expected) <= 1e-9

    @settings(max_examples=100, deadline=None)
    @given(
        titles=st.lists(
            st.lists(st.integers(0, 3), min_size=1, max_size=4),
            min_size=1,
            max_size=8,
            unique_by=tuple,
        ),
        query=st.lists(st.integers(0, 3), max_size=4),
        beam1=st.integers(1, 40),
    )
    def test_never_names_a_document_twice(self, titles, query, beam1):
        # Four words make titles that share prefixes or nest in one another,
        # so finished titles end at inner trie nodes as well as at leaves.
        def words(tokens):
            return " ".join(f"w{t}" for t in tokens)

        corpus = ingest_corpus(
            {"id": f"d{i}", "title": words(title), "text": ["body words"]}
            for i, title in enumerate(titles)
        )
        trie, _ = helpers.build_artifacts(corpus)
        config = helpers.plain_config(beam1=beam1)
        results = recall_titles(
            words(query), corpus, trie, corpus_scorer(corpus), config
        )
        doc_ids = [r.doc_id for r in results]
        assert len(set(doc_ids)) == len(doc_ids)

    def test_results_sorted_by_score(self):
        corpus, trie, _, scorer = small_fixture()
        title = corpus.codec.decode(corpus.documents[0].title_tokens)
        results = recall_titles(title, corpus, trie, scorer, helpers.plain_config())
        scores = [r.score1 for r in results]
        assert scores == sorted(scores, reverse=True)


class TestRecallPrefixes:
    def test_planted_sentence_recalled_from_its_opening(self):
        # Filler walks every ordered pad pair, so pad paths always branch
        # and never outscore the deterministic planted continuation.
        pads = ["pada", "padb", "padc", "padd"]
        pairs = [(a, b) for a in pads for b in pads if a != b]
        filler = " ".join(word for pair in pairs for word in pair)
        planted = "the quick silver owl wrote nine cryptic letters"
        corpus = ingest_corpus(
            [
                {"id": "d1", "title": "planted page", "text": [f"{filler} {planted}"]},
                {"id": "d2", "title": "other page", "text": [filler]},
            ]
        )
        _, indexes = helpers.build_artifacts(corpus)
        planted_tokens = corpus.codec.encode(planted)
        scorer = NGramScorer.from_streams([planted_tokens])
        config = helpers.plain_config(prefix_len=8, passage_len=20, beam2=20)
        selected = [
            StageOneResult("d1", -0.1),
            StageOneResult("d2", -0.2),
        ]
        results = recall_prefixes(
            "the quick silver owl", selected, indexes, corpus, scorer, config
        )
        assert results
        assert results[0].tokens == tuple(planted_tokens)
        assert helpers.live_doc_ids(results[0].constraint) == ["d1"]
        # Exhaustive check: no length-8 substring of either body scores higher.
        bodies = [list(d.body_tokens) for d in corpus.documents]
        prompt = corpus.codec.encode("the quick silver owl")
        best = max(
            oracles.score_sequence(
                scorer,
                prompt,
                seq,
                lambda prefix: (
                    oracles.naive_successors(bodies, prefix)
                    or ({0} if prefix else set())
                ),
            )
            for seq in oracles.enumerate_substring_finishers(bodies, 8)
        )
        assert abs(results[0].score - best) <= 1e-9

    def test_missing_index_names_document(self):
        corpus, _, indexes, scorer = small_fixture(num_docs=3)
        selected = [StageOneResult(corpus.documents[0].doc_id, -0.1)]
        del indexes[corpus.documents[0].doc_id]
        with pytest.raises(KeyError, match=corpus.documents[0].doc_id):
            recall_prefixes(
                "whatever", selected, indexes, corpus, scorer, helpers.plain_config()
            )


class ForcedBodyStepsImpossible:
    """Scores every forced step onto a body token ``-inf``, as a remote
    reply of ``-1e400`` parses; every other step as ``inner`` does."""

    def __init__(self, inner, body_tokens):
        self.inner = inner
        self.body_tokens = body_tokens

    def log_probs(self, context, candidates):
        if len(candidates) == 1 and not self.body_tokens.isdisjoint(candidates):
            return dict.fromkeys(candidates, -math.inf), -math.inf
        return self.inner.log_probs(context, candidates)


class TestRecallEndToEnd:
    def engine(self, **config_overrides):
        corpus, trie, indexes, scorer = small_fixture()
        config = helpers.plain_config(
            prefix_len=8, passage_len=40, **config_overrides
        )
        return corpus, RecallEngine(corpus, trie, indexes, scorer, config)

    def test_excerpt_queries_hit_their_documents(self):
        corpus, engine = self.engine()
        queries = helpers.excerpt_queries(corpus, count=12, excerpt_len=15, seed=3)
        for query, source_doc in queries:
            references = engine.recall(query)
            assert references
            assert references[0].doc_id == source_doc

    def test_reference_invariants(self):
        corpus, engine = self.engine()
        queries = helpers.excerpt_queries(corpus, count=8, excerpt_len=15, seed=4)
        for query, _ in queries:
            references = engine.recall(query)
            seen = set()
            for ref in references:
                body = corpus.document(ref.doc_id).body_tokens
                passage = body[ref.start : ref.start + 40]
                assert ref.passage_text == corpus.codec.decode(passage)
                recombined = combine_scores(ref.score1, ref.score2, 0.9)
                assert abs(ref.combined - recombined) <= 1e-12
                assert (ref.doc_id, ref.start) not in seen
                seen.add((ref.doc_id, ref.start))

    def test_alpha_boundaries_order_by_single_stage(self):
        corpus, engine_zero = self.engine(alpha=0.0)
        queries = helpers.excerpt_queries(corpus, count=5, excerpt_len=15, seed=6)
        _, engine_one = self.engine(alpha=1.0)
        for query, _ in queries:
            for engine, field in ((engine_zero, "score2"), (engine_one, "score1")):
                references = engine.recall(query)
                got = [(r.doc_id, r.start) for r in references]
                expected = [
                    (r.doc_id, r.start)
                    for r in sorted(
                        references,
                        key=lambda r: (-getattr(r, field), r.doc_id, r.start),
                    )
                ]
                assert got == expected

    @pytest.mark.parametrize("alpha, field", [(1.0, "score1"), (0.0, "score2")])
    def test_a_zero_weight_drops_an_infinite_score(self, alpha, field):
        # 0.0 * -inf is NaN, which would also leave the ranking unordered.
        corpus, trie, indexes, scorer = small_fixture()
        body = {t for doc in corpus.documents for t in doc.body_tokens}
        engine = RecallEngine(
            corpus,
            trie,
            indexes,
            ForcedBodyStepsImpossible(scorer, body),
            helpers.plain_config(prefix_len=8, passage_len=40, alpha=alpha),
        )
        query = helpers.excerpt_queries(corpus, count=1, excerpt_len=15, seed=9)[0][0]
        references = engine.recall(query)
        assert any(r.score2 == -math.inf for r in references)
        assert all(math.isfinite(r.score1) for r in references)
        assert [r.combined for r in references] == [
            getattr(r, field) for r in references
        ]

    def test_passage_off_its_prefix_is_an_inconsistency(self, monkeypatch):
        # A start one past the decoded prefix's: the index and text disagree.
        corpus, engine = self.engine()
        query = helpers.excerpt_queries(corpus, count=1, excerpt_len=15, seed=9)[0][0]

        def shifted(prefix):
            doc_id, start = localize(prefix)
            return doc_id, start + 1

        monkeypatch.setattr(pipeline, "localize", shifted)
        with pytest.raises(InternalInconsistencyError, match="begin with its prefix"):
            engine.recall(query)

    def test_rescore_full_passage_changes_score2_only(self):
        corpus, engine_plain = self.engine()
        _, engine_rescore = self.engine(rescore_full_passage=True)
        query = helpers.excerpt_queries(corpus, count=1, excerpt_len=15, seed=9)[0][0]
        plain_refs = engine_plain.recall(query)
        rescored_refs = engine_rescore.recall(query)
        plain_by_key = {(r.doc_id, r.start): r for r in plain_refs}
        rescored_by_key = {(r.doc_id, r.start): r for r in rescored_refs}
        assert set(plain_by_key) == set(rescored_by_key)
        for key, rescored in rescored_by_key.items():
            assert plain_by_key[key].score1 == rescored.score1
            assert rescored.combined == combine_scores(
                rescored.score1, rescored.score2, 0.9
            )

    def test_single_document_corpus_always_returns_it(self):
        corpus = ingest_corpus(
            [{"id": "solo", "title": "alone here", "text": ["just a few words inside"]}]
        )
        trie, indexes = helpers.build_artifacts(corpus)
        engine = RecallEngine(
            corpus,
            trie,
            indexes,
            UNTRAINED,
            helpers.plain_config(prefix_len=3, passage_len=5),
        )
        for query in ("first", "second unrelated query"):
            references = engine.recall(query)
            assert references
            assert all(r.doc_id == "solo" for r in references)

    @settings(max_examples=200, deadline=None)
    @given(
        bodies=st.lists(
            st.lists(st.integers(0, 3), min_size=1, max_size=12),
            min_size=1,
            max_size=4,
        ),
        query=st.lists(st.integers(0, 3), max_size=4),
        prefix_len=st.integers(1, 4),
        beam2=st.integers(1, 20),
        k=st.integers(1, 3),
        trained=st.booleans(),
    )
    def test_references_never_share_a_position(
        self, bodies, query, prefix_len, beam2, k, trained
    ):
        # Short bodies end inside most prefixes, so prefixes finish early
        # as well as at prefix_len, and wide beams keep many of them.
        def words(tokens):
            return " ".join(f"w{t}" for t in tokens)

        corpus = ingest_corpus(
            {"id": f"d{i}", "title": f"title {i}", "text": [words(body)]}
            for i, body in enumerate(bodies)
        )
        trie, indexes = helpers.build_artifacts(corpus)
        scorer = corpus_scorer(corpus) if trained else UNTRAINED
        config = helpers.plain_config(
            k=k, beam2=beam2, prefix_len=prefix_len, passage_len=4
        )
        engine = RecallEngine(corpus, trie, indexes, scorer, config)
        positions = [(r.doc_id, r.start) for r in engine.recall(words(query))]
        assert positions
        assert len(set(positions)) == len(positions)


class TestConfig:
    def test_defaults_match_the_working_configuration(self):
        config = RecallConfig()
        assert config.alpha == 0.9
        assert config.k == 2
        assert config.beam1 == 15
        assert config.beam2 == 10
        assert config.prefix_len == 16
        assert config.passage_len == 150
        assert config.rescore_full_passage is False

    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            helpers.plain_config(alpha=1.5)
        with pytest.raises(ValueError, match="k"):
            helpers.plain_config(k=0)
        with pytest.raises(ValueError, match="beam"):
            helpers.plain_config(beam1=0)
        with pytest.raises(ValueError, match="prefix_len"):
            helpers.plain_config(prefix_len=200, passage_len=100)

    def test_described_lists_every_field(self):
        described = helpers.plain_config().described()
        assert described["alpha"] == 0.9
        assert described["stage1_template"] == "{}"
        assert set(described) == {
            "alpha",
            "k",
            "beam1",
            "beam2",
            "prefix_len",
            "passage_len",
            "stage1_template",
            "stage2_template",
            "rescore_full_passage",
        }
