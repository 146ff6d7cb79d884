import logging
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from passrecall.corpus import END_ID
from passrecall.decode import (
    BeamConfig,
    Hypothesis,
    SubstringConstraint,
    TrieConstraint,
    constrained_beam_search,
)
from passrecall.fmindex import BWTIndex
from passrecall.scorer import NGramScorer
from passrecall.trie import TitleTrie

# Scorers are immutable, so tests share one that was trained on nothing.
UNTRAINED = NGramScorer.from_streams([])


def trie_from(titles):
    trie = TitleTrie()
    for i, title in enumerate(titles):
        trie.insert(tuple(title), f"doc-{i}")
    return trie


def substring_constraint(bodies):
    entries = [
        (f"doc-{i}", BWTIndex.build(list(body)))
        for i, body in enumerate(bodies)
    ]
    return SubstringConstraint(entries)


def trained_scorer(streams, seed=None, rng_streams=0, alphabet=6):
    streams = [list(stream) for stream in streams]
    if seed is not None:
        rng = random.Random(seed)
        for _ in range(rng_streams):
            streams.append(
                [3 + rng.randrange(alphabet) for _ in range(rng.randrange(1, 20))]
            )
    return NGramScorer.from_streams(streams)


def oracle_title_score(scorer, prompt, title, titles):
    return oracles.score_sequence(
        scorer,
        prompt,
        title,
        lambda prefix: oracles.naive_title_allowed(titles, prefix),
    )


def oracle_substring_allowed(bodies, prefix):
    successors = oracles.naive_successors(bodies, prefix)
    if successors:
        return successors
    return {END_ID} if prefix else set()


class TestConstraints:
    def test_trie_constraint_walks_paths(self):
        trie = trie_from([(3, 4), (3, 5)])
        state = TrieConstraint(trie)
        assert state.allowed() == {3}
        assert not state.is_terminal()
        state = state.step(3)
        assert state.allowed() == {4, 5}
        state = state.step(4)
        assert state.allowed() == {END_ID}
        assert state.is_terminal()

    def test_trie_constraint_rejects_bad_steps(self):
        trie = trie_from([(3, 4)])
        state = TrieConstraint(trie)
        with pytest.raises(ValueError, match="not allowed"):
            state.step(9)
        with pytest.raises(ValueError, match="END_ID"):
            state.step(END_ID)

    def test_substring_constraint_grows_and_closes_out(self):
        state = substring_constraint([[3, 4, 5]])
        assert state.allowed() == {3, 4, 5}
        assert not state.is_terminal()
        state = state.step(4)
        assert state.is_terminal()
        assert state.allowed() == {5}
        state = state.step(5)
        # Every occurrence of (4, 5) ends the document, so only END is left.
        assert state.allowed() == {END_ID}

    def test_substring_constraint_rejects_bad_steps(self):
        state = substring_constraint([[3, 4]])
        with pytest.raises(ValueError, match="not allowed"):
            state.step(9)
        state = state.step(3)
        with pytest.raises(ValueError, match="END_ID"):
            state.step(END_ID)


class TestBeamConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BeamConfig(beam_size=0, max_len=4)
        with pytest.raises(ValueError):
            BeamConfig(beam_size=4, max_len=0)

    def test_empty_hypothesis_has_no_normalized_score(self):
        hyp = Hypothesis(constraint=None)
        with pytest.raises(ValueError):
            hyp.normalized


class TestTitleSearch:
    def test_single_title_returned_regardless_of_scorer(self):
        titles = [(3, 4, 5)]
        trie = trie_from(titles)
        scorer = trained_scorer([], seed=1, rng_streams=5)
        results = constrained_beam_search(
            scorer, [], TrieConstraint(trie), BeamConfig(beam_size=4, max_len=8)
        )
        assert [r.tokens for r in results] == [(3, 4, 5)]
        expected = oracle_title_score(scorer, [], (3, 4, 5), titles)
        assert abs(results[0].score - expected) <= 1e-9

    def test_initial_dead_constraint_is_an_error(self):
        empty = SubstringConstraint([])
        with pytest.raises(ValueError, match="no tokens at the start"):
            constrained_beam_search(
                UNTRAINED, [], empty, BeamConfig(beam_size=2, max_len=2)
            )

    def test_dead_end_returns_empty_with_diagnostic(self, caplog):
        # Titles need two steps but the search may only take one.
        trie = trie_from([(3, 4), (5, 6)])
        with caplog.at_level(logging.WARNING, logger="passrecall.decode"):
            results = constrained_beam_search(
                UNTRAINED, [], TrieConstraint(trie), BeamConfig(2, max_len=1)
            )
        assert results == []
        assert any("dead-end" in m for m in caplog.messages)

    def test_lexicographic_tie_break(self):
        trie = trie_from([(4,), (3,), (5,)])
        results = constrained_beam_search(
            UNTRAINED, [], TrieConstraint(trie), BeamConfig(3, max_len=2)
        )
        assert [r.tokens for r in results] == [(3,), (4,), (5,)]

    def test_at_most_beam_size_results(self):
        titles = [(3 + i,) for i in range(6)]
        trie = trie_from(titles)
        results = constrained_beam_search(
            UNTRAINED, [], TrieConstraint(trie), BeamConfig(4, max_len=2)
        )
        assert len(results) == 4

    def test_randomized_soundness_and_score_recompute(self):
        rng = random.Random(99)
        for case in range(60):
            titles = set()
            while len(titles) < rng.randrange(2, 10):
                titles.add(
                    tuple(3 + rng.randrange(5) for _ in range(rng.randrange(1, 5)))
                )
            titles = sorted(titles)
            titles = [
                t
                for t in titles
                if not any(t != u and u[: len(t)] == t for u in titles)
            ]
            trie = trie_from(titles)
            scorer = trained_scorer(
                [list(t) + [END_ID] for t in titles], seed=case, rng_streams=3
            )
            prompt = [3 + rng.randrange(5) for _ in range(rng.randrange(0, 4))]
            results = constrained_beam_search(
                scorer,
                prompt,
                TrieConstraint(trie),
                BeamConfig(beam_size=rng.randrange(1, 6), max_len=6),
            )
            assert results, titles
            for result in results:
                assert result.tokens in [tuple(t) for t in titles]
                # Stage 1 takes its doc id from the final node, not a re-walk.
                assert result.constraint.node.doc_id == trie.resolve_title(
                    result.tokens
                )
                expected = oracle_title_score(
                    scorer, prompt, result.tokens, titles
                )
                assert abs(result.score - expected) <= 1e-9

    def test_exhaustive_equivalence_on_small_title_sets(self):
        rng = random.Random(7)
        for case in range(30):
            titles = set()
            while len(titles) < rng.randrange(2, 8):
                titles.add(
                    tuple(3 + rng.randrange(4) for _ in range(rng.randrange(1, 4)))
                )
            titles = sorted(titles)
            titles = [
                t
                for t in titles
                if not any(t != u and u[: len(t)] == t for u in titles)
            ]
            trie = trie_from(titles)
            scorer = trained_scorer(
                [list(t) + [END_ID] for t in titles], seed=100 + case, rng_streams=4
            )
            results = constrained_beam_search(
                scorer, [], TrieConstraint(trie), BeamConfig(64, max_len=4)
            )
            expected = sorted(
                (
                    (-oracle_title_score(scorer, [], t, titles), tuple(t))
                    for t in titles
                ),
            )
            assert [r.tokens for r in results] == [t for _, t in expected]


class TestSubstringSearch:
    def test_single_document_prefixes_occur_verbatim(self):
        body = [3, 4, 5, 3, 4, 6, 5]
        scorer = trained_scorer([body])
        results = constrained_beam_search(
            scorer, [], substring_constraint([body]), BeamConfig(10, max_len=4)
        )
        assert results
        for result in results:
            assert oracles.naive_count(body, list(result.tokens)) > 0

    def test_early_finish_only_at_document_ends(self):
        body = [3, 4, 5]
        results = constrained_beam_search(
            UNTRAINED, [], substring_constraint([body]), BeamConfig(20, 10)
        )
        finished = {r.tokens for r in results}
        short = {t for t in finished if len(t) < 10}
        for tokens in short:
            # Every occurrence must touch the end of the document.
            occ = oracles.naive_locate(body, list(tokens))
            assert occ and all(i + len(tokens) == len(body) for i in occ)

    def test_randomized_soundness_and_score_recompute(self):
        rng = random.Random(5)
        for case in range(40):
            bodies = [
                [3 + rng.randrange(4) for _ in range(rng.randrange(3, 25))]
                for _ in range(rng.randrange(1, 4))
            ]
            scorer = trained_scorer(bodies, seed=case, rng_streams=2, alphabet=4)
            max_len = rng.randrange(2, 6)
            results = constrained_beam_search(
                scorer,
                [],
                substring_constraint(bodies),
                BeamConfig(beam_size=rng.randrange(1, 8), max_len=max_len),
            )
            assert results
            for result in results:
                assert any(
                    oracles.naive_count(body, list(result.tokens)) > 0
                    for body in bodies
                )
                expected = oracles.score_sequence(
                    scorer,
                    [],
                    result.tokens,
                    lambda prefix: oracle_substring_allowed(bodies, prefix),
                )
                assert abs(result.score - expected) <= 1e-9

    def test_exhaustive_equivalence_on_tiny_documents(self):
        rng = random.Random(21)
        for case in range(20):
            bodies = [
                [3 + rng.randrange(3) for _ in range(rng.randrange(2, 9))]
                for _ in range(rng.randrange(1, 3))
            ]
            max_len = 3
            legal = oracles.enumerate_substring_finishers(bodies, max_len)
            if len(legal) > 64:
                continue
            scorer = trained_scorer(bodies, seed=300 + case, rng_streams=2)
            results = constrained_beam_search(
                scorer, [], substring_constraint(bodies), BeamConfig(64, max_len)
            )
            expected = sorted(
                (
                    (
                        -oracles.score_sequence(
                            scorer,
                            [],
                            seq,
                            lambda prefix: oracle_substring_allowed(bodies, prefix),
                        ),
                        seq,
                    )
                    for seq in legal
                ),
            )
            assert [r.tokens for r in results] == [seq for _, seq in expected]


class SubUlpScorer:
    """Log-probs that tie under float addition.

    The first step after the prompt costs ``first``; every later step costs
    -1 minus ``offsets[token % len(offsets)] * 2**-50``.  Next to a
    cumulative score near -100 those offsets are below one ulp, so children
    whose log-probs differ still tie on ``cum + lp``.  One offset gives
    constant log-probs.
    """

    def __init__(self, prompt_len, first, offsets):
        self.prompt_len = prompt_len
        self.first = first
        self.offsets = offsets

    def log_probs(self, context, candidates):
        base = self.first if len(context) == self.prompt_len else -1.0
        return {
            c: base - self.offsets[c % len(self.offsets)] * 2.0**-50
            for c in candidates
        }


small_token = st.integers(min_value=3, max_value=9)


class TestGlobalCutOracle:
    """The per-parent cut keeps exactly what one global cut would."""

    @given(
        trie=st.booleans(),
        texts=st.lists(
            st.lists(small_token, min_size=1, max_size=8), min_size=1, max_size=4
        ),
        scorer_kind=st.sampled_from(["constant", "sub-ulp", "ngram"]),
        first=st.sampled_from([-100.0, -99.75, -0.5]),
        offsets=st.lists(st.integers(0, 3), min_size=2, max_size=7),
        prompt=st.lists(small_token, max_size=3),
        beam_size=st.integers(1, 4),
        max_len=st.integers(1, 6),
    )
    # After a -100 first step, (3, 4) and (3, 5) tie at -101 although 5's
    # log-prob is larger: the tie goes to the smaller token, 4.
    @example(
        trie=True,
        texts=[[3, 4], [3, 5]],
        scorer_kind="sub-ulp",
        first=-100.0,
        offsets=[1, 0],
        prompt=[],
        beam_size=1,
        max_len=3,
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_the_global_cut(
        self, trie, texts, scorer_kind, first, offsets, prompt, beam_size, max_len
    ):
        if trie:
            constraint = TrieConstraint(trie_from(sorted(set(map(tuple, texts)))))
        else:
            constraint = substring_constraint(texts)
        if scorer_kind == "ngram":
            scorer = trained_scorer(texts)
        else:
            scorer = SubUlpScorer(
                len(prompt), first, [0] if scorer_kind == "constant" else offsets
            )
        got = constrained_beam_search(
            scorer, prompt, constraint, BeamConfig(beam_size, max_len)
        )
        expected = oracles.global_cut_beam_search(
            scorer, prompt, constraint, beam_size, max_len
        )
        assert [(r.tokens, r.score) for r in got] == expected


class TestDeterminism:
    def test_repeat_runs_identical(self):
        bodies = [[3, 4, 5, 4, 3, 6], [4, 5, 6, 3]]
        scorer = trained_scorer(bodies, seed=8, rng_streams=3)

        def run():
            return [
                (r.tokens, r.score)
                for r in constrained_beam_search(
                    scorer, [7], substring_constraint(bodies), BeamConfig(4, 4)
                )
            ]

        assert run() == run()
