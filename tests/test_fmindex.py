import hashlib
import io
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from passrecall.corpus import END_ID, SENTINEL_ID, Document
from passrecall.decode import SubstringConstraint
from passrecall.fmindex import (
    BWTIndex,
    build_suffix_array,
    bwt_from_sa,
    load_index,
    save_index,
)

token_seqs = st.lists(st.integers(min_value=3, max_value=12), max_size=40)


class TestSuffixArray:
    def test_single_symbol(self):
        assert build_suffix_array([5]) == [1, 0]

    def test_known_small_case(self):
        # banana-shaped: 3=a 4=b 5=n over "banana"
        tokens = [4, 3, 5, 3, 5, 3]
        assert build_suffix_array(tokens) == oracles.naive_suffix_array(tokens)

    def test_empty_text(self):
        assert build_suffix_array([]) == [0]

    def test_sentinel_input_rejected(self):
        with pytest.raises(ValueError, match="sentinel"):
            build_suffix_array([3, SENTINEL_ID, 4])

    @given(token_seqs)
    @settings(max_examples=300, deadline=None)
    def test_matches_naive_sort(self, tokens):
        assert build_suffix_array(tokens) == oracles.naive_suffix_array(tokens)

    def test_repetitive_text(self):
        tokens = [3, 4] * 500
        assert build_suffix_array(tokens) == oracles.naive_suffix_array(tokens)

    # The first round keys by raw id, so ids near 2**32 make keys near 2**64;
    # one repeated token makes every round tie until the last.
    @pytest.mark.parametrize(
        "tokens",
        [
            [2**32 - 1, 3, 2**32 - 2, 3, 3, 2**32 - 1, 2**32 - 2, 2**32 - 1, 3],
            [3] * 3000,
            [2**32 - 1] * 257,
        ],
        ids=["ids-near-2**32-with-3", "3-times-3000", "2**32-1-times-257"],
    )
    def test_extreme_inputs_match_naive_sort(self, tokens):
        assert build_suffix_array(tokens) == oracles.naive_suffix_array(tokens)

    @given(st.lists(st.sampled_from([3, 4, 2**32 - 2, 2**32 - 1]), max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_top_ids_match_naive_sort(self, tokens):
        assert build_suffix_array(tokens) == oracles.naive_suffix_array(tokens)


class TestBWT:
    @given(token_seqs.filter(lambda t: len(t) > 0))
    @settings(max_examples=300, deadline=None)
    def test_inversion_recovers_text(self, tokens):
        sa = build_suffix_array(tokens)
        bwt = bwt_from_sa(tokens, sa)
        assert oracles.naive_bwt_inverse(bwt) == tokens

    def test_sentinel_lands_where_sa_is_zero(self):
        tokens = [7, 3, 9]
        sa = build_suffix_array(tokens)
        bwt = bwt_from_sa(tokens, sa)
        assert bwt[sa.index(0)] == SENTINEL_ID
        assert bwt.count(SENTINEL_ID) == 1


def random_case(rng, alphabet=4, length=60):
    return [3 + rng.randrange(alphabet) for _ in range(length)]


class TestBWTIndexReversed:
    """Built over the reversed text; patterns and positions in original order."""

    def test_locate_reports_original_positions(self):
        rng = random.Random(12)
        for _ in range(40):
            text = random_case(rng, alphabet=3, length=rng.randrange(1, 80))
            index = BWTIndex.build(text)
            for _ in range(10):
                m = rng.randrange(1, 5)
                if rng.random() < 0.7 and len(text) >= m:
                    i = rng.randrange(len(text) - m + 1)
                    pattern = text[i : i + m]
                else:
                    pattern = random_case(rng, alphabet=3, length=m)
                lo, hi = helpers.walk_range(index, pattern)
                assert hi - lo == oracles.naive_count(text, pattern)
                assert index.starts(lo, hi, len(pattern)) == oracles.naive_locate(
                    text, pattern
                )

    def test_successors_after_prefix_match_naive(self):
        rng = random.Random(13)
        for _ in range(30):
            text = random_case(rng, alphabet=4, length=rng.randrange(2, 60))
            index = BWTIndex.build(text)
            for _ in range(8):
                m = rng.randrange(0, 4)
                if m == 0:
                    prefix = []
                elif len(text) >= m and rng.random() < 0.8:
                    i = rng.randrange(len(text) - m + 1)
                    prefix = text[i : i + m]
                else:
                    prefix = random_case(rng, alphabet=4, length=m)
                got = index.range_successors(*helpers.walk_range(index, prefix))
                assert got == oracles.naive_successors([text], prefix), (
                    text,
                    prefix,
                )

    @pytest.mark.parametrize(
        "bodies",
        [
            [random_case(random.Random(14), alphabet=3, length=900)],
            [[5]],
            [[4] * 50],
            [[3, 4, 3, 5], [6, 7, 6]],
        ],
        ids=[
            "random-900-tokens",
            "one-token-body",
            "one-repeated-token",
            "two-disjoint-documents",
        ],
    )
    def test_full_range_successors_are_every_symbol(self, bodies):
        # The full range is answered from symbols, not from the BWT rows.
        entries = []
        for i, body in enumerate(bodies):
            doc = Document(f"doc-{i}", (3,), tuple(body))
            index = BWTIndex.build(body)
            buf = io.BytesIO()
            save_index(doc.doc_id, index.sa, buf)
            buf.seek(0)
            loaded = load_index(buf, doc)
            expected = oracles.naive_successors([body], [])
            for idx in (index, loaded):
                assert idx.range_successors(0, len(idx.sa)) == expected
            entries.append((doc.doc_id, loaded))
        state = SubstringConstraint(entries)
        assert state.allowed() == oracles.naive_successors(bodies, [])

    def test_reserved_ids_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            BWTIndex.build([3, 0, 4])

    def test_backward_extend_empty_range_stays_empty(self):
        index = BWTIndex.build([3, 4, 5])
        lo, hi = index.backward_extend(2, 2, 3)
        assert lo >= hi

    def test_absent_symbol_gives_empty_range(self):
        index = BWTIndex.build([3, 4, 5])
        lo, hi = index.backward_extend(0, len(index.sa), 99)
        assert lo >= hi


class TestSubstringConstraint:
    def build_set(self, bodies):
        entries = [
            (f"doc-{i}", BWTIndex.build(body))
            for i, body in enumerate(bodies)
        ]
        return SubstringConstraint(entries)

    def test_initial_successors_are_all_distinct_tokens(self):
        bodies = [[3, 4, 5], [5, 6]]
        state = self.build_set(bodies)
        assert state.allowed() == {3, 4, 5, 6}
        assert helpers.live_doc_ids(state) == ["doc-0", "doc-1"]
        assert not state.is_terminal()

    def test_step_narrows_to_union_of_live_docs(self):
        rng = random.Random(15)
        for _ in range(25):
            bodies = [
                random_case(rng, alphabet=4, length=rng.randrange(2, 40))
                for _ in range(rng.randrange(1, 4))
            ]
            state = self.build_set(bodies)
            assert not state.is_terminal()
            generated = []
            for _ in range(6):
                allowed = state.allowed()
                successors = oracles.naive_successors(bodies, generated)
                assert allowed == (successors or {END_ID})
                if not successors:
                    break
                token = sorted(allowed)[rng.randrange(len(allowed))]
                state = state.step(token)
                assert state.is_terminal()
                generated.append(token)
                # live holds, in entry order, exactly the documents the
                # prefix occurs in, each with a range of its starts, which
                # is nonempty because every expected list is.
                expected = [
                    (f"doc-{i}", starts)
                    for i, body in enumerate(bodies)
                    if (starts := oracles.naive_locate(body, generated))
                ]
                got = [
                    (doc_id, index.starts(lo, hi, len(generated)))
                    for doc_id, index, lo, hi in state.live
                ]
                assert got == expected

    def test_dead_doc_stays_dead(self):
        state = self.build_set([[3, 4], [5, 6]])
        state = state.step(3)
        assert helpers.live_doc_ids(state) == ["doc-0"]
        state = state.step(4)
        assert helpers.live_doc_ids(state) == ["doc-0"]
        # doc-0 is exhausted, so stopping is the only legal move.
        assert state.allowed() == {END_ID}


class TestPersistence:
    def test_roundtrip_behavior(self):
        text = [5, 3, 4, 3, 5, 5, 4]
        index = BWTIndex.build(text)
        buf = io.BytesIO()
        save_index("doc-9", index.sa, buf)
        buf.seek(0)
        loaded = load_index(buf, Document("doc-9", (3,), tuple(text)))
        assert len(loaded.sa) == len(text) + 1
        assert loaded.sa == index.sa and loaded.bwt == index.bwt
        for idx in (index, loaded):
            assert idx.starts(*helpers.walk_range(idx, [3, 5]), 2) == [3]
        assert loaded.range_successors(0, len(loaded.sa)) == set(text)

    def test_save_is_deterministic(self):
        index = BWTIndex.build([4, 4, 3, 5])
        a, b = io.BytesIO(), io.BytesIO()
        save_index("doc-1", index.sa, a)
        save_index("doc-1", index.sa, b)
        assert a.getvalue() == b.getvalue()

    def test_bytes_of_synthetic_fixture_unchanged(self):
        doc = helpers.synthetic_corpus().documents[0]
        buf = io.BytesIO()
        save_index(doc.doc_id, build_suffix_array(doc.body_tokens[::-1]), buf)
        digest = hashlib.sha256(buf.getvalue()).hexdigest()
        assert digest == (
            "7c2d363eaab32de672fddd2e5a571c101d8ebf22b0f78a5be648a52e6f222259"
        )


U32_MAX = 2**32 - 1


def top_id_body(length=300, seed=16):
    rng = random.Random(seed)
    return [rng.choice([3, 4, U32_MAX - 1, U32_MAX]) for _ in range(length)]


class TestArrayBackedIndex:
    """Extreme bodies on the built and the loaded index, against the oracles."""

    @pytest.mark.parametrize(
        "body",
        [[7], [5] * 5000, top_id_body()],
        ids=["one-token", "one-token-5000-times", "holds-2**32-1"],
    )
    def test_built_and_loaded_match_oracles(self, body):
        built = BWTIndex.build(body)
        buf = io.BytesIO()
        save_index("doc-x", built.sa, buf)
        buf.seek(0)
        doc = Document("doc-x", (3,), array("I", body))
        loaded = load_index(buf, doc)
        rng = random.Random(len(body))
        rows = len(body) + 1
        symbols = sorted(set(body)) + [SENTINEL_ID, 6, U32_MAX - 2]
        for index in (built, loaded):
            for name in ("sa", "bwt", "occ", "symbols", "bounds"):
                assert getattr(index, name).typecode == "I", name
            # The BWT spells the reversed body, so the LF oracle reads a
            # checked transform.
            assert oracles.naive_bwt_inverse(list(index.bwt)) == body[::-1]
            ranges = [(0, rows), (0, 0), (rows, rows)] + [
                tuple(sorted(rng.randrange(rows + 1) for _ in range(2)))
                for _ in range(30)
            ]
            for lo, hi in ranges:
                live = set()
                for symbol in symbols:
                    got = index.backward_extend(lo, hi, symbol)
                    want = oracles.naive_backward_extend(index.bwt, lo, hi, symbol)
                    if want is None:
                        assert got[0] >= got[1], (lo, hi, symbol)
                    else:
                        assert got == want, (lo, hi, symbol)
                        live.add(symbol)
                live.discard(SENTINEL_ID)
                assert index.range_successors(lo, hi) == live
            for _ in range(20):
                m = rng.randrange(1, min(4, len(body)) + 1)
                i = rng.randrange(len(body) - m + 1)
                # The body's own pattern, then one that runs past it.
                for pattern in (body[i : i + m], body[i : i + m] + [6]):
                    match = helpers.walk_range(index, pattern)
                    assert index.starts(*match, len(pattern)) == oracles.naive_locate(
                        body, pattern
                    )
                    assert index.range_successors(*match) == oracles.naive_successors(
                        [body], pattern
                    )
            assert index.range_successors(0, rows) == set(body)
