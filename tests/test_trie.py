import hashlib
import io
import json
import random

import pytest

import helpers
import oracles
from passrecall import cli
from passrecall.corpus import END_ID, ingest_corpus
from passrecall.trie import TitleTrie, build_trie, save_trie


def trie_from(titles):
    trie = TitleTrie()
    for i, title in enumerate(titles):
        trie.insert(title, f"doc-{i}")
    return trie


class TestInsert:
    def test_counts_and_depth(self):
        trie = trie_from([(3, 4), (3, 5), (6,)])
        assert trie.max_depth == 2

    def test_empty_title_rejected(self):
        with pytest.raises(ValueError, match="empty title"):
            TitleTrie().insert((), "doc-x")

    def test_duplicate_path_rejected(self):
        trie = trie_from([(3, 4)])
        with pytest.raises(ValueError, match="already"):
            trie.insert((3, 4), "doc-other")

    def test_shared_prefixes_share_nodes(self):
        trie = trie_from([(3, 4, 5), (3, 4, 6)])
        # One path down to 3-4, which holds both leaves.
        assert list(trie.root.children) == [3]
        first = trie.root.children[3]
        assert list(first.children) == [4]
        assert sorted(first.children[4].children) == [5, 6]


class TestAllowedNext:
    def test_root_offers_first_tokens(self):
        trie = trie_from([(3, 4), (5,)])
        assert trie.allowed_next(()) == {3, 5}

    def test_terminal_offers_end(self):
        trie = trie_from([(3,), (3, 4)])
        assert trie.allowed_next((3,)) == {END_ID, 4}

    def test_pure_terminal_offers_only_end(self):
        trie = trie_from([(3, 4)])
        assert trie.allowed_next((3, 4)) == {END_ID}

    def test_off_trie_prefix_offers_nothing(self):
        trie = trie_from([(3, 4)])
        assert trie.allowed_next((9,)) == set()
        assert trie.allowed_next((3, 9)) == set()

    def test_matches_brute_force_on_random_title_sets(self):
        rng = random.Random(4242)
        for _ in range(50):
            titles = set()
            while len(titles) < rng.randrange(1, 12):
                titles.add(
                    tuple(3 + rng.randrange(6) for _ in range(rng.randrange(1, 5)))
                )
            titles = sorted(titles)
            # Titles that prefix one another collide on insert; drop them.
            titles = [
                t
                for t in titles
                if not any(t != u and u[: len(t)] == t for u in titles)
            ]
            trie = trie_from(titles)
            prefixes = {()} | {t[:j] for t in titles for j in range(1, len(t) + 1)}
            prefixes |= {(9, 9), (3,)}
            for prefix in prefixes:
                expected = oracles.naive_title_allowed(titles, prefix)
                assert trie.allowed_next(prefix) == expected, (titles, prefix)


class TestResolve:
    def test_resolves_exact_title(self):
        trie = trie_from([(3, 4), (5,)])
        assert trie.resolve_title((3, 4)) == "doc-0"
        assert trie.resolve_title((5,)) == "doc-1"

    def test_non_terminal_resolves_to_none(self):
        trie = trie_from([(3, 4)])
        assert trie.resolve_title((3,)) is None
        assert trie.resolve_title((3, 9)) is None


class TestBuildFromCorpus:
    def test_titles_become_paths(self):
        corpus = ingest_corpus(
            [
                {"id": "d1", "title": "alpha beta", "text": ["body one"]},
                {"id": "d2", "title": "alpha gamma", "text": ["body two"]},
            ]
        )
        trie = build_trie(corpus)
        first = corpus.document("d1").title_tokens
        assert trie.resolve_title(first) == "d1"


class TestPersistence:
    def test_save_is_deterministic(self):
        trie = trie_from([(5, 6), (3,), (9, 4, 4)])
        a, b = io.BytesIO(), io.BytesIO()
        save_trie(trie, a)
        save_trie(trie, b)
        assert a.getvalue() == b.getvalue()

    def test_bytes_of_synthetic_fixture_unchanged(self):
        buf = io.BytesIO()
        save_trie(build_trie(helpers.synthetic_corpus()), buf)
        digest = hashlib.sha256(buf.getvalue()).hexdigest()
        assert digest == (
            "c51e001402b404f4a4202a3a5fb031749ff76ebe5df538c18b1086cb3f2bf772"
        )

    def test_very_long_title_roundtrips(self, tmp_path):
        # Through build and load: the loaded trie is rebuilt from the titles.
        title = " ".join(f"t{i % 7}" for i in range(5000))
        records = [
            {"id": "long", "title": title, "text": ["body one"]},
            {"id": "short", "title": title[:8], "text": ["body two"]},
        ]
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text(
            "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
        )
        index_dir = str(tmp_path / "artifacts")
        assert cli.main(["build", "--corpus", str(corpus_path), "--out", index_dir]) == 0
        artifacts = cli.load_artifacts(index_dir)
        long_doc, short_doc = artifacts.corpus.documents
        assert short_doc.title_tokens == long_doc.title_tokens[:3]
        assert artifacts.trie.max_depth == 5000
        assert artifacts.trie.resolve_title(long_doc.title_tokens) == "long"
        assert artifacts.trie.resolve_title(short_doc.title_tokens) == "short"
