"""End-to-end acceptance gate.

Eleven checks covering the worked index examples, randomized oracle
equivalence, decode soundness and exhaustive-beam agreement, score
combination behavior, the short-prefix cost claim, synthetic end-to-end
recall quality, hand-computed evaluation numbers, and byte-level
reproducibility.  Each test prints one PASS or FAIL line (run with -s to
see them as they happen).
"""

import contextlib
import filecmp
import json
import random
import time

import helpers
import oracles
from passrecall.cli import main as cli_main
from passrecall.corpus import SENTINEL_ID, PieceCodec, ingest_corpus
from passrecall.decode import (
    BeamConfig,
    SubstringConstraint,
    TrieConstraint,
    constrained_beam_search,
)
from passrecall.evaluation import EvalItem, aggregate, evaluate_item
from passrecall.fmindex import BWTIndex, build_suffix_array
from passrecall.pipeline import (
    RecallEngine,
    combine_scores,
    recall_prefixes,
    recall_titles,
    select_documents,
)
from passrecall.scorer import NGramScorer, corpus_scorer
from passrecall.trie import TitleTrie, build_trie


@contextlib.contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number:02d}] FAIL: {description}")
        raise
    print(f"[criterion {number:02d}] PASS: {description}")


def surfaces(codec, token_ids):
    return {codec.surface(t) for t in token_ids}


def test_criterion_01_bwt_worked_example():
    ids = {"A": 3, "B": 4, "C": 5}
    names = {3: "A", 4: "B", 5: "C", SENTINEL_ID: "$"}
    text = [ids[c] for c in "CABAC"]
    with criterion(1, "BWT of CABAC gives L = C C B A A $ in under 1 ms"):
        best = min(
            _timed(lambda: BWTIndex.build(text))[1]
            for _ in range(5)
        )
        index = BWTIndex.build(text)
        last_column = [names[t] for t in index.bwt]
        assert last_column == ["C", "C", "B", "A", "A", "$"]
        first_column = sorted(last_column)
        assert first_column == ["$", "A", "A", "B", "C", "C"]
        assert best < 0.001, f"build took {best * 1000:.3f} ms"


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_criterion_02_trie_worked_example():
    pieces = [" Testament", "ary", " and", " Covenant", " Trust", " body", " text"]
    codec = PieceCodec(pieces)
    records = [
        {"id": "t1", "title": "Testament and Covenant", "text": ["body text"]},
        {"id": "t2", "title": "Testamentary Trust", "text": ["body text body"]},
    ]
    with criterion(2, "after the piece 'Testament' the trie allows {and, ary}"):
        corpus = ingest_corpus(records, codec=codec)
        trie = build_trie(corpus)
        prefix = codec.encode("Testament")
        assert len(prefix) == 1
        allowed = helpers.walk(TrieConstraint(trie.root), prefix).allowed()
        assert {codec.surface(t).strip() for t in allowed} == {"and", "ary"}


def test_criterion_03_fmindex_successor_example():
    records = [
        {
            "id": "d1",
            "title": "christ figure page",
            "text": ["The christ figure appears in many medieval plays ."],
        },
        {
            "id": "d2",
            "title": "greece warrants page",
            "text": [
                "The Greece G D P warrants are not technically bonds . "
                "The Greece U N seat was contested . "
                "The Greece part of the treaty stands ."
            ],
        },
        {
            "id": "d3",
            "title": "johan painting page",
            "text": ["The Johan painting hangs in a quiet museum hall ."],
        },
    ]
    with criterion(
        3, "successors: 'The' -> {christ, Greece, Johan}; 'The Greece' -> {U, G, part}"
    ):
        corpus = ingest_corpus(records)
        codec = corpus.codec
        entries = [
            (doc.doc_id, BWTIndex.build(doc.body_tokens))
            for doc in corpus.documents
        ]
        state = SubstringConstraint(entries)
        state = state.step(codec.token_id("The"))
        assert surfaces(codec, state.allowed()) == {
            "christ",
            "Greece",
            "Johan",
        }
        state = state.step(codec.token_id("Greece"))
        assert surfaces(codec, state.allowed()) == {"U", "G", "part"}
        assert helpers.live_doc_ids(state) == ["d2"]


def _instance_size(rng, i, total):
    """Mostly small texts, a tail of large ones, the last one maximal."""
    if i == total - 1:
        return 10_000
    if i >= total - 6:
        return rng.randint(1501, 10_000)
    if i >= total - 116:
        return rng.randint(201, 1500)
    return rng.randint(1, 200)


def test_criterion_04_oracle_equivalence_suites():
    total = 1000
    with criterion(
        4, f"{total} randomized instances per oracle suite agree in under 60 s"
    ):
        start = time.perf_counter()

        rng = random.Random(40401)
        for i in range(total):
            n = _instance_size(rng, i, total)
            alphabet = rng.randint(2, 100)
            text = helpers.random_token_text(rng, alphabet, n)
            index = BWTIndex.build(text)
            patterns = [helpers.random_token_text(rng, alphabet, rng.randint(1, 4))]
            pos = rng.randrange(n)
            patterns.append(text[pos : pos + rng.randint(1, min(6, n))])
            for pattern in patterns:
                rng_ = helpers.walk_range(index, pattern)
                assert rng_.hi - rng_.lo == oracles.naive_count(text, pattern)
                assert index.starts(rng_, len(pattern)) == oracles.naive_locate(
                    text, pattern
                )
                got = index.range_successors(rng_)
                assert got == oracles.naive_successors([text], pattern)

        rng = random.Random(40402)
        for i in range(total):
            n = _instance_size(rng, i, total)
            alphabet = rng.randint(2, 100)
            text = helpers.random_token_text(rng, alphabet, n)
            assert build_suffix_array(text) == oracles.naive_suffix_array(text)

        rng = random.Random(40403)
        for _ in range(total):
            alphabet = rng.randint(2, 100)
            titles = {
                tuple(helpers.random_token_text(rng, alphabet, rng.randint(1, 6)))
                for _ in range(rng.randint(1, 40))
            }
            trie = TitleTrie()
            for j, title in enumerate(sorted(titles)):
                trie.insert(title, f"d{j}")
            title_list = sorted(titles)
            probes = []
            for _ in range(3):
                base = title_list[rng.randrange(len(title_list))]
                probes.append(list(base[: rng.randint(0, len(base))]))
            probes.append(helpers.random_token_text(rng, alphabet, rng.randint(1, 3)))
            for probe in probes:
                state = helpers.walk(TrieConstraint(trie.root), probe)
                got = set() if state is None else state.allowed()
                assert got == oracles.naive_title_allowed(title_list, probe)

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"oracle suites took {elapsed:.1f} s"


def _random_scorer(rng, alphabet, streams=6):
    counted = []
    for _ in range(streams):
        stream = helpers.random_token_text(rng, alphabet, rng.randint(3, 20))
        if rng.random() < 0.5:
            stream.append(0)
        counted.append(stream)
    return NGramScorer.from_streams(counted)


def test_criterion_05_decode_soundness():
    rng = random.Random(50500)
    searches = 0
    with criterion(
        5, "500 randomized searches emit only legal sequences, scores recompute to 1e-9"
    ):
        while searches < 250:
            alphabet = rng.randint(2, 12)
            titles = {
                tuple(helpers.random_token_text(rng, alphabet, rng.randint(1, 5)))
                for _ in range(rng.randint(1, 12))
            }
            trie = TitleTrie()
            for j, title in enumerate(sorted(titles)):
                trie.insert(title, f"d{j}")
            scorer = _random_scorer(rng, alphabet)
            prompt = helpers.random_token_text(rng, alphabet, rng.randint(0, 6))
            results = constrained_beam_search(
                scorer,
                prompt,
                TrieConstraint(trie.root),
                BeamConfig(beam_size=rng.randint(1, 8), max_len=trie.max_depth),
            )
            title_list = sorted(titles)
            for result in results:
                assert result.tokens in titles
                expected = oracles.score_sequence(
                    scorer,
                    prompt,
                    result.tokens,
                    lambda p: oracles.naive_title_allowed(title_list, p),
                )
                assert abs(result.score - expected) <= 1e-9
            searches += 1

        while searches < 500:
            alphabet = rng.randint(2, 8)
            bodies = [
                helpers.random_token_text(rng, alphabet, rng.randint(4, 25))
                for _ in range(rng.randint(1, 3))
            ]
            entries = [
                (f"d{j}", BWTIndex.build(body))
                for j, body in enumerate(bodies)
            ]
            scorer = _random_scorer(rng, alphabet)
            prompt = helpers.random_token_text(rng, alphabet, rng.randint(0, 6))
            results = constrained_beam_search(
                scorer,
                prompt,
                SubstringConstraint(entries),
                BeamConfig(beam_size=rng.randint(1, 8), max_len=rng.randint(2, 6)),
            )
            for result in results:
                occurrences = [
                    j
                    for j, body in enumerate(bodies)
                    if oracles.naive_locate(body, result.tokens)
                ]
                assert occurrences, "emitted prefix absent from every document"
                live = helpers.live_doc_ids(result.constraint)
                assert live == [f"d{j}" for j in occurrences]
                expected = oracles.score_sequence(
                    scorer,
                    prompt,
                    result.tokens,
                    lambda p: oracles.naive_successors(bodies, p),
                )
                assert abs(result.score - expected) <= 1e-9
            searches += 1
        assert searches == 500


def test_criterion_06_exhaustive_beam_equivalence():
    rng = random.Random(60600)
    checked_title = checked_substring = 0
    with criterion(
        6, "beam ranking equals exhaustive scoring when legal sequences number <= 64"
    ):
        while checked_title < 15:
            alphabet = rng.randint(2, 10)
            titles = {
                tuple(helpers.random_token_text(rng, alphabet, rng.randint(1, 4)))
                for _ in range(rng.randint(1, 30))
            }
            if len(titles) > 64:
                continue
            trie = TitleTrie()
            for j, title in enumerate(sorted(titles)):
                trie.insert(title, f"d{j}")
            scorer = _random_scorer(rng, alphabet)
            prompt = helpers.random_token_text(rng, alphabet, rng.randint(0, 4))
            results = constrained_beam_search(
                scorer,
                prompt,
                TrieConstraint(trie.root),
                BeamConfig(beam_size=64, max_len=trie.max_depth),
            )
            title_list = sorted(titles)
            expected = sorted(
                (
                    -oracles.score_sequence(
                        scorer,
                        prompt,
                        title,
                        lambda p: oracles.naive_title_allowed(title_list, p),
                    ),
                    title,
                )
                for title in titles
            )[:64]
            assert [(r.tokens, r.score) for r in results] == [
                (tokens, -neg) for neg, tokens in expected
            ]
            checked_title += 1

        while checked_substring < 15:
            alphabet = rng.randint(2, 4)
            bodies = [
                helpers.random_token_text(rng, alphabet, rng.randint(3, 8))
                for _ in range(rng.randint(1, 2))
            ]
            max_len = rng.randint(2, 3)
            finishers = oracles.enumerate_substring_finishers(bodies, max_len)
            if not finishers or len(finishers) > 64:
                continue
            entries = [
                (f"d{j}", BWTIndex.build(body))
                for j, body in enumerate(bodies)
            ]
            scorer = _random_scorer(rng, alphabet)
            prompt = helpers.random_token_text(rng, alphabet, rng.randint(0, 4))
            results = constrained_beam_search(
                scorer,
                prompt,
                SubstringConstraint(entries),
                BeamConfig(beam_size=64, max_len=max_len),
            )
            expected = sorted(
                (
                    -oracles.score_sequence(
                        scorer,
                        prompt,
                        seq,
                        lambda p: oracles.naive_successors(bodies, p),
                    ),
                    seq,
                )
                for seq in finishers
            )[:64]
            assert [(r.tokens, r.score) for r in results] == [
                (tokens, -neg) for neg, tokens in expected
            ]
            checked_substring += 1


def test_criterion_07_weighted_combination():
    with criterion(
        7, "alpha boundaries reduce to single-stage rankings; 0.9*-1.0+0.1*-2.0 == -1.1"
    ):
        assert combine_scores(-1.0, -2.0, 0.9) == -1.1
        corpus = helpers.synthetic_corpus(num_docs=8, body_len=120, seed=5)
        trie, indexes = helpers.build_artifacts(corpus)
        scorer = corpus_scorer(corpus)
        queries = [q for q, _ in helpers.excerpt_queries(
            corpus, count=5, excerpt_len=15, seed=6
        )]
        for alpha, stage_field in ((0.0, "score2"), (1.0, "score1")):
            config = helpers.plain_config(
                alpha=alpha, prefix_len=8, passage_len=40
            )
            engine = RecallEngine(corpus, trie, indexes, scorer, config)
            for query in queries:
                references = engine.recall(query)
                assert references
                ranking = [(r.doc_id, r.start) for r in references]
                stage_only = [
                    (r.doc_id, r.start)
                    for r in sorted(
                        references,
                        key=lambda r: (-getattr(r, stage_field), r.doc_id, r.start),
                    )
                ]
                assert ranking == stage_only


def test_criterion_08_short_prefix_cost_ratio():
    with criterion(
        8, "short 16-token prefixes cost >= 8x fewer scorer calls than 150-token decodes"
    ):
        start = time.perf_counter()
        corpus = helpers.synthetic_corpus(num_docs=50, body_len=600, seed=88)
        trie, indexes = helpers.build_artifacts(corpus)
        base = corpus_scorer(corpus)
        queries = helpers.excerpt_queries(
            corpus, count=5, excerpt_len=20, tail_margin=200, seed=8
        )
        short_config = helpers.plain_config(prefix_len=16, passage_len=150)
        full_config = helpers.plain_config(prefix_len=150, passage_len=150)

        short_calls = full_calls = 0
        counting = helpers.CountingScorer(base)
        for query, _ in queries:
            stage1 = recall_titles(query, corpus, trie, base, short_config)
            selected = select_documents(stage1, short_config.k)
            counting.reset()
            assert recall_prefixes(
                query, selected, indexes, corpus, counting, short_config
            )
            short_calls += counting.reset()
            assert recall_prefixes(
                query, selected, indexes, corpus, counting, full_config
            )
            full_calls += counting.reset()

        elapsed = time.perf_counter() - start
        ratio = full_calls / short_calls
        assert ratio >= 8.0, f"call ratio only {ratio:.2f}"
        assert elapsed < 120.0, f"comparison took {elapsed:.1f} s"


def test_criterion_09_end_to_end_synthetic_recall():
    with criterion(
        9, "100 excerpt queries over 50 docs: top-1 page precision 1.00, passages verbatim"
    ):
        start = time.perf_counter()
        corpus = helpers.synthetic_corpus()
        trie, indexes = helpers.build_artifacts(corpus)
        scorer = corpus_scorer(corpus)
        engine = RecallEngine(
            corpus, trie, indexes, scorer, helpers.plain_config()
        )
        queries = helpers.excerpt_queries(corpus)
        assert len(queries) == 100
        hits = 0
        for query, source_doc in queries:
            references = engine.recall(query)
            assert references
            hits += references[0].doc_id == source_doc
            for ref in references:
                body = corpus.document(ref.doc_id).body_tokens
                passage = body[ref.start : ref.start + 150]
                assert ref.passage_text == corpus.codec.decode(passage)
        r_precision_top1 = hits / len(queries)
        elapsed = time.perf_counter() - start
        assert r_precision_top1 == 1.00, f"top-1 precision {r_precision_top1:.2f}"
        assert elapsed < 300.0, f"end-to-end run took {elapsed:.1f} s"


def test_criterion_10_evaluation_fixture():
    fixture = [
        # (gold_provenance, gold_answers, predicted_doc_ids, top_passage)
        (("p1",), ("18",), ["p1", "p2"], "the marriage age in Australia is 18 years"),
        (("p2",), ("YG Entertainment",), ["p9", "p2"], "signed under yg entertainment in Seoul"),
        (("p3", "p4"), ("paris",), ["p3", "p9", "p4"], "the seat moved to berlin in spring"),
        (("p5",), (), ["p5"], "whatever text came back"),
        ((), ("blue whale",), ["p1"], "records name the Blue Whale, largest of all"),
        (("p6",), ("mercury",), [], ""),
        (("p7",), ("seven",), ["p7", "p7", "p8"], "seven samurai defend the village"),
        (("p8",), ("1970",), ["p1"], "he was born in 1970, in a small town"),
        (("p9", "p8"), ("absent",), ["p8", "p9"], "nothing of note appears here"),
    ]
    with criterion(
        10, "hand-computed 9-item figures: page metric 56.25, passage metric 62.50"
    ):
        results = [
            evaluate_item(
                EvalItem("q%d" % i, provenance, answers), predicted, passage
            )
            for i, (provenance, answers, predicted, passage) in enumerate(fixture)
        ]
        per_item_rp = [r.r_precision for r in results]
        assert per_item_rp == [1.0, 0.0, 0.5, 1.0, None, 0.0, 1.0, 0.0, 1.0]
        per_item_ic = [r.in_context for r in results]
        assert per_item_ic == [True, True, False, None, True, False, True, True, False]
        report = aggregate(results)
        assert report.r_precision_mean == 56.25
        assert report.in_context_rate == 62.50


def test_criterion_11_reproducible_builds_and_runs(tmp_path):
    records = helpers.synthetic_records(num_docs=6, body_len=80, seed=12)
    corpus_path = tmp_path / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    corpus = ingest_corpus(records)
    queries_path = tmp_path / "queries.txt"
    queries_path.write_text(
        "".join(
            f"{q}\n"
            for q, _ in helpers.excerpt_queries(
                corpus, count=3, excerpt_len=12, tail_margin=25, seed=11
            )
        ),
        encoding="utf-8",
    )
    with criterion(11, "build twice and recall twice are byte-identical"):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for out in dirs:
            code = cli_main(
                ["build", "--corpus", str(corpus_path), "--out", str(out)]
            )
            assert code == 0
        names = helpers.tree_files(dirs[0])
        assert names and names == helpers.tree_files(dirs[1])
        match, mismatch, errors = filecmp.cmpfiles(
            dirs[0], dirs[1], names, shallow=False
        )
        assert mismatch == [] and errors == []
        assert len(match) == len(names)

        outputs = [tmp_path / "run1.jsonl", tmp_path / "run2.jsonl"]
        for out in outputs:
            code = cli_main(
                [
                    "recall",
                    "--index-dir",
                    str(dirs[0]),
                    "--queries",
                    str(queries_path),
                    "--output",
                    str(out),
                ]
            )
            assert code == 0
        first = outputs[0].read_bytes()
        second = outputs[1].read_bytes()
        assert first == second and first
