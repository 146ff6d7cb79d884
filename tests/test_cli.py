import filecmp
import hashlib
import io
import json
import logging
import os
import random
import shutil
import subprocess
import sys
from array import array
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
from passrecall import cli
from passrecall.cli import main, run_recall_batch
from passrecall.corpus import (
    FIRST_ID,
    PieceCodec,
    WordCodec,
    ingest_corpus,
    load_corpus,
    save_corpus,
)
from passrecall.fmindex import build_suffix_array, save_index
from passrecall.pipeline import DeadEndError
from passrecall.scorer import STAGE_ONE, STAGE_TWO, corpus_scorer, default_templates
from passrecall.storage import FORMAT_VERSION, MAGIC
from passrecall.trie import build_trie, save_trie

REFERENCE_KEYS = {
    "doc_id",
    "title",
    "start",
    "passage_text",
    "score1",
    "score2",
    "combined",
}
METADATA_KEYS = {
    "artifact_digest",
    "config",
    "document_count",
    "scorer",
    "tool_version",
}


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A built artifact directory plus query and gold files."""
    root = tmp_path_factory.mktemp("cli")
    records = helpers.synthetic_records(num_docs=6, body_len=80, seed=12)
    corpus_path = root / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")

    index_dir = root / "artifacts"
    code = run_cli(
        ["build", "--corpus", str(corpus_path), "--out", str(index_dir)]
    )
    assert code == 0

    corpus = ingest_corpus(records)
    queries = helpers.excerpt_queries(
        corpus, count=3, excerpt_len=12, tail_margin=25, seed=11
    )
    queries_path = root / "queries.txt"
    queries_path.write_text(
        "".join(f"{text}\n" for text, _ in queries), encoding="utf-8"
    )
    gold_path = root / "gold.jsonl"
    with open(gold_path, "w", encoding="utf-8") as fh:
        for text, doc_id in queries:
            row = {
                "query": text,
                "gold_provenance": [doc_id],
                "gold_answers": [text.split()[0]],
            }
            fh.write(json.dumps(row) + "\n")
    return {
        "root": root,
        "records": records,
        "corpus": corpus,
        "corpus_path": str(corpus_path),
        "index_dir": str(index_dir),
        "queries_path": str(queries_path),
        "queries": queries,
        "gold_path": str(gold_path),
    }


PLAIN_TEMPLATES = ("--stage1-template", "{}", "--stage2-template", "{}")


@pytest.fixture(scope="module")
def excerpts(tmp_path_factory):
    """Artifacts for 30 synthetic documents and one excerpt query from each
    of the first 20, laid out like ``workspace``."""
    root = tmp_path_factory.mktemp("excerpts")
    records = helpers.synthetic_records(num_docs=30, body_len=120, seed=5)
    corpus_path = root / "corpus.jsonl"
    corpus_path.write_text(
        "".join(json.dumps(record) + "\n" for record in records), encoding="utf-8"
    )
    index_dir = root / "artifacts"
    code = run_cli(["build", "--corpus", str(corpus_path), "--out", str(index_dir)])
    assert code == 0
    corpus = ingest_corpus(records)
    queries_path = root / "queries.txt"
    queries_path.write_text(
        "".join(
            corpus.codec.decode(doc.body_tokens[20:40]) + "\n"
            for doc in corpus.documents[:20]
        ),
        encoding="utf-8",
    )
    return {"index_dir": str(index_dir), "queries_path": str(queries_path)}


def recall_to(workspace, out_path, *extra):
    code = run_cli(
        [
            "recall",
            "--index-dir",
            workspace["index_dir"],
            "--queries",
            workspace["queries_path"],
            "--output",
            str(out_path),
            *extra,
        ]
    )
    assert code == 0
    return str(out_path)


def copy_artifacts(workspace, tmp_path):
    index_dir = str(tmp_path / "artifacts")
    shutil.copytree(workspace["index_dir"], index_dir)
    return index_dir


def recall_code(index_dir, workspace):
    return run_cli(
        [
            "recall",
            "--index-dir",
            index_dir,
            "--queries",
            workspace["queries_path"],
            "--output",
            os.devnull,
        ]
    )


def read_artifacts(index_dir):
    with open(os.path.join(index_dir, "artifacts.bin"), "rb") as fh:
        return bytearray(fh.read())


def write_artifacts(index_dir, data):
    """Replace artifacts.bin and record its digest, as a build would."""
    with open(os.path.join(index_dir, "artifacts.bin"), "wb") as fh:
        fh.write(data)
    manifest_path = os.path.join(index_dir, "manifest.json")
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["artifact_digest"] = hashlib.sha256(data).hexdigest()
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)


def section_starts(data, workspace):
    """Offsets of the corpus, trie and per-document index sections."""
    header = MAGIC + FORMAT_VERSION.to_bytes(4, "little")
    starts = [0]
    while len(starts) < 2 + len(workspace["corpus"].documents):
        starts.append(data.index(header, starts[-1] + 1))
    return starts


def id_field(doc_id):
    """A document id as a section stores it: u64 length, then UTF-8."""
    raw = doc_id.encode("utf-8")
    return len(raw).to_bytes(8, "little") + raw


def rewrite_corpus(index_dir, workspace, edit):
    """Replace the corpus section with ``edit`` applied to a fresh load of
    it, under a matching digest.  The trie section becomes the trie of the
    edited titles when they make one, and each index section carries its
    document's edited id, and is rebuilt over the edited body when the
    body's length changed, so only a check on the corpus itself can reject
    the result."""
    data = read_artifacts(index_dir)
    starts = section_starts(data, workspace)
    trie_start, index_start = starts[1:3]
    corpus = load_corpus(io.BytesIO(bytes(data)))
    old = [(doc.doc_id, len(doc.body_tokens)) for doc in corpus.documents]
    edit(corpus)
    # Last section first, so that earlier offsets stay put.  The id follows
    # the 12-byte section header.
    bounds = zip(starts[2:], starts[3:] + [len(data)])
    for (start, end), (old_id, old_len), doc in reversed(
        list(zip(bounds, old, corpus.documents))
    ):
        if len(doc.body_tokens) != old_len:
            section = io.BytesIO()
            save_index(doc.doc_id, build_suffix_array(doc.body_tokens[::-1]), section)
            data[start:end] = section.getvalue()
            continue
        field = id_field(old_id)
        assert data[start + 12 : start + 12 + len(field)] == field
        data[start + 12 : start + 12 + len(field)] = id_field(doc.doc_id)
    sections = io.BytesIO()
    save_corpus(corpus, sections)
    try:
        save_trie(build_trie(corpus), sections)
    except ValueError:  # empty or repeated titles make no trie
        sections.write(data[trie_start:index_start])
    data[:index_start] = sections.getvalue()
    write_artifacts(index_dir, data)


def set_title(doc_index, tokens):
    def edit(corpus):
        corpus.documents[doc_index].title_tokens = tokens(corpus)

    return edit


def set_doc_id(doc_index, other_index):
    def edit(corpus):
        corpus.documents[doc_index].doc_id = corpus.documents[other_index].doc_id

    return edit


def repeat_surface(codec_cls):
    """Save the vocabulary as ``codec_cls``'s, with one surface that no
    title uses replaced by another such surface."""

    def edit(corpus):
        surfaces = corpus.codec.surfaces()
        in_titles = {t for doc in corpus.documents for t in doc.title_tokens}
        first, second = [
            i for i in range(len(surfaces)) if i + FIRST_ID not in in_titles
        ][:2]
        surfaces[second] = surfaces[first]
        corpus.codec = SimpleNamespace(
            kind=codec_cls.kind, policy=codec_cls.policy, surfaces=lambda: surfaces
        )

    return edit


def set_body(doc_index, tokens):
    def edit(corpus):
        corpus.documents[doc_index].body_tokens = array("I", tokens)

    return edit


def set_body_token(value):
    def edit(corpus):
        corpus.documents[0].body_tokens[3] = value(corpus)

    return edit


def read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestBuild:
    def test_creates_artifacts_and_manifest(self, workspace):
        index_dir = workspace["index_dir"]
        assert helpers.tree_files(index_dir) == ["artifacts.bin", "manifest.json"]
        with open(os.path.join(index_dir, "manifest.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        digest = hashlib.sha256(read_artifacts(index_dir)).hexdigest()
        assert manifest == {"artifact_digest": digest, "format_version": 4}

    def test_build_reports_counts(self, workspace, tmp_path, capsys):
        out = tmp_path / "again"
        assert run_cli(
            ["build", "--corpus", workspace["corpus_path"], "--out", str(out)]
        ) == 0
        printed = capsys.readouterr().out
        assert "documents: 6" in printed
        assert "artifact bytes:" in printed

    def test_rebuild_is_byte_identical(self, workspace, tmp_path):
        first = tmp_path / "one"
        second = tmp_path / "two"
        for out in (first, second):
            assert run_cli(
                ["build", "--corpus", workspace["corpus_path"], "--out", str(out)]
            ) == 0
        names = helpers.tree_files(first)
        assert names and names == helpers.tree_files(second)
        match, mismatch, errors = filecmp.cmpfiles(
            first, second, names, shallow=False
        )
        assert mismatch == [] and errors == []
        assert len(match) == len(names)

    # sha256 of the whole artifacts.bin.  The second corpus draws from six
    # words per document, so its bodies repeat long runs of tokens.  Any
    # change to what build writes, or a Python version that writes other
    # bytes, changes these.
    @pytest.mark.parametrize(
        "kwargs, digest",
        [
            (
                {"num_docs": 6, "body_len": 80, "seed": 12},
                "597e455bf531d93d42fd4bd153776a4cd81bc15b0dba7022dbe294aef4afa1ed",
            ),
            (
                {"num_docs": 12, "body_len": 150, "pool_size": 6, "seed": 17},
                "95ca5269da6fe911fd321e111dcfb6642431948fb76abf0105e9012bbd9380fe",
            ),
        ],
        ids=["six-docs", "six-word-pools"],
    )
    def test_artifacts_are_pinned(self, tmp_path, kwargs, digest):
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text(
            "".join(
                json.dumps(record) + "\n"
                for record in helpers.synthetic_records(**kwargs)
            ),
            encoding="utf-8",
        )
        index_dir = str(tmp_path / "artifacts")
        assert run_cli(["build", "--corpus", str(corpus_path), "--out", index_dir]) == 0
        assert hashlib.sha256(read_artifacts(index_dir)).hexdigest() == digest

    def test_missing_corpus_file_is_a_data_error(self, tmp_path):
        code = run_cli(
            ["build", "--corpus", str(tmp_path / "absent.jsonl"), "--out", str(tmp_path / "o")]
        )
        assert code == 2


BAD_UTF8 = b"\xff\xfe not utf-8\n"


def _non_utf8_manifest(workspace, tmp_path):
    index_dir = copy_artifacts(workspace, tmp_path)
    with open(os.path.join(index_dir, "manifest.json"), "wb") as fh:
        fh.write(BAD_UTF8)
    return ["recall", "--index-dir", index_dir, "--queries", workspace["queries_path"]]


def _non_utf8_queries(workspace, tmp_path):
    (tmp_path / "queries.txt").write_bytes(BAD_UTF8)
    return ["recall", "--index-dir", workspace["index_dir"],
            "--queries", str(tmp_path / "queries.txt")]


def _non_utf8_corpus(workspace, tmp_path):
    (tmp_path / "corpus.jsonl").write_bytes(BAD_UTF8)
    return ["build", "--corpus", str(tmp_path / "corpus.jsonl"),
            "--out", str(tmp_path / "out")]


def _non_utf8_gold(workspace, tmp_path):
    (tmp_path / "recall.jsonl").write_text('{"metadata": {}}\n', encoding="utf-8")
    (tmp_path / "gold.jsonl").write_bytes(BAD_UTF8)
    return ["evaluate", "--recall-output", str(tmp_path / "recall.jsonl"),
            "--gold", str(tmp_path / "gold.jsonl")]


def _non_utf8_config(workspace, tmp_path):
    (tmp_path / "conf.json").write_bytes(BAD_UTF8)
    return ["recall", "--index-dir", workspace["index_dir"],
            "--queries", workspace["queries_path"],
            "--config", str(tmp_path / "conf.json")]


def _queries_is_a_directory(workspace, tmp_path):
    return ["recall", "--index-dir", workspace["index_dir"],
            "--queries", str(tmp_path)]


def _output_in_missing_directory(workspace, tmp_path):
    return ["recall", "--index-dir", workspace["index_dir"],
            "--queries", workspace["queries_path"],
            "--output", str(tmp_path / "missing" / "out.jsonl")]


@pytest.mark.parametrize(
    "make_argv",
    [
        _non_utf8_manifest,
        _non_utf8_queries,
        _non_utf8_corpus,
        _non_utf8_gold,
        _non_utf8_config,
        _queries_is_a_directory,
        _output_in_missing_directory,
    ],
    ids=lambda make_argv: make_argv.__name__.strip("_").replace("_", "-"),
)
def test_unreadable_input_is_a_data_error(workspace, tmp_path, capsys, make_argv):
    assert run_cli(make_argv(workspace, tmp_path)) == 2
    assert "Traceback" not in capsys.readouterr().err


def _bom_copy(source, target, bom):
    with open(source, "rb") as fh:
        target.write_bytes(bom + fh.read())
    return str(target)


def _bom_corpus(workspace, folder, bom):
    corpus = _bom_copy(workspace["corpus_path"], folder / "corpus.jsonl", bom)
    return ["build", "--corpus", corpus, "--out", str(folder / "out")]


def _bom_gold(workspace, folder, bom):
    gold = _bom_copy(workspace["gold_path"], folder / "gold.jsonl", bom)
    recall_output = recall_to(workspace, folder / "recall.jsonl")
    return ["evaluate", "--recall-output", recall_output, "--gold", gold]


def _bom_config(workspace, folder, bom):
    (folder / "conf.json").write_bytes(bom + b'{"k": 1}')
    return ["recall", "--index-dir", workspace["index_dir"],
            "--queries", workspace["queries_path"],
            "--config", str(folder / "conf.json")]


def _bom_recall_output(workspace, folder, bom):
    recall_output = recall_to(workspace, folder / "plain.jsonl")
    recall_output = _bom_copy(recall_output, folder / "recall.jsonl", bom)
    return ["evaluate", "--recall-output", recall_output,
            "--gold", workspace["gold_path"]]


@pytest.mark.parametrize(
    "make_argv",
    [_bom_corpus, _bom_gold, _bom_config, _bom_recall_output],
    ids=lambda make_argv: make_argv.__name__.strip("_").replace("_", "-"),
)
def test_leading_byte_order_mark_is_ignored(workspace, tmp_path, capsys, make_argv):
    # Some editors start a UTF-8 text file with the byte order mark.
    outputs = []
    for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        folder = tmp_path / name
        folder.mkdir()
        assert run_cli(make_argv(workspace, folder, bom)) == 0
        written = [
            (path, (folder / "out" / path).read_bytes())
            for path in helpers.tree_files(folder / "out")
        ]
        outputs.append((capsys.readouterr().out, written))
    assert outputs[0] == outputs[1]


# One line nested far deeper than the JSON decoder's recursion limit.
DEEPLY_NESTED = "[" * 200_000 + "]" * 200_000


def _recall_argv(index_dir, workspace, tmp_path, *extra):
    return ["recall", "--index-dir", index_dir,
            "--queries", workspace["queries_path"],
            "--output", str(tmp_path / "never.jsonl"), *extra]


def _nested_corpus(workspace, tmp_path, monkeypatch):
    (tmp_path / "corpus.jsonl").write_text(DEEPLY_NESTED + "\n", encoding="utf-8")
    return ["build", "--corpus", str(tmp_path / "corpus.jsonl"),
            "--out", str(tmp_path / "out")]


def _nested_gold(workspace, tmp_path, monkeypatch):
    (tmp_path / "recall.jsonl").write_text('{"metadata": {}}\n', encoding="utf-8")
    (tmp_path / "gold.jsonl").write_text(DEEPLY_NESTED + "\n", encoding="utf-8")
    return ["evaluate", "--recall-output", str(tmp_path / "recall.jsonl"),
            "--gold", str(tmp_path / "gold.jsonl")]


def _nested_recall_output(workspace, tmp_path, monkeypatch):
    (tmp_path / "recall.jsonl").write_text(DEEPLY_NESTED + "\n", encoding="utf-8")
    return ["evaluate", "--recall-output", str(tmp_path / "recall.jsonl"),
            "--gold", workspace["gold_path"]]


def _nested_config(workspace, tmp_path, monkeypatch):
    (tmp_path / "conf.json").write_text(DEEPLY_NESTED, encoding="utf-8")
    return _recall_argv(workspace["index_dir"], workspace, tmp_path,
                        "--config", str(tmp_path / "conf.json"))


def _nested_manifest(workspace, tmp_path, monkeypatch):
    index_dir = copy_artifacts(workspace, tmp_path)
    with open(os.path.join(index_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(DEEPLY_NESTED)
    return _recall_argv(index_dir, workspace, tmp_path)


def _nested_scorer_reply(workspace, tmp_path, monkeypatch):
    # A canned reply in place of the HTTP exchange: no server, no thread.
    import requests

    def post(self, url, **kwargs):
        response = requests.Response()
        response.status_code = 200
        response.encoding = "utf-8"
        response._content = DEEPLY_NESTED.encode("utf-8")
        return response

    monkeypatch.setattr(requests.Session, "post", post)
    return _recall_argv(workspace["index_dir"], workspace, tmp_path,
                        "--scorer", "remote", "--endpoint", "http://127.0.0.1:9/score")


@pytest.mark.parametrize(
    "make_argv",
    [
        _nested_corpus,
        _nested_gold,
        _nested_recall_output,
        _nested_config,
        _nested_manifest,
        _nested_scorer_reply,
    ],
    ids=lambda make_argv: make_argv.__name__.strip("_").replace("_", "-"),
)
def test_deeply_nested_json_is_a_data_error(
    workspace, tmp_path, monkeypatch, capsys, make_argv
):
    assert run_cli(make_argv(workspace, tmp_path, monkeypatch)) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "never.jsonl").exists()


# -1e400 parses as -inf; -1e308 is finite, but two steps overflow the sum.
@pytest.mark.parametrize("logprob", ["-1e400", "-1e308"])
def test_non_finite_score_is_a_data_error(
    workspace, tmp_path, monkeypatch, caplog, capsys, logprob
):
    # A canned reply in place of the HTTP exchange: no server, no thread.
    import requests

    def post(self, url, **kwargs):
        answers = ", ".join(f'"{c}": {logprob}' for c in kwargs["json"]["candidates"])
        response = requests.Response()
        response.status_code = 200
        response.encoding = "utf-8"
        response._content = ('{"logprobs": {' + answers + "}}").encode("utf-8")
        return response

    monkeypatch.setattr(requests.Session, "post", post)
    argv = _recall_argv(workspace["index_dir"], workspace, tmp_path,
                        "--scorer", "remote", "--endpoint", "http://127.0.0.1:9/score")
    with caplog.at_level(logging.ERROR, logger="passrecall.cli"):
        assert run_cli(argv) == 2
    assert "Traceback" not in capsys.readouterr().err
    first_query = workspace["queries"][0][0]
    assert any(repr(first_query) in message for message in caplog.messages)
    assert not (tmp_path / "never.jsonl").exists()


class TestRecall:
    def test_output_schema(self, workspace, tmp_path):
        path = recall_to(workspace, tmp_path / "out.jsonl")
        lines = read_lines(path)
        assert set(lines[0]) == {"metadata"}
        metadata = lines[0]["metadata"]
        assert set(metadata) == METADATA_KEYS
        assert metadata["scorer"] == {"type": "ngram", "order": 3}
        assert metadata["document_count"] == 6
        records = lines[1:]
        assert [r["query"] for r in records] == [q for q, _ in workspace["queries"]]
        for record in records:
            assert set(record) == {"query", "references"}
            assert record["references"], record["query"]
            for ref in record["references"]:
                assert set(ref) == REFERENCE_KEYS

    def test_byte_order_mark_is_not_part_of_the_first_query(self, workspace, tmp_path):
        # Some editors start a UTF-8 text file with the byte order mark.
        queries_path = tmp_path / "queries.txt"
        with open(workspace["queries_path"], "rb") as fh:
            queries_path.write_bytes(b"\xef\xbb\xbf" + fh.read())
        path = recall_to(
            {**workspace, "queries_path": str(queries_path)}, tmp_path / "out.jsonl"
        )
        records = read_lines(path)[1:]
        assert [r["query"] for r in records] == [q for q, _ in workspace["queries"]]
        evaluate = ["evaluate", "--recall-output", path, "--gold", workspace["gold_path"]]
        assert run_cli(evaluate) == 0

    def test_stdout_by_default(self, workspace, capsys):
        code = run_cli(
            [
                "recall",
                "--index-dir",
                workspace["index_dir"],
                "--queries",
                workspace["queries_path"],
            ]
        )
        assert code == 0
        out_lines = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        ]
        assert "metadata" in out_lines[0]
        assert len(out_lines) == 1 + len(workspace["queries"])

    def test_config_file_overridden_by_flags(self, workspace, tmp_path):
        config_path = tmp_path / "conf.json"
        config_path.write_text(
            json.dumps({"alpha": 0.5, "k": 3}), encoding="utf-8"
        )
        path = recall_to(
            workspace,
            tmp_path / "out.jsonl",
            "--config",
            str(config_path),
            "--alpha",
            "0.7",
        )
        config = read_lines(path)[0]["metadata"]["config"]
        assert config["alpha"] == 0.7
        assert config["k"] == 3

    def test_task_selects_templates_and_flags_override(self, workspace, tmp_path):
        path = recall_to(workspace, tmp_path / "qa.jsonl", "--task", "qa")
        config = read_lines(path)[0]["metadata"]["config"]
        assert config["stage1_template"].startswith("Question:")
        assert "Title:" in config["stage1_template"]
        assert "Answer:" in config["stage2_template"]

        path = recall_to(
            workspace,
            tmp_path / "custom.jsonl",
            "--task",
            "qa",
            "--stage1-template",
            "find the page for {}",
        )
        config = read_lines(path)[0]["metadata"]["config"]
        assert config["stage1_template"] == "find the page for {}"
        assert "Answer:" in config["stage2_template"]

    def test_default_templates_tell_excerpts_apart(self, excerpts, tmp_path):
        path = recall_to(excerpts, tmp_path / "out.jsonl")
        lines = read_lines(path)
        tops = [r["references"][0]["doc_id"] for r in lines[1:] if r["references"]]
        assert len(set(tops)) >= 19, tops
        config = lines[0]["metadata"]["config"]
        assert config["stage1_template"] == config["stage2_template"] == "{}"

    def test_config_file_task_keeps_its_templates(self, workspace, tmp_path):
        config_path = tmp_path / "conf.json"
        config_path.write_text(json.dumps({"task": "qa"}), encoding="utf-8")
        path = recall_to(
            workspace, tmp_path / "out.jsonl", "--config", str(config_path)
        )
        config = read_lines(path)[0]["metadata"]["config"]
        assert config["stage1_template"].startswith("Question:")
        assert "Answer:" in config["stage2_template"]

    # sha256 of everything after the header line.  Any change to how the
    # scorer counts or computes a float shows here.
    @pytest.mark.parametrize(
        "flags, digest",
        [
            (
                PLAIN_TEMPLATES,
                "9d49f189b54e436b4191032b982fec8e673fe1e3381f9ee8dd18d1d896555638",
            ),
            (
                ("--task", "qa"),
                "72ec8e8b318ec313bed480c3e8dec7d7c1e62242b65ff2b88cd363157ed83d47",
            ),
            (
                PLAIN_TEMPLATES + ("--rescore-full-passage", "--k", "3"),
                "b774ef23870332c8bc68b341012501b02e70b9089cb3c2426e38ba5a66237d3c",
            ),
        ],
        ids=["plain", "qa", "plain-rescore-k3"],
    )
    def test_record_lines_are_pinned(self, excerpts, tmp_path, flags, digest):
        path = recall_to(excerpts, tmp_path / "out.jsonl", *flags)
        with open(path, "rb") as fh:
            fh.readline()
            assert hashlib.sha256(fh.read()).hexdigest() == digest

    def test_metadata_carries_no_run_timing(self, workspace, tmp_path):
        first = recall_to(workspace, tmp_path / "a.jsonl")
        second = recall_to(workspace, tmp_path / "b.jsonl")
        with open(first, encoding="utf-8") as a, open(second, encoding="utf-8") as b:
            assert a.read() == b.read()

    def test_dead_end_query_reports_empty_references(self, caplog):
        class FallingOver:
            def recall(self, query):
                if query == "doomed":
                    raise DeadEndError("no title could be generated")
                return []

        with caplog.at_level(logging.WARNING, logger="passrecall.cli"):
            records = run_recall_batch(FallingOver(), ["fine", "doomed"])
        assert records == [
            {"query": "fine", "references": []},
            {"query": "doomed", "references": []},
        ]
        assert any("doomed" in message for message in caplog.messages)

    def test_missing_artifacts_is_a_data_error(self, workspace, tmp_path):
        code = run_cli(
            [
                "recall",
                "--index-dir",
                str(tmp_path / "nowhere"),
                "--queries",
                workspace["queries_path"],
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: ["not", "an", "object"],
            lambda m: {k: v for k, v in m.items() if k != "artifact_digest"},
            lambda m: {**m, "artifact_digest": 7},
            lambda m: {k: v for k, v in m.items() if k != "format_version"},
            lambda m: {**m, "format_version": 1},
            lambda m: {**m, "format_version": 2},
            lambda m: {**m, "format_version": 3},
        ],
        ids=[
            "not-object",
            "no-artifact-digest",
            "int-artifact-digest",
            "no-format-version",
            "format-version-1",
            "format-version-2",
            "format-version-3",
        ],
    )
    def test_malformed_manifest_is_a_data_error(self, workspace, tmp_path, edit):
        index_dir = copy_artifacts(workspace, tmp_path)
        manifest_path = os.path.join(index_dir, "manifest.json")
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(edit(manifest), fh)
        assert recall_code(index_dir, workspace) == 2

    @pytest.mark.parametrize("name", ["artifacts.bin", "manifest.json"])
    def test_missing_artifact_file_is_a_data_error(self, workspace, tmp_path, name):
        index_dir = copy_artifacts(workspace, tmp_path)
        os.remove(os.path.join(index_dir, name))
        assert recall_code(index_dir, workspace) == 2

    def test_swapped_index_files_are_a_data_error(self, workspace, tmp_path):
        # Two index sections trade places under a digest that matches.
        index_dir = copy_artifacts(workspace, tmp_path)
        data = read_artifacts(index_dir)
        _, _, first, second, third, *_ = section_starts(data, workspace)
        data[first:third] = data[second:third] + data[first:second]
        write_artifacts(index_dir, data)
        assert recall_code(index_dir, workspace) == 2

    @pytest.mark.parametrize("section", [0, 1, 2], ids=["corpus", "trie", "index"])
    def test_changed_byte_fails_the_digest(self, workspace, tmp_path, caplog, section):
        index_dir = copy_artifacts(workspace, tmp_path)
        data = read_artifacts(index_dir)
        start, end = section_starts(data, workspace)[section : section + 2]
        data[(start + end) // 2] ^= 0x01
        with open(os.path.join(index_dir, "artifacts.bin"), "wb") as fh:
            fh.write(data)
        with caplog.at_level(logging.ERROR, logger="passrecall.cli"):
            assert recall_code(index_dir, workspace) == 2
        assert any("digest" in message for message in caplog.messages)

    def test_load_parses_the_bytes_it_digested(
        self, workspace, excerpts, tmp_path, monkeypatch
    ):
        # Another build's artifacts land in the file, in place as ``build``
        # writes, after the load has checked the digest.
        index_dir = copy_artifacts(workspace, tmp_path)
        path = os.path.join(index_dir, "artifacts.bin")
        digested = read_artifacts(index_dir)
        replacement = read_artifacts(excerpts["index_dir"])
        real_load_corpus = cli.load_corpus

        def replace_then_load(handle):
            with open(path, "r+b") as fh:
                fh.write(replacement)
                fh.truncate()
            return real_load_corpus(handle)

        monkeypatch.setattr(cli, "load_corpus", replace_then_load)
        artifacts = cli.load_artifacts(index_dir)
        assert read_artifacts(index_dir) == replacement
        assert artifacts.digest == hashlib.sha256(digested).hexdigest()
        assert [doc.body_tokens for doc in artifacts.corpus.documents] == [
            doc.body_tokens for doc in workspace["corpus"].documents
        ]

    @pytest.mark.parametrize(
        "edit",
        [
            lambda sa: [len(sa) + 4 if p == 0 else p for p in sa],
            lambda sa: [sa[1]] + sa[1:],
            lambda sa: [p for p in sa if p != len(sa) - 1],
            lambda sa: sa + [len(sa)],
        ],
        ids=["entry-above-n", "duplicated-entry", "one-too-few", "one-too-many"],
    )
    def test_suffix_array_not_a_permutation_is_a_data_error(
        self, workspace, tmp_path, capsys, edit
    ):
        index_dir = copy_artifacts(workspace, tmp_path)
        data = read_artifacts(index_dir)
        start, end = section_starts(data, workspace)[2:4]
        # The 12-byte header, the doc id as a u64 length and bytes, then the
        # suffix array as a u64 count and u32 entries.
        id_len = int.from_bytes(data[start + 12 : start + 20], "little")
        offset = start + 20 + id_len
        count = int.from_bytes(data[offset : offset + 8], "little")
        sa = [
            int.from_bytes(data[i : i + 4], "little")
            for i in range(offset + 8, offset + 8 + 4 * count, 4)
        ]
        assert sorted(sa) == list(range(count)) and offset + 8 + 4 * count == end
        sa = edit(sa)
        data[offset:end] = len(sa).to_bytes(8, "little") + b"".join(
            p.to_bytes(4, "little") for p in sa
        )
        # A matching digest lets the load reach the suffix-array check.
        write_artifacts(index_dir, data)
        assert recall_code(index_dir, workspace) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_trie_naming_an_absent_document_is_a_data_error(
        self, workspace, tmp_path, capsys
    ):
        index_dir = copy_artifacts(workspace, tmp_path)
        data = read_artifacts(index_dir)
        start, end = section_starts(data, workspace)[1:3]
        trie = data[start:end]
        for doc in workspace["corpus"].documents:
            name = doc.doc_id.encode("utf-8")
            assert trie.count(name) == 1
            trie = trie.replace(name, b"Z" * len(name))
        data[start:end] = trie
        write_artifacts(index_dir, data)
        assert recall_code(index_dir, workspace) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_trie_with_a_dangling_child_is_a_data_error(
        self, workspace, tmp_path, capsys
    ):
        # One more root child, a non-terminal leaf, appended after the last
        # subtree.  Title words never occur in bodies, so a body token is
        # not already a root child.
        index_dir = copy_artifacts(workspace, tmp_path)
        data = read_artifacts(index_dir)
        start, end = section_starts(data, workspace)[1:3]
        # The 12-byte header, then the root's terminal flag and child count.
        assert data[start + 12] == 0
        count = int.from_bytes(data[start + 13 : start + 21], "little")
        data[start + 13 : start + 21] = (count + 1).to_bytes(8, "little")
        token = workspace["corpus"].documents[0].body_tokens[0]
        child = token.to_bytes(4, "little") + b"\x00" + (0).to_bytes(8, "little")
        data[end:end] = child
        write_artifacts(index_dir, data)
        assert recall_code(index_dir, workspace) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            set_title(0, lambda corpus: ()),
            set_title(1, lambda corpus: corpus.documents[0].title_tokens),
            set_title(0, lambda corpus: (corpus.codec.vocab_size,)),
            set_title(0, lambda corpus: (0,)),
            set_body_token(lambda corpus: corpus.codec.vocab_size + 5),
            set_body_token(lambda corpus: 0),
            set_doc_id(1, 0),
            set_body(0, []),
        ],
        ids=[
            "empty-title",
            "shared-title",
            "title-id-above-vocabulary",
            "title-id-zero",
            "body-id-above-vocabulary",
            "body-id-zero",
            "duplicate-doc-id",
            "empty-body",
        ],
    )
    def test_corpus_section_the_load_rejects_is_a_data_error(
        self, workspace, tmp_path, capsys, edit
    ):
        index_dir = copy_artifacts(workspace, tmp_path)
        rewrite_corpus(index_dir, workspace, edit)
        assert recall_code(index_dir, workspace) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "codec_cls", [WordCodec, PieceCodec], ids=["word", "piece"]
    )
    def test_repeated_vocabulary_surface_is_a_data_error(
        self, workspace, tmp_path, capsys, codec_cls
    ):
        index_dir = copy_artifacts(workspace, tmp_path)
        rewrite_corpus(index_dir, workspace, repeat_surface(codec_cls))
        assert recall_code(index_dir, workspace) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_bytes_after_the_last_section_are_a_data_error(
        self, workspace, tmp_path, capsys
    ):
        index_dir = copy_artifacts(workspace, tmp_path)
        data = read_artifacts(index_dir)
        write_artifacts(index_dir, data + b"\x00" * 22)
        assert recall_code(index_dir, workspace) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_huge_length_prefix_is_a_data_error(self, workspace, tmp_path, capsys):
        index_dir = copy_artifacts(workspace, tmp_path)
        data = read_artifacts(index_dir)
        # The corpus section's first field, the codec kind, after its header.
        data[12:20] = (2**62).to_bytes(8, "little")
        write_artifacts(index_dir, data)
        assert recall_code(index_dir, workspace) == 2
        assert "Traceback" not in capsys.readouterr().err

    @settings(
        max_examples=300,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_flipped_bit_or_truncation_never_loads(self, workspace, tmp_path, data):
        originals = {}
        for name in helpers.tree_files(workspace["index_dir"]):
            with open(os.path.join(workspace["index_dir"], name), "rb") as fh:
                originals[name] = fh.read()
        name = data.draw(st.sampled_from(sorted(originals)), label="file")
        blob = bytearray(originals[name])
        if data.draw(st.booleans(), label="flip"):
            bit = data.draw(st.integers(0, 8 * len(blob) - 1), label="bit")
            blob[bit // 8] ^= 1 << (bit % 8)
        else:
            del blob[data.draw(st.integers(0, len(blob) - 1), label="length") :]
        index_dir = tmp_path / "artifacts"
        for other, content in {**originals, name: bytes(blob)}.items():
            os.makedirs(os.path.dirname(index_dir / other), exist_ok=True)
            (index_dir / other).write_bytes(content)
        assert recall_code(str(index_dir), workspace) in (2, 3)

    @pytest.mark.parametrize("seed", range(6))
    def test_wrong_suffix_array_is_an_internal_inconsistency(
        self, tmp_path, capsys, monkeypatch, seed
    ):
        # A permutation passes the load checks, and build writes the
        # manifest's digest over it, so only recall can tell it is wrong.
        rng = random.Random(seed)

        def save_shuffled(doc_id, sa, handle):
            rest = list(sa[1:])
            rng.shuffle(rest)
            save_index(doc_id, [sa[0], *rest], handle)

        records = helpers.synthetic_records(num_docs=3, body_len=40, seed=seed)
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text(
            "".join(json.dumps(record) + "\n" for record in records),
            encoding="utf-8",
        )
        index_dir = str(tmp_path / "artifacts")
        monkeypatch.setattr(cli, "save_index", save_shuffled)
        assert run_cli(["build", "--corpus", str(corpus_path), "--out", index_dir]) == 0
        monkeypatch.undo()
        corpus = ingest_corpus(records)
        queries_path = tmp_path / "queries.txt"
        queries_path.write_text(
            "".join(
                corpus.codec.decode(doc.body_tokens[5:15]) + "\n"
                for doc in corpus.documents
            ),
            encoding="utf-8",
        )
        assert recall_code(index_dir, {"queries_path": str(queries_path)}) == 3
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        [
            {"prefix_len": 2.5},
            {"beam2": 1e9},
            {"k": 2.5},
            {"k": True},
            {"passage_len": "150"},
            {"alpha": "0.5"},
            {"alpha": False},
            {"rescore_full_passage": "no"},
            {"stage1_template": 5},
            {"stage2_template": "no slot"},
            {"task": ["qa"]},
        ],
        ids=repr,
    )
    def test_config_value_of_the_wrong_type_is_a_data_error(
        self, workspace, tmp_path, capsys, config
    ):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code = run_cli(
            [
                "recall",
                "--index-dir",
                workspace["index_dir"],
                "--queries",
                workspace["queries_path"],
                "--config",
                str(config_path),
                "--output",
                str(tmp_path / "never.jsonl"),
            ]
        )
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_out_of_range_alpha_is_a_data_error(self, workspace, tmp_path):
        code = run_cli(
            [
                "recall",
                "--index-dir",
                workspace["index_dir"],
                "--queries",
                workspace["queries_path"],
                "--alpha",
                "2.0",
                "--output",
                str(tmp_path / "never.jsonl"),
            ]
        )
        assert code == 2


class TestRemoteEndpoint:
    def test_env_endpoint_matches_local_scorer(self, workspace, tmp_path, monkeypatch):
        local = recall_to(workspace, tmp_path / "local.jsonl", *PLAIN_TEMPLATES)
        inner = corpus_scorer(workspace["corpus"])
        with helpers.serve_scorer(inner) as url:
            monkeypatch.setenv("PASSRECALL_ENDPOINT", url)
            remote = recall_to(
                workspace,
                tmp_path / "remote.jsonl",
                "--scorer",
                "remote",
                *PLAIN_TEMPLATES,
            )
        local_records = read_lines(local)[1:]
        remote_records = read_lines(remote)[1:]
        assert local_records == remote_records
        metadata = read_lines(remote)[0]["metadata"]
        assert metadata["scorer"]["type"] == "remote"

    def test_remote_without_endpoint_is_a_data_error(self, workspace, monkeypatch):
        monkeypatch.delenv("PASSRECALL_ENDPOINT", raising=False)
        code = run_cli(
            [
                "recall",
                "--index-dir",
                workspace["index_dir"],
                "--queries",
                workspace["queries_path"],
                "--scorer",
                "remote",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--timeout", "0"),
            ("--timeout", "-1"),
            ("--timeout", "nan"),
            ("--timeout", "inf"),
            ("--retries", "-1"),
        ],
    )
    def test_bad_scorer_setting_is_a_data_error(
        self, workspace, tmp_path, caplog, flag, value
    ):
        with caplog.at_level(logging.ERROR, logger="passrecall.cli"):
            code = run_cli(
                [
                    "recall",
                    "--index-dir",
                    workspace["index_dir"],
                    "--queries",
                    workspace["queries_path"],
                    "--scorer",
                    "remote",
                    "--endpoint",
                    "http://127.0.0.1:9/score",
                    flag,
                    value,
                    "--output",
                    str(tmp_path / "never.jsonl"),
                ]
            )
        assert code == 2
        assert any(flag[2:] in message for message in caplog.messages)
        assert not (tmp_path / "never.jsonl").exists()

    def test_unreachable_endpoint_is_a_data_error(self, workspace, tmp_path):
        code = run_cli(
            [
                "recall",
                "--index-dir",
                workspace["index_dir"],
                "--queries",
                workspace["queries_path"],
                "--scorer",
                "remote",
                "--endpoint",
                "http://127.0.0.1:9/score",
                "--retries",
                "0",
                "--output",
                str(tmp_path / "never.jsonl"),
            ]
        )
        assert code == 2


class TestEvaluate:
    def write_recall_output(self, tmp_path):
        lines = [
            {"metadata": {"tool_version": "test"}},
            {
                "query": "q1",
                "references": [
                    {
                        "doc_id": "d1",
                        "title": "t1",
                        "start": 0,
                        "passage_text": "the answer is blue paint",
                        "score1": -1.0,
                        "score2": -2.0,
                        "combined": -1.1,
                    }
                ],
            },
            {"query": "q2", "references": []},
        ]
        path = tmp_path / "recall.jsonl"
        path.write_text(
            "".join(json.dumps(l) + "\n" for l in lines), encoding="utf-8"
        )
        return str(path)

    def write_gold(self, tmp_path):
        rows = [
            {"query": "q1", "gold_provenance": ["d1"], "gold_answers": ["Blue Paint"]},
            {"query": "q2", "gold_provenance": ["d9"], "gold_answers": ["anything"]},
        ]
        path = tmp_path / "gold.jsonl"
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8"
        )
        return str(path)

    def test_json_report(self, tmp_path, capsys):
        code = run_cli(
            [
                "evaluate",
                "--recall-output",
                self.write_recall_output(tmp_path),
                "--gold",
                self.write_gold(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["r_precision_mean"] == 50.0
        assert payload["in_context_rate"] == 50.0
        assert [item["query"] for item in payload["items"]] == ["q1", "q2"]

    def test_table_report(self, tmp_path, capsys):
        code = run_cli(
            [
                "evaluate",
                "--recall-output",
                self.write_recall_output(tmp_path),
                "--gold",
                self.write_gold(tmp_path),
                "--table",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "mean %" in printed
        assert "q1" in printed

    def test_non_string_gold_value_is_a_data_error(self, tmp_path, caplog):
        # Not loaded as the answer "None": gold values must be strings.
        gold = tmp_path / "bad.jsonl"
        gold.write_text(
            json.dumps({"query": "q1", "gold_answers": [None]}) + "\n",
            encoding="utf-8",
        )
        argv = ["evaluate", "--recall-output", self.write_recall_output(tmp_path)]
        with caplog.at_level(logging.ERROR, logger="passrecall.cli"):
            assert run_cli([*argv, "--gold", str(gold)]) == 2
        assert any("line 1" in message for message in caplog.messages)

    @pytest.mark.parametrize(
        "rows",
        [[], [{"query": "q1"}, {"query": "q2", "gold_answers": []}]],
        ids=["empty-file", "no-gold-fields"],
    )
    def test_gold_with_nothing_to_evaluate_is_a_data_error(
        self, tmp_path, capsys, caplog, rows
    ):
        gold = tmp_path / "unscored.jsonl"
        gold.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        argv = ["evaluate", "--recall-output", self.write_recall_output(tmp_path)]
        with caplog.at_level(logging.ERROR, logger="passrecall.cli"):
            assert run_cli([*argv, "--gold", str(gold)]) == 2
        assert any(str(gold) in message for message in caplog.messages)
        assert "Traceback" not in capsys.readouterr().err

    def test_gold_query_missing_from_output_is_a_data_error(self, tmp_path):
        gold = tmp_path / "extra.jsonl"
        gold.write_text(
            json.dumps({"query": "unseen", "gold_provenance": ["d1"]}) + "\n",
            encoding="utf-8",
        )
        code = run_cli(
            [
                "evaluate",
                "--recall-output",
                self.write_recall_output(tmp_path),
                "--gold",
                str(gold),
            ]
        )
        assert code == 2

    def test_first_record_wins_for_duplicate_queries(self, tmp_path, capsys):
        lines = [
            {"metadata": {}},
            {
                "query": "q",
                "references": [
                    {"doc_id": "gold-doc", "title": "", "start": 0,
                     "passage_text": "", "score1": 0, "score2": 0, "combined": 0}
                ],
            },
            {"query": "q", "references": []},
        ]
        recall_path = tmp_path / "dup.jsonl"
        recall_path.write_text(
            "".join(json.dumps(l) + "\n" for l in lines), encoding="utf-8"
        )
        gold_path = tmp_path / "dupgold.jsonl"
        gold_path.write_text(
            json.dumps({"query": "q", "gold_provenance": ["gold-doc"]}) + "\n",
            encoding="utf-8",
        )
        assert run_cli(
            ["evaluate", "--recall-output", str(recall_path), "--gold", str(gold_path)]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["r_precision_mean"] == 100.0

    @pytest.mark.parametrize(
        "record",
        [
            {},
            [1],
            {"query": "q", "references": 5},
            {"query": "q", "references": [{}]},
            {"query": 5, "references": []},
            {"query": "q", "references": [{"doc_id": "d1", "passage_text": 7}]},
        ],
        ids=repr,
    )
    def test_malformed_record_is_a_data_error(self, tmp_path, caplog, record):
        path = tmp_path / "malformed.jsonl"
        path.write_text(
            "".join(
                json.dumps(line) + "\n"
                for line in ({"metadata": {}}, {"query": "q1", "references": []}, record)
            ),
            encoding="utf-8",
        )
        with caplog.at_level(logging.ERROR, logger="passrecall.cli"):
            code = run_cli(
                [
                    "evaluate",
                    "--recall-output",
                    str(path),
                    "--gold",
                    self.write_gold(tmp_path),
                ]
            )
        assert code == 2
        assert any("line 3" in message for message in caplog.messages)

    def test_header_required(self, tmp_path):
        path = tmp_path / "headless.jsonl"
        path.write_text('{"query": "q", "references": []}\n', encoding="utf-8")
        code = run_cli(
            [
                "evaluate",
                "--recall-output",
                str(path),
                "--gold",
                self.write_gold(tmp_path),
            ]
        )
        assert code == 2


class TestSweep:
    def test_axis_produces_one_row_per_value(self, workspace, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            [
                "sweep",
                "--index-dir",
                workspace["index_dir"],
                "--gold",
                workspace["gold_path"],
                "--axis",
                "alpha",
                "--values",
                "0.5,0.9",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "alpha,r_precision,in_context"
        assert len(lines) == 3
        assert lines[1].startswith("0.5,")
        assert lines[2].startswith("0.9,")

    def test_single_value_matches_evaluate(self, workspace, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run_cli(
            [
                "sweep",
                "--index-dir",
                workspace["index_dir"],
                "--gold",
                workspace["gold_path"],
                "--axis",
                "k",
                "--values",
                "2",
                "--output",
                str(out),
            ]
        ) == 0
        row = out.read_text(encoding="utf-8").splitlines()[1].split(",")

        recall_out = recall_to(workspace, tmp_path / "recall.jsonl", "--k", "2")
        assert run_cli(
            ["evaluate", "--recall-output", recall_out, "--gold", workspace["gold_path"]]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert float(row[1]) == payload["r_precision_mean"]
        assert float(row[2]) == payload["in_context_rate"]

    @pytest.mark.parametrize("axis, value", [("k", "0"), ("prefix_len", "500")])
    def test_invalid_swept_value_exits_before_loading(
        self, workspace, monkeypatch, capsys, axis, value
    ):
        monkeypatch.setattr(cli, "load_artifacts", lambda *_: pytest.fail("loaded"))
        code = run_cli(
            [
                "sweep",
                "--index-dir",
                workspace["index_dir"],
                "--gold",
                workspace["gold_path"],
                "--axis",
                axis,
                "--values",
                f"2,{value}",
            ]
        )
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows", [[], [{"query": "late winter"}]], ids=["empty-file", "no-gold-fields"]
    )
    def test_gold_with_nothing_to_evaluate_exits_before_loading(
        self, workspace, tmp_path, monkeypatch, capsys, caplog, rows
    ):
        gold = tmp_path / "unscored.jsonl"
        gold.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        monkeypatch.setattr(cli, "load_artifacts", lambda *_: pytest.fail("loaded"))
        argv = ["sweep", "--index-dir", workspace["index_dir"], "--gold", str(gold)]
        with caplog.at_level(logging.ERROR, logger="passrecall.cli"):
            code = run_cli([*argv, "--axis", "k", "--values", "1,2"])
        assert code == 2
        assert any(str(gold) in message for message in caplog.messages)
        assert "Traceback" not in capsys.readouterr().err

    def test_unknown_axis_rejected_by_parser(self, workspace):
        code = run_cli(
            [
                "sweep",
                "--index-dir",
                workspace["index_dir"],
                "--gold",
                workspace["gold_path"],
                "--axis",
                "gamma",
                "--values",
                "1",
            ]
        )
        assert code == 1


class TestUsage:
    def test_unknown_flag_exits_one(self):
        assert run_cli(["recall", "--no-such-flag"]) == 1

    def test_missing_subcommand_exits_one(self):
        assert run_cli([]) == 1

    def test_missing_required_argument_exits_one(self):
        assert run_cli(["build", "--corpus", "x.jsonl"]) == 1

    def test_every_packaged_task_parses(self):
        templates = default_templates()
        for task, stages in templates.items():
            args = cli.build_parser().parse_args(
                ["recall", "--index-dir", "a", "--queries", "q", "--task", task]
            )
            config = cli._build_config(args)
            assert config.stage1_template == stages[STAGE_ONE]
            assert config.stage2_template == stages[STAGE_TWO]


def _build_and_recall(root, hash_seed: str) -> list[bytes]:
    """Run ``build`` then ``recall`` in fresh interpreters with
    ``PYTHONHASHSEED=hash_seed``; the bytes of every file they write."""
    records = helpers.synthetic_records(num_docs=20, body_len=120, seed=3)
    corpus_path, queries_path = root / "corpus.jsonl", root / "queries.txt"
    corpus_path.write_text(
        "".join(json.dumps(record) + "\n" for record in records), encoding="utf-8"
    )
    queries = helpers.excerpt_queries(ingest_corpus(records), count=10, seed=4)
    queries_path.write_text("".join(f"{q}\n" for q, _ in queries), encoding="utf-8")
    index_dir, out = root / "artifacts", root / "recall.jsonl"
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
    for argv in (
        ["build", "--corpus", corpus_path, "--out", index_dir],
        ["recall", "--index-dir", index_dir, "--queries", queries_path,
         "--output", out, *PLAIN_TEMPLATES, "--rescore-full-passage"],
    ):
        subprocess.run(
            [sys.executable, "-m", "passrecall.cli", *map(str, argv)],
            env=env,
            capture_output=True,
            check=True,
        )
    paths = [index_dir / name for name in helpers.tree_files(index_dir)] + [out]
    return [path.read_bytes() for path in paths]


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # The benchmark pins one seed and criterion 11 runs in one process, so
    # neither would see an output that follows set or dict order.
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = _build_and_recall(tmp_path / "a", "0")
    assert first == _build_and_recall(tmp_path / "b", "4242")


def _cli_imports(module: str) -> str:
    """``True`` or ``False`` and a newline: whether importing
    ``passrecall.cli`` in a fresh interpreter imports ``module``."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    probe = f"import sys, passrecall.cli; print({module!r} in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout


def test_cli_imports_no_numpy():
    # numpy is installed here but is not a declared dependency.
    assert _cli_imports("numpy") == "False\n"


def test_cli_imports_no_requests():
    # Only the remote scorer uses requests; it imports it when made.
    assert _cli_imports("requests") == "False\n"
