import hashlib
import io
import json
import logging
import sys
from array import array

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
from passrecall.corpus import (
    END_ID,
    FIRST_ID,
    SENTINEL_ID,
    UNK_ID,
    Corpus,
    IngestError,
    PieceCodec,
    WordCodec,
    ingest_corpus,
    load_corpus,
    load_jsonl_corpus,
    save_corpus,
    split_text,
)


def make_word_codec(*texts: str) -> WordCodec:
    return WordCodec.build(texts)


def word_normalized(text: str) -> str:
    """The text ``WordCodec`` round-trips to: its tokens, space-joined."""
    return " ".join(split_text(text))


class TestWordCodec:
    def test_roundtrip_equals_normalized(self):
        text = "Hello,   world!  It's  fine."
        codec = make_word_codec(text)
        assert codec.decode(codec.encode(text)) == word_normalized(text)

    def test_punctuation_runs_are_single_tokens(self):
        assert split_text('she said "{}"...') == [
            "she",
            "said",
            '"{}"...',
        ]

    def test_ids_follow_sorted_surface_order(self):
        codec = make_word_codec("banana apple Cherry")
        surfaces = codec.surfaces()
        assert surfaces == sorted(surfaces)
        assert codec.encode(surfaces[0]) == [FIRST_ID]

    def test_reserved_ids_never_produced(self):
        codec = make_word_codec("a b c")
        tokens = codec.encode("a b c a")
        assert all(t >= FIRST_ID for t in tokens)

    def test_unknown_surface_becomes_unk(self):
        codec = make_word_codec("known words only")
        assert codec.encode("unknownword") == [UNK_ID]
        assert codec.decode([UNK_ID]) == "<unk>"

    def test_reserved_surface_lookup_rejected(self):
        codec = make_word_codec("a")
        for reserved in (END_ID, SENTINEL_ID):
            with pytest.raises(ValueError):
                codec.surface(reserved)

    def test_duplicate_surfaces_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            WordCodec(["alpha", "beta", "alpha"])

    def test_vocab_hash_changes_with_vocabulary(self):
        one = make_word_codec("alpha beta")
        two = make_word_codec("alpha gamma")
        assert one.vocab_hash() != two.vocab_hash()
        assert one.vocab_hash() == make_word_codec("beta alpha").vocab_hash()

    @given(st.text(max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, text):
        codec = WordCodec.build([text])
        assert codec.decode(codec.encode(text)) == word_normalized(text)

    @given(st.lists(st.integers(min_value=-3, max_value=FIRST_ID + 4), max_size=12))
    @settings(max_examples=500, deadline=None)
    def test_decode_equals_joined_surfaces(self, tokens):
        # Ids run from negative through reserved and unknown to past the
        # vocabulary (ids 3..6 are "a b c d").
        codec = make_word_codec("a b c d")

        def outcome(decode):
            try:
                return decode(tokens)
            except (ValueError, IndexError) as exc:
                return type(exc)

        assert outcome(codec.decode) == outcome(
            lambda ts: " ".join(codec.surface(t) for t in ts)
        )

    def test_negative_id_has_no_surface(self):
        codec = make_word_codec("a b")
        for tokens in ([-1], [3, -1]):
            with pytest.raises(ValueError, match="no surface"):
                codec.decode(tokens)

    @given(st.text(max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_normalization_idempotent(self, text):
        once = word_normalized(text)
        assert word_normalized(once) == once


# Every whitespace code point, so the draw is not dominated by non-space text.
WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]


@pytest.mark.parametrize(
    "normalize",
    [word_normalized, PieceCodec.normalize_text],
    ids=["WordCodec", "PieceCodec"],
)
@given(text=st.text(st.sampled_from(WHITESPACE) | st.characters(), max_size=20))
@settings(max_examples=300, deadline=None)
def test_normalized_text_is_empty_exactly_when_blank(normalize, text):
    # Ingest skips empty bodies with ``str.strip`` before a codec exists.
    assert (normalize(text) == "") == (not text.strip())


class TestPieceCodec:
    def test_greedy_longest_match(self):
        codec = PieceCodec([" Testament", "ary", " and", " Capacity", " Trusts"])
        tokens = codec.encode("Testamentary Capacity")
        assert [codec.surface(t) for t in tokens] == [
            " Testament",
            "ary",
            " Capacity",
        ]

    def test_uncovered_text_degrades_to_unk(self):
        codec = PieceCodec([" ab"])
        tokens = codec.encode("abz")
        assert codec.surface(tokens[0]) == " ab"
        assert tokens[1] == UNK_ID

    def test_decode_joins_word_start_pieces(self):
        codec = PieceCodec([" Testament", "ary", " and"])
        surfaces = codec.surfaces()
        ids = [FIRST_ID + surfaces.index(piece) for piece in (" Testament", "ary")]
        assert codec.decode(ids) == "Testamentary"

    def test_duplicate_pieces_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            PieceCodec([" a", " a"])

    @given(
        pieces=st.lists(
            st.text(alphabet="ab c", min_size=1, max_size=3), unique=True, max_size=10
        ),
        text=st.text(alphabet="ab c", max_size=12),
    )
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_property(self, pieces, text):
        # Exact whenever the pieces cover the text: no unknown token.
        codec = PieceCodec(pieces)
        tokens = codec.encode(text)
        assume(UNK_ID not in tokens)
        assert codec.decode(tokens) == codec.normalize_text(text)


class TestIngest:
    def records(self):
        return [
            {"id": "d1", "title": "First Doc", "text": ["alpha beta", "gamma delta"]},
            {"id": "d2", "title": "Second Doc", "text": ["epsilon zeta"]},
        ]

    def test_fragments_join_with_single_space(self):
        corpus = ingest_corpus(self.records())
        body = corpus.document("d1").body_tokens
        assert corpus.codec.decode(body) == "alpha beta gamma delta"

    def test_titles_are_normalized(self):
        records = [{"id": "d1", "title": "  Messy   Title ", "text": ["body here"]}]
        corpus = ingest_corpus(records)
        title_tokens = corpus.document("d1").title_tokens
        assert corpus.codec.decode(title_tokens) == "Messy Title"

    def test_duplicate_title_names_both_records(self):
        records = self.records()
        records[1]["title"] = "First  Doc"
        with pytest.raises(IngestError, match="d1.*d2"):
            ingest_corpus(records)

    def test_duplicate_doc_id_rejected(self):
        records = self.records()
        records[1]["id"] = "d1"
        with pytest.raises(IngestError, match="duplicate document id"):
            ingest_corpus(records)

    def test_empty_body_skipped_with_warning(self, caplog):
        records = self.records() + [{"id": "d3", "title": "Empty", "text": ["   "]}]
        with caplog.at_level(logging.WARNING, logger="passrecall.corpus"):
            corpus = ingest_corpus(records)
        assert [doc.doc_id for doc in corpus.documents] == ["d1", "d2"]
        assert any("d3" in message for message in caplog.messages)
        # A skipped record's title stays out of the vocabulary.
        assert "Empty" not in corpus.codec.surfaces()

    def test_empty_corpus_rejected(self):
        with pytest.raises(IngestError, match="no usable documents"):
            ingest_corpus([])

    def test_missing_fields_rejected(self):
        with pytest.raises(IngestError, match="title"):
            ingest_corpus([{"id": "d1", "text": ["body"]}])
        with pytest.raises(IngestError, match="'id'"):
            ingest_corpus([{"title": "T", "text": ["body"]}])
        with pytest.raises(IngestError, match="array of strings"):
            ingest_corpus([{"id": "d1", "title": "T", "text": "not a list"}])

    def test_supplied_codec_must_cover_corpus(self):
        codec = make_word_codec("only these words")
        with pytest.raises(IngestError, match="outside the codec vocabulary"):
            ingest_corpus(self.records(), codec=codec)


def set_field(index, name, value):
    def edit(documents, codec):
        setattr(documents[index], name, value(documents, codec))

    return edit


class TestCorpus:
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda documents, codec: documents.clear(), "no usable documents"),
            (set_field(1, "doc_id", lambda ds, c: "d1"), "duplicate document id"),
            (set_field(0, "title_tokens", lambda ds, c: ()), "empty title"),
            (set_field(0, "body_tokens", lambda ds, c: array("I")), "empty body"),
            (set_field(0, "title_tokens", lambda ds, c: (UNK_ID,)), "outside"),
            (
                set_field(0, "title_tokens", lambda ds, c: (c.vocab_size,)),
                "outside the codec vocabulary",
            ),
            (
                set_field(0, "body_tokens", lambda ds, c: array("I", [END_ID])),
                "outside the codec vocabulary",
            ),
            (
                set_field(1, "body_tokens", lambda ds, c: array("I", [c.vocab_size])),
                "outside the codec vocabulary",
            ),
            (
                set_field(1, "title_tokens", lambda ds, c: ds[0].title_tokens),
                "d1.*d2",
            ),
        ],
        ids=[
            "no-documents",
            "duplicate-doc-id",
            "empty-title",
            "empty-body",
            "title-id-unknown",
            "title-id-above-vocabulary",
            "body-id-end",
            "body-id-above-vocabulary",
            "shared-title-tokens",
        ],
    )
    def test_invalid_documents_refused(self, edit, message):
        corpus = ingest_corpus(
            [
                {"id": "d1", "title": "First Doc", "text": ["alpha beta"]},
                {"id": "d2", "title": "Second Doc", "text": ["gamma delta"]},
            ]
        )
        documents = corpus.documents
        edit(documents, corpus.codec)
        with pytest.raises(IngestError, match=message):
            Corpus(documents=documents, codec=corpus.codec)


class TestJsonl:
    def write_lines(self, tmp_path, lines):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_load(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [
                json.dumps({"id": "d1", "title": "One", "text": ["first body"]}),
                "",
                json.dumps({"id": "d2", "title": "Two", "text": ["second body"]}),
            ],
        )
        corpus = load_jsonl_corpus(path)
        assert [d.doc_id for d in corpus.documents] == ["d1", "d2"]

    def test_malformed_line_is_numbered(self, tmp_path):
        path = self.write_lines(
            tmp_path,
            [json.dumps({"id": "d1", "title": "One", "text": ["body"]}), "{nope"],
        )
        with pytest.raises(IngestError, match=":2:"):
            load_jsonl_corpus(path)

    def test_non_object_line_rejected(self, tmp_path):
        path = self.write_lines(tmp_path, ['["not", "an", "object"]'])
        with pytest.raises(IngestError, match="not a JSON object"):
            load_jsonl_corpus(path)


class TestPersistence:
    def roundtrip(self, corpus):
        buf = io.BytesIO()
        save_corpus(corpus, buf)
        buf.seek(0)
        return load_corpus(buf)

    def test_roundtrip(self):
        corpus = ingest_corpus(
            [
                {"id": "d1", "title": "Alpha", "text": ["one two three"]},
                {"id": "d2", "title": "Beta", "text": ["four five six"]},
            ]
        )
        loaded = self.roundtrip(corpus)
        assert [d.doc_id for d in loaded.documents] == ["d1", "d2"]
        titles = [loaded.codec.decode(d.title_tokens) for d in loaded.documents]
        assert titles == ["Alpha", "Beta"]
        assert loaded.document("d1").body_tokens == corpus.document("d1").body_tokens
        assert loaded.codec.surfaces() == corpus.codec.surfaces()
        assert loaded.codec.vocab_hash() == corpus.codec.vocab_hash()

    def test_piece_titles_decode_on_load(self):
        codec = PieceCodec([" Alpha", " Be", "ta", " one", " two", " three"])
        corpus = ingest_corpus(
            [
                {"id": "d1", "title": "Alpha", "text": ["one two three"]},
                {"id": "d2", "title": "  Beta ", "text": ["three two one"]},
            ],
            codec=codec,
        )
        loaded = self.roundtrip(corpus)
        assert type(loaded.codec) is PieceCodec
        titles = [loaded.codec.decode(d.title_tokens) for d in loaded.documents]
        assert titles == ["Alpha", "Beta"]
        assert [d.title_tokens for d in loaded.documents] == [
            d.title_tokens for d in corpus.documents
        ]

    def test_save_is_deterministic(self):
        corpus = ingest_corpus(
            [{"id": "d1", "title": "Alpha", "text": ["one two three"]}]
        )
        a, b = io.BytesIO(), io.BytesIO()
        save_corpus(corpus, a)
        save_corpus(corpus, b)
        assert a.getvalue() == b.getvalue()

    def test_bytes_of_synthetic_fixture_unchanged(self):
        buf = io.BytesIO()
        save_corpus(helpers.synthetic_corpus(), buf)
        digest = hashlib.sha256(buf.getvalue()).hexdigest()
        assert digest == (
            "62dc54fe81632d6ee82a5d296adb975cb5a81791a33c60a60798bd8a619a8b10"
        )
