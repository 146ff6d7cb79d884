"""Document corpus, token codec, and ingestion.

Records arrive as JSON lines with ``id``, ``title``, and ``text`` (an ordered
array of passage fragments).  Fragments are merged into one complete document
per record, and a shared token codec is built over all titles and bodies so
constraints, scorers, and indexes agree on the token alphabet.  A document
keeps its title and body only as token ids, the body in an ``array('I')``;
title and passage text are decoded from them, so a title is always the text
of a trie path and a passage an exact slice of the indexed body.

Token ids 0, 1, 2 are reserved: 0 ends a generated sequence, 1 is the index
sentinel (sorts below every real token), 2 is the unknown token.  Real tokens
start at id 3.
"""

from __future__ import annotations

import hashlib
import json
import logging
import re
import unicodedata
from array import array
from dataclasses import dataclass
from itertools import repeat
from operator import sub
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence

from .storage import KIND_CORPUS, Reader, Writer

logger = logging.getLogger(__name__)

END_ID = 0
SENTINEL_ID = 1
UNK_ID = 2
FIRST_ID = 3

UNK_SURFACE = "<unk>"

# Words are runs of word characters; punctuation runs form their own tokens.
# Splitting punctuation into tokens (and normalizing text the same way) is
# what makes decode an exact inverse of encode.
_TOKEN_RE = re.compile(r"\w+|[^\w\s]+", re.UNICODE)


def split_text(text: str) -> list[str]:
    """Segment into word runs and punctuation runs, after NFC normalization."""
    return _TOKEN_RE.findall(unicodedata.normalize("NFC", text))


class IngestError(ValueError):
    """Raised when records, a vocabulary or a stored corpus break an invariant."""


class TokenCodec:
    """Bidirectional mapping between surface strings and token ids.

    Concrete codecs differ in how they segment text; all of them share the
    reserved-id convention and the id<->surface tables, which are complete
    once the codec is made: the ``i``-th surface gets id ``FIRST_ID + i``,
    and no surface may repeat.  ``encode`` never emits ids 0 or 1; unknown
    surface forms map to id 2.
    """

    kind = "abstract"
    policy = "abstract"

    def __init__(self, surfaces: Sequence[str]) -> None:
        self._surfaces = list(surfaces)
        self._ids = {s: FIRST_ID + i for i, s in enumerate(self._surfaces)}
        if len(self._ids) != len(self._surfaces):
            raise IngestError("duplicate surfaces in codec vocabulary")

    # -- vocabulary ---------------------------------------------------------

    @property
    def vocab_size(self) -> int:
        """Total id space, reserved ids included."""
        return FIRST_ID + len(self._surfaces)

    def surface(self, token_id: int) -> str:
        if token_id == UNK_ID:
            return UNK_SURFACE
        if token_id < FIRST_ID:
            raise ValueError(f"id {token_id} is reserved or negative: no surface")
        return self._surfaces[token_id - FIRST_ID]

    def surfaces(self) -> list[str]:
        """All non-reserved surfaces in id order (id 3 first)."""
        return list(self._surfaces)

    def token_id(self, surface: str) -> int | None:
        return self._ids.get(surface)

    def vocab_hash(self) -> str:
        digest = hashlib.sha256()
        digest.update(self.policy.encode("utf-8"))
        for surface in self._surfaces:
            digest.update(b"\x1f")
            digest.update(surface.encode("utf-8"))
        return digest.hexdigest()

    # -- text ---------------------------------------------------------------

    def encode(self, text: str) -> list[int]:
        raise NotImplementedError

    def decode(self, tokens: Sequence[int]) -> str:
        raise NotImplementedError


class WordCodec(TokenCodec):
    """Reference codec: word-level, whitespace and punctuation split.

    Normalization is Unicode NFC, whitespace runs collapsed to single
    spaces, punctuation runs separated into standalone tokens, case
    preserved.  Under that normalization ``decode(encode(s))`` equals
    ``" ".join(split_text(s))`` for every string, unknowns aside.
    """

    kind = "word"
    policy = "word:nfc,ws-collapse,punct-split,case-preserve"

    @classmethod
    def build(cls, texts: Iterable[str]) -> "WordCodec":
        """Codec over every surface of ``texts``, ids in sorted surface order."""
        return cls(sorted({s for text in texts for s in split_text(text)}))

    def encode(self, text: str) -> list[int]:
        return [self._ids.get(t, UNK_ID) for t in split_text(text)]

    def decode(self, tokens: Sequence[int]) -> str:
        if min(tokens, default=FIRST_ID) >= FIRST_ID:
            # No unknown or reserved id: index the surfaces directly.
            offsets = map(sub, tokens, repeat(FIRST_ID))
            return " ".join(map(self._surfaces.__getitem__, offsets))
        return " ".join(map(self.surface, tokens))


class PieceCodec(TokenCodec):
    """Subword-style codec over an explicit piece vocabulary.

    A piece whose stored surface begins with a space starts a new word;
    other pieces continue the previous one.  Encoding greedily takes the
    longest piece matching at each position, so a vocabulary containing
    " Testament", "ary", and " Capacity" segments "Testamentary Capacity"
    into three pieces.  Positions no piece covers become the unknown token
    and advance one character; round-tripping is exact only on fully
    covered text.
    """

    kind = "piece"
    policy = "piece:nfc,ws-collapse,greedy-longest,case-preserve"

    def __init__(self, pieces: Sequence[str]):
        super().__init__(pieces)
        self._max_piece_len = max((len(p) for p in pieces), default=0)

    @staticmethod
    def normalize_text(text: str) -> str:
        return " ".join(unicodedata.normalize("NFC", text).split())

    def encode(self, text: str) -> list[int]:
        # Leading space so the first word can match a word-start piece.
        work = " " + self.normalize_text(text) if text.strip() else ""
        out: list[int] = []
        i = 0
        while i < len(work):
            match_id = None
            for length in range(min(self._max_piece_len, len(work) - i), 0, -1):
                candidate = self._ids.get(work[i : i + length])
                if candidate is not None:
                    match_id = candidate
                    i += length
                    break
            if match_id is None:
                out.append(UNK_ID)
                i += 1
            else:
                out.append(match_id)
        return out

    def decode(self, tokens: Sequence[int]) -> str:
        parts = []
        for t in tokens:
            if t == UNK_ID:
                parts.append(" " + UNK_SURFACE)
            else:
                parts.append(self.surface(t))
        return "".join(parts).lstrip(" ")


_CODEC_KINDS = {"word": WordCodec, "piece": PieceCodec}


@dataclass
class Document:
    """One complete document: its id and its encoded title and body.

    The title tokens are the only copy of the title; its text is
    ``codec.decode(title_tokens)``.
    """

    doc_id: str
    title_tokens: tuple[int, ...]
    body_tokens: array


@dataclass
class Corpus:
    """Immutable recall substrate: documents and their shared codec.

    Valid by construction: at least one document, distinct ids, non-empty
    titles and bodies of ids in ``[FIRST_ID, vocab_size)`` and distinct
    title tokens; else ``IngestError``.
    """

    documents: list[Document]
    codec: TokenCodec

    def __post_init__(self) -> None:
        if not self.documents:
            raise IngestError("corpus contains no usable documents")
        self._by_id = {}
        by_title: dict[tuple[int, ...], str] = {}
        for doc in self.documents:
            doc_id = doc.doc_id
            if doc_id in self._by_id:
                raise IngestError(f"duplicate document id {doc_id!r}")
            self._by_id[doc_id] = doc
            for name, toks in (("title", doc.title_tokens), ("body", doc.body_tokens)):
                if not toks:
                    raise IngestError(f"document {doc_id!r}: empty {name}")
                # Before the title check, whose message decodes the title.
                if not (FIRST_ID <= min(toks) and max(toks) < self.codec.vocab_size):
                    raise IngestError(
                        f"document {doc_id!r}: {name} holds token ids outside "
                        f"the codec vocabulary [{FIRST_ID}, {self.codec.vocab_size})"
                    )
            other = by_title.setdefault(doc.title_tokens, doc_id)
            if other != doc_id:
                raise IngestError(
                    f"duplicate title {self.codec.decode(doc.title_tokens)!r} "
                    f"in documents {other!r} and {doc_id!r}"
                )

    def document(self, doc_id: str) -> Document:
        return self._by_id[doc_id]


def ingest_corpus(
    records: Iterable[Mapping], codec: TokenCodec | None = None
) -> Corpus:
    """Merge fragment records into complete documents and build the corpus.

    Each record needs a non-empty string ``id``, a string ``title``, and
    ``text``: an array of passage fragments whose array order is the
    document order.  Fragments are joined with single spaces.  A record
    whose body is only whitespace is skipped and stays out of the
    vocabulary.  When ``codec`` is omitted a word codec is built from every
    kept title and body.  ``Corpus`` checks the result, so a supplied codec
    must cover every title and body.
    """
    staged = []
    for position, record in enumerate(records):
        doc_id, title, fragments = _validate_record(position, record)
        body = " ".join(fragments)
        # Blank exactly when either codec normalizes the body to "".
        if not body.strip():
            logger.warning("record %r: empty body, skipped", doc_id)
            continue
        staged.append((doc_id, title, body))

    if codec is None:
        codec = WordCodec.build(
            text for _, title, body in staged for text in (title, body)
        )
    encode = codec.encode
    documents = [
        Document(doc_id, tuple(encode(title)), array("I", encode(body)))
        for doc_id, title, body in staged
    ]
    return Corpus(documents=documents, codec=codec)


def _validate_record(position: int, record: Mapping) -> tuple[str, str, list[str]]:
    label = record.get("id", f"#{position}")
    if not isinstance(record.get("id"), str) or not record["id"]:
        raise IngestError(f"record {label!r}: missing or non-string 'id'")
    if not isinstance(record.get("title"), str):
        raise IngestError(f"record {label!r}: missing or non-string 'title'")
    text = record.get("text")
    if not isinstance(text, list) or not all(isinstance(f, str) for f in text):
        raise IngestError(f"record {label!r}: 'text' must be an array of strings")
    return record["id"], record["title"], text


def iter_jsonl_records(path: str) -> Iterator[Mapping]:
    """Yield parsed JSON objects from a line-delimited file.

    Blank lines are ignored; a malformed line raises IngestError naming the
    line number.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise IngestError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise IngestError(f"{path}:{lineno}: record is not a JSON object")
            yield obj


def load_jsonl_corpus(path: str) -> Corpus:
    return ingest_corpus(iter_jsonl_records(path))


# -- persistence ------------------------------------------------------------


def save_corpus(corpus: Corpus, handle: BinaryIO) -> None:
    writer = Writer(handle)
    writer.header(KIND_CORPUS)
    writer.text(corpus.codec.kind)
    writer.text(corpus.codec.policy)
    surfaces = corpus.codec.surfaces()
    writer.u64(len(surfaces))
    for surface in surfaces:
        writer.text(surface)
    writer.u64(len(corpus.documents))
    for doc in corpus.documents:
        writer.text(doc.doc_id)
        writer.u32_seq(doc.title_tokens)
        writer.u32_seq(doc.body_tokens)


def load_corpus(handle: BinaryIO) -> Corpus:
    reader = Reader(handle)
    reader.header(KIND_CORPUS)
    kind = reader.text()
    policy = reader.text()
    if kind not in _CODEC_KINDS:
        raise IngestError(f"unknown codec kind {kind!r}")
    surfaces = [reader.text() for _ in range(reader.u64())]
    codec = _CODEC_KINDS[kind](surfaces)
    if codec.policy != policy:
        raise IngestError(
            f"codec policy mismatch: file says {policy!r}, "
            f"codec implements {codec.policy!r}"
        )
    documents = []
    for _ in range(reader.u64()):
        doc_id = reader.text()
        title_tokens = tuple(reader.u32_array())
        documents.append(Document(doc_id, title_tokens, reader.u32_array()))
    return Corpus(documents=documents, codec=codec)
