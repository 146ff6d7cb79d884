"""Independent checks of `passrecall recall` output against the input JSONL.

Nothing here uses the program's code: documents are the input records'
fragments joined by single spaces and split on whitespace, which for the
generated corpora (no punctuation) is exactly the program's tokenization.
"""

from __future__ import annotations

import copy
import json
import math

ALPHA = 0.9
PREFIX_LEN = 16
PASSAGE_LEN = 150


def load_documents(corpus_path: str) -> dict[str, tuple[str, list[str]]]:
    """doc id -> (title, body words)."""
    docs = {}
    with open(corpus_path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            docs[record["id"]] = (record["title"], " ".join(record["text"]).split())
    return docs


def read_output(path: str) -> list[dict]:
    """The per-query records of a recall output, metadata line dropped."""
    with open(path, encoding="utf-8") as fh:
        lines = [json.loads(line) for line in fh if line.strip()]
    if not lines or "metadata" not in lines[0]:
        raise ValueError(f"{path}: no metadata header line")
    return lines[1:]


def _first_occurrence(words: list[str], pattern: list[str]) -> int:
    """Smallest i with words[i:i+len(pattern)] == pattern (naive scan), or -1."""
    i = -1
    while True:
        try:
            i = words.index(pattern[0], i + 1)
        except ValueError:
            return -1
        if words[i:i + len(pattern)] == pattern:
            return i


def reference_ok(ref: dict, docs: dict) -> bool:
    entry = docs.get(ref.get("doc_id"))
    if entry is None or ref.get("title") != entry[0]:
        return False
    words, start = entry[1], ref.get("start")
    if not isinstance(start, int) or not 0 <= start < len(words):
        return False
    passage = words[start:start + PASSAGE_LEN]
    if ref.get("passage_text") != " ".join(passage):
        return False
    if _first_occurrence(words, passage[:PREFIX_LEN]) != start:
        return False
    expected = ALPHA * ref["score1"] + (1 - ALPHA) * ref["score2"]
    return math.isclose(ref["combined"], expected, rel_tol=1e-9, abs_tol=1e-12)


def record_ok(record: dict, query: str, docs: dict) -> bool:
    """A query passes when it has references and every one of them checks."""
    refs = record.get("references") or []
    if record.get("query") != query or not refs:
        return False
    combined = [ref.get("combined") for ref in refs]
    if any(not isinstance(c, float) for c in combined):
        return False
    if any(a < b for a, b in zip(combined, combined[1:])):
        return False
    return all(reference_ok(ref, docs) for ref in refs)


def r_precision(records: list[dict], sources: list[str]) -> float:
    """Page-level R-precision in percent with R = 1: top document == source."""
    hits = sum(
        1 for record, source in zip(records, sources)
        if record.get("references") and record["references"][0]["doc_id"] == source
    )
    return 100.0 * hits / len(sources)


def self_test(record: dict, query: str, docs: dict) -> bool:
    """True when record_ok flags a passage shifted by one word and a wrong title."""
    if not record_ok(record, query, docs):
        return False
    ref = record["references"][0]
    words = docs[ref["doc_id"]][1]
    shifted = copy.deepcopy(record)
    shifted["references"][0]["passage_text"] = " ".join(
        words[ref["start"] + 1:ref["start"] + 1 + PASSAGE_LEN])
    retitled = copy.deepcopy(record)
    retitled["references"][0]["title"] = next(
        title for doc_id, (title, _) in docs.items() if doc_id != ref["doc_id"])
    return not record_ok(shifted, query, docs) and not record_ok(retitled, query, docs)
