"""Prefix tree over title token sequences.

Stage one of the recall pipeline decodes under this trie so every finished
sequence is the exact token sequence of an existing title.  A terminal node
carries the document id its root-to-node path spells; the end-of-sequence
id (0) shows up in the allowed set exactly at terminal nodes.
"""

from __future__ import annotations

import io
from typing import BinaryIO, Sequence

from .corpus import END_ID, Corpus
from .storage import KIND_TRIE, Writer


class TrieNode:
    __slots__ = ("children", "doc_id")

    def __init__(self) -> None:
        self.children: dict[int, TrieNode] = {}
        self.doc_id: str | None = None


class TitleTrie:
    """Token-level prefix tree mapping complete titles to document ids."""

    def __init__(self) -> None:
        self.root = TrieNode()
        self.max_depth = 0

    def insert(self, tokens: Sequence[int], doc_id: str) -> None:
        if not tokens:
            raise ValueError("cannot insert an empty title")
        node = self.root
        for token in tokens:
            child = node.children.get(token)
            if child is None:
                child = TrieNode()
                node.children[token] = child
            node = child
        if node.doc_id is not None:
            raise ValueError(
                f"title path already terminates at document {node.doc_id!r}"
            )
        node.doc_id = doc_id
        self.max_depth = max(self.max_depth, len(tokens))

    def node(self, prefix: Sequence[int]) -> TrieNode | None:
        """Node reached by ``prefix``, or None when the prefix leaves the trie."""
        node = self.root
        for token in prefix:
            node = node.children.get(token)
            if node is None:
                return None
        return node

    def allowed_next(self, prefix: Sequence[int]) -> set[int]:
        """Tokens that can legally follow ``prefix``.

        Child edge labels of the reached node, plus id 0 when the node is
        terminal.  An off-trie prefix is a legal query and yields the empty
        set.
        """
        node = self.node(prefix)
        if node is None:
            return set()
        return self.allowed_at(node)

    @staticmethod
    def allowed_at(node: TrieNode) -> set[int]:
        allowed = set(node.children)
        if node.doc_id is not None:
            allowed.add(END_ID)
        return allowed

    def resolve_title(self, tokens: Sequence[int]) -> str | None:
        """Document id iff ``tokens`` spells a complete title."""
        node = self.node(tokens)
        return node.doc_id if node is not None else None


def build_trie(corpus: Corpus) -> TitleTrie:
    if not corpus.documents:
        raise ValueError("cannot build a title trie from an empty corpus")
    trie = TitleTrie()
    for doc in corpus.documents:
        trie.insert(doc.title_tokens, doc.doc_id)
    return trie


def save_trie(trie: TitleTrie, handle: BinaryIO) -> None:
    handle.write(trie_section(trie))


def trie_section(trie: TitleTrie) -> bytes:
    """The trie's artifact section.

    Nodes in pre-order, children by ascending token, each child after its
    token; an explicit stack keeps very long titles off the call stack.
    """
    buffer = io.BytesIO()
    writer = Writer(buffer)
    writer.header(KIND_TRIE)
    stack: list[tuple[int | None, TrieNode]] = [(None, trie.root)]
    while stack:
        token, node = stack.pop()
        if token is not None:
            writer.u32(token)
        writer.u8(1 if node.doc_id is not None else 0)
        if node.doc_id is not None:
            writer.text(node.doc_id)
        writer.u64(len(node.children))
        for child_token in sorted(node.children, reverse=True):
            stack.append((child_token, node.children[child_token]))
    return buffer.getvalue()
