"""Per-document FM-indexes over token sequences.

The index is the Burrows-Wheeler transform of the document plus a sentinel,
with a full suffix array retained for exact locate.  Every index is built
over the *reversed* body, so appending a token to a left-to-right generated
prefix is one backward-extension step, while patterns and positions stay in
the body's own left-to-right coordinates.  Backward extension is a pair of
rank queries answered by binary search inside one symbol's group of BWT
rows; the tokens that can follow a prefix are the distinct symbols in its
BWT rows, read from the symbol table for the full range and by one scan of
the rows for any narrower one.  A range is two plain ints, the half-open
rows ``[lo, hi)``, empty when ``lo >= hi``, and the full range is
``(0, len(sa))``.  The index answers only what recall asks: a pattern's
range is reached one backward extension per token, as the stage-2
constraint steps, and ``starts`` reads the pattern's positions off that
range.  Every table is a flat ``array('I')``.  An
index section stores only the document id and the suffix array, so
``passrecall build`` computes only the suffix array; ``load_index`` checks
the stored id against the document's and builds the BWT and rank tables
from the suffix array and the body tokens.  ``BWTIndex.build`` makes a
whole index in memory.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import defaultdict, deque
from itertools import accumulate, chain, repeat
from operator import add, mul, ne, setitem
from typing import BinaryIO, Sequence

from .corpus import FIRST_ID, SENTINEL_ID, Document
from .storage import KIND_FMINDEX, Reader, StorageError, Writer


def build_suffix_array(tokens: Sequence[int]) -> list[int]:
    """Suffix array of ``tokens`` plus an implicit trailing sentinel.

    Prefix doubling (Manber and Myers, 1993).  The returned array has length
    n+1 and is a permutation of 0..n; the sentinel suffix (position n) sorts
    first because the sentinel ranks below every token id.

    Before a round with step ``step``, ``rank[i]`` orders suffix i by its
    first ``step`` tokens.  The round sorts by one integer key per suffix,
    ``rank[i] * base + rank[i + step] + 1``, or ``rank[i] * base`` when
    ``i + step`` is past the end, with ``base = max(rank) + 2``; the key
    orders by the first ``2 * step`` tokens, a suffix that ends first sorting
    first.  The first round ranks by raw token id with the sentinel as 0, so
    its keys reach about 2**64; later ranks are below n and later keys below
    (n + 1)**2.  A round is a key pass, a sort of the previous order
    (already sorted by rank, so timsort finds long presorted runs) and a rank
    pass, all in C loops: O(n log n).  Rounds stop once every rank differs,
    after ceil(log2(L + 1)) of them for a longest repeated substring of L
    tokens, and at least one.
    """
    if SENTINEL_ID in tokens:
        raise ValueError("input may not contain the sentinel id")
    rank = [*tokens, 0]
    n = len(rank)
    sa = list(range(n))
    step = 1
    while True:
        base = max(rank) + 2
        second = chain(map(add, rank[step:], repeat(1)), repeat(0))
        keys = list(map(add, map(mul, rank, repeat(base)), second))
        sa.sort(key=keys.__getitem__)
        ordered = list(map(keys.__getitem__, sa))
        # A suffix's new rank counts the key changes before it in sorted order.
        new_ranks = accumulate(map(ne, ordered[1:], ordered), initial=0)
        deque(map(setitem, repeat(rank), sa, new_ranks), maxlen=0)
        if rank[sa[-1]] == n - 1:
            return sa
        step *= 2


def bwt_from_sa(tokens: Sequence[int], sa: Sequence[int]) -> array:
    """Last column of the sorted rotations: text[sa[i]-1], sentinel at sa[i]=0."""
    last = [SENTINEL_ID, *tokens]  # last[pos] == text[pos - 1]
    return array("I", map(last.__getitem__, sa))


class BWTIndex:
    """FM-index over one document's reversed token sequence.

    Patterns and positions are expressed in original (unreversed)
    coordinates; the reversal is handled internally.  ``occ`` holds the BWT
    rows grouped by symbol, ascending within each group; ``symbols`` holds
    the sorted distinct symbols, and the group of ``symbols[i]`` is
    ``occ[bounds[i]:bounds[i + 1]]``.  So ``bounds[i]`` is the C-table entry
    of ``symbols[i]``, and a row's place in ``occ`` is its LF-mapped row.
    ``body`` is the token sequence the index was built from, held by
    reference, not copied, so a caller can read a document's text past a
    prefix with one occurrence.  An index holds no document id, since
    callers key it by one.  Every query takes and returns a range as the
    two rows ``lo, hi``.
    """

    def __init__(self, tokens: Sequence[int], sa: array):
        """``sa`` is the suffix array of ``tokens`` reversed."""
        self.body = tokens
        self.bwt = bwt_from_sa(tokens[::-1], sa)
        self.sa = sa
        groups: dict[int, list[int]] = defaultdict(list)
        for row, symbol in enumerate(self.bwt):
            groups[symbol].append(row)
        self.symbols = array("I", sorted(groups))
        self.occ = array("I")
        self.bounds = array("I", [0])
        for symbol in self.symbols:
            self.occ.extend(groups[symbol])
            self.bounds.append(len(self.occ))

    @classmethod
    def build(cls, tokens: Sequence[int]) -> "BWTIndex":
        if min(tokens, default=FIRST_ID) < FIRST_ID:
            raise ValueError("document tokens may not contain reserved ids")
        return cls(tokens, array("I", build_suffix_array(tokens[::-1])))

    def backward_extend(self, lo: int, hi: int, symbol: int) -> tuple[int, int]:
        """Narrow rows [lo, hi) to the rows whose suffixes start with
        symbol+pattern; an empty pair when the symbol is absent."""
        symbols = self.symbols
        i = bisect_left(symbols, symbol)
        if i == len(symbols) or symbols[i] != symbol:
            return 0, 0
        occ, first, last = self.occ, self.bounds[i], self.bounds[i + 1]
        return bisect_left(occ, lo, first, last), bisect_left(occ, hi, first, last)

    def range_successors(self, lo: int, hi: int) -> set[int]:
        """Distinct non-sentinel symbols of bwt[lo:hi): the symbols whose
        backward extension of rows [lo, hi) is nonempty.

        The full range holds every symbol, so its answer is read from
        ``symbols``; any other range is one scan of its BWT rows.
        """
        if lo == 0 and hi == len(self.sa):
            successors = set(self.symbols)
        else:
            successors = set(self.bwt[lo:hi])
        successors.discard(SENTINEL_ID)
        return successors

    def starts(self, lo: int, hi: int, length: int) -> list[int]:
        """Sorted start offsets of the ``length``-token pattern matched by
        rows [lo, hi).

        Row r's suffix of the reversed text begins with the reversed pattern,
        so the pattern ends at n - 1 - sa[r] in an original text of n tokens,
        where ``sa`` holds n + 1 rows.
        """
        shift = len(self.sa) - 1 - length
        return sorted(shift - pos for pos in self.sa[lo:hi])


def save_index(doc_id: str, sa: Sequence[int], handle: BinaryIO) -> None:
    """Write the index section of ``doc_id``: its id and its suffix array."""
    writer = Writer(handle)
    writer.header(KIND_FMINDEX)
    writer.text(doc_id)
    writer.u32_seq(sa)


def load_index(handle: BinaryIO, doc: Document) -> BWTIndex:
    """Read the index section of ``doc`` and rebuild its BWT from its body."""
    reader = Reader(handle)
    reader.header(KIND_FMINDEX)
    doc_id = reader.text()
    sa = reader.u32_array()
    rows = len(doc.body_tokens) + 1
    # n+1 distinct entries, none above n, are exactly 0..n.
    is_permutation = len(sa) == rows and max(sa) < rows and len(set(sa)) == rows
    if doc_id != doc.doc_id or not is_permutation:
        raise StorageError(
            f"index section of {doc_id!r} does not hold a suffix array over "
            f"the {len(doc.body_tokens)} body tokens of document {doc.doc_id!r}"
        )
    return BWTIndex(doc.body_tokens, sa)
