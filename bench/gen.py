"""Input generator for the benchmark: corpus JSONL, queries, sources.

Every input is a pure function of (workload, seed).  Words are plain
letter-digit runs with no punctuation, so whitespace splitting a body gives
exactly the tokens the program sees, which is what lets the checker work
from the JSONL alone.  This file imports nothing from the program or its
tests.

    python3 bench/gen.py --workload many-docs --seed 1 --out DIR

writes DIR/corpus.jsonl, DIR/queries.txt (one excerpt query per line) and
DIR/sources.txt (the document id each query was cut from, same line).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
from dataclasses import dataclass

EXCERPT_LEN = 30
# Each query ends at least this many words before its document's end, so
# the words that follow it, which stage 2 should decode, exist.
TAIL_MARGIN = 60


@dataclass(frozen=True)
class Shape:
    docs: int
    body_len: int  # mean words per body; each body varies by +-5%
    pool: int  # distinct words private to each document
    shared_vocab: int  # size of the Zipf-like vocabulary all documents share
    shared_share: float  # fraction of body words drawn from it
    queries: int


SHAPES = {
    "many-docs": Shape(docs=1000, body_len=400, pool=120, shared_vocab=0,
                       shared_share=0.0, queries=2500),
    "long-docs": Shape(docs=20, body_len=20000, pool=2000, shared_vocab=3000,
                       shared_share=0.5, queries=400),
}


def _body(rng: random.Random, shape: Shape, d: int, shared_cum: list[float]):
    length = shape.body_len + rng.randrange(-shape.body_len // 20,
                                            shape.body_len // 20 + 1)
    private = [f"d{d:04d}w{j:04d}" for j in range(shape.pool)]
    n_shared = round(length * shape.shared_share)
    words = rng.choices(private, k=length - n_shared)
    if n_shared:
        shared = rng.choices(range(shape.shared_vocab), cum_weights=shared_cum,
                             k=n_shared)
        words += [f"s{j:04d}" for j in shared]
        rng.shuffle(words)
    return words


def generate(workload: str, seed: int):
    """(records, queries, sources) for one workload and seed."""
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    # Zipf weights 1/rank over the shared vocabulary.
    shared_cum = list(itertools.accumulate(
        1.0 / (rank + 1) for rank in range(shape.shared_vocab)))
    records, bodies = [], []
    for d in range(shape.docs):
        words = _body(rng, shape, d, shared_cum)
        bodies.append(words)
        # Title words never occur in bodies, so stage-1 candidates stay apart
        # from body continuations.
        records.append({
            "id": f"doc-{d:04d}",
            "title": f"topic{d:04d} study{d:04d}",
            "text": [" ".join(words)],
        })
    queries, sources = [], []
    for _ in range(shape.queries):
        d = rng.randrange(shape.docs)
        words = bodies[d]
        start = rng.randrange(len(words) - EXCERPT_LEN - TAIL_MARGIN)
        queries.append(" ".join(words[start:start + EXCERPT_LEN]))
        sources.append(records[d]["id"])
    return records, queries, sources


def write(workload: str, seed: int, out: str) -> None:
    records, queries, sources = generate(workload, seed)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "corpus.jsonl"), "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    with open(os.path.join(out, "queries.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(queries) + "\n")
    with open(os.path.join(out, "sources.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(sources) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    write(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
