"""Command-line front end: build artifacts, run recalls, evaluate, sweep.

Exit codes: 0 success, 1 usage, 2 data error (unreadable, undecodable or
malformed inputs, missing or tampered artifacts, unreachable endpoint),
3 internal inconsistency (index and text disagree, which means a bug, not
bad data).

``load_artifacts`` parses the bytes whose digest it checked; making the
``Corpus`` checks every document, each index section is checked against its
document, and the stored trie section must equal the trie the titles make.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import logging
import mmap
import os
import sys
import time
from dataclasses import dataclass, replace
from typing import Sequence

from . import __version__
from .corpus import Corpus, IngestError, load_corpus, load_jsonl_corpus, save_corpus
from .evaluation import (
    EvalItem,
    GoldFormatError,
    aggregate,
    evaluate_item,
    load_gold,
    report_json,
    report_table,
)
from .fmindex import BWTIndex, build_suffix_array, load_index, save_index
from .pipeline import (
    DeadEndError,
    InternalInconsistencyError,
    RecallConfig,
    RecallEngine,
    Reference,
)
from .scorer import (
    NGRAM_ORDER,
    STAGE_ONE,
    STAGE_TWO,
    PromptTemplate,
    RemoteScorer,
    ScorerError,
    corpus_scorer,
    default_templates,
)
from .storage import FORMAT_VERSION, StorageError
from .trie import TitleTrie, build_trie, save_trie, trie_section

logger = logging.getLogger(__name__)

ENDPOINT_ENV = "PASSRECALL_ENDPOINT"
MANIFEST_NAME = "manifest.json"
ARTIFACT_NAME = "artifacts.bin"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class DataError(RuntimeError):
    """Anything wrong with inputs or on-disk artifacts; maps to exit 2."""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this project reserves 2 for data."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _sha256(handle) -> str:
    """Digest of an open binary file from its position to its end."""
    digest = hashlib.sha256()
    for block in iter(lambda: handle.read(65536), b""):
        digest.update(block)
    return digest.hexdigest()


# -- build -------------------------------------------------------------------


def cmd_build(args: argparse.Namespace) -> int:
    corpus = load_jsonl_corpus(args.corpus)
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, ARTIFACT_NAME), "w+b") as handle:
        save_corpus(corpus, handle)
        save_trie(build_trie(corpus), handle)
        # An index section holds only the suffix array; load builds the rest.
        for doc in corpus.documents:
            save_index(doc.doc_id, build_suffix_array(doc.body_tokens[::-1]), handle)
        artifact_bytes = handle.tell()
        handle.seek(0)
        manifest = {
            "artifact_digest": _sha256(handle),
            "format_version": FORMAT_VERSION,
        }
    # No trailing newline: cutting any byte off the file leaves invalid JSON.
    with open(os.path.join(args.out, MANIFEST_NAME), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)

    print(
        f"documents: {len(corpus.documents)}\n"
        f"vocabulary: {corpus.codec.vocab_size}\n"
        f"artifact bytes: {artifact_bytes}"
    )
    return EXIT_OK


# -- artifact loading --------------------------------------------------------


@dataclass
class Artifacts:
    corpus: Corpus
    trie: TitleTrie
    indexes: dict[str, BWTIndex]
    digest: str


def load_artifacts(index_dir: str) -> Artifacts:
    """Check the manifest, then read and check every section."""
    with open(os.path.join(index_dir, MANIFEST_NAME), encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DataError(f"manifest unreadable: {exc}") from exc
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != FORMAT_VERSION:
        raise DataError(
            f"manifest must be a JSON object with format_version {FORMAT_VERSION}"
        )
    # Hash and parse one private copy, so a file rewritten meanwhile is not
    # parsed.  A map, not bytes: freeing a large malloc'd buffer raised
    # training's peak RSS by 2-3 MB.  A map cannot be empty, hence the 1.
    path = os.path.join(index_dir, ARTIFACT_NAME)
    size = max(os.path.getsize(path), 1)
    with open(path, "rb") as fh, mmap.mmap(-1, size) as handle:
        length = fh.readinto(handle)
        digest = hashlib.sha256(handle).hexdigest()
        if manifest.get("artifact_digest") != digest:
            raise DataError(
                f"{ARTIFACT_NAME} does not match the manifest's artifact_digest"
            )
        corpus = load_corpus(handle)
        trie = build_trie(corpus)
        # The section format is self-delimiting, so stored bytes equal to
        # the expected section over its length are the whole stored section.
        expected = trie_section(trie)
        if handle.read(len(expected)) != expected:
            raise DataError("the stored title trie is not the one the titles make")
        indexes = {doc.doc_id: load_index(handle, doc) for doc in corpus.documents}
        if handle.tell() != length:
            raise DataError(f"{ARTIFACT_NAME} holds bytes after its last section")
    return Artifacts(corpus=corpus, trie=trie, indexes=indexes, digest=digest)


# -- recall ------------------------------------------------------------------


def _read_queries(path: str) -> list[str]:
    # utf-8-sig drops a leading byte order mark, which strip() keeps.
    with open(path, "r", encoding="utf-8-sig") as fh:
        return [line.strip() for line in fh if line.strip()]


def _build_config(args: argparse.Namespace) -> RecallConfig:
    """Defaults, then config file, then explicit flags, in rising precedence."""
    settings: dict = {}
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_conf = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DataError(f"cannot read config file: {exc}") from exc
        if not isinstance(file_conf, dict):
            raise DataError("config file must hold a JSON object")
        settings.update(file_conf)

    for name in ("alpha", "k", "beam1", "beam2", "prefix_len", "passage_len"):
        value = getattr(args, name)
        if value is not None:
            settings[name] = value
    if args.rescore_full_passage:
        settings["rescore_full_passage"] = True

    task = settings.pop("task", None)
    if args.task is not None:
        task = args.task
    templates = default_templates()
    if task is not None:
        if not isinstance(task, str) or task not in templates:
            raise DataError(f"unknown task {task!r}")
        settings.setdefault("stage1_template", templates[task][STAGE_ONE].template)
        settings.setdefault("stage2_template", templates[task][STAGE_TWO].template)
    if args.stage1_template is not None:
        settings["stage1_template"] = args.stage1_template
    if args.stage2_template is not None:
        settings["stage2_template"] = args.stage2_template
    if task is None and args.scorer == "ngram":
        # The order-3 scorer sees only a prompt's last two tokens, and every
        # packaged template ends in the same words, so with those it would
        # score every query alike.  The bare query is what it can use.
        settings.setdefault("stage1_template", "{}")
        settings.setdefault("stage2_template", "{}")
    try:
        for name in ("stage1_template", "stage2_template"):
            if name in settings:
                settings[name] = PromptTemplate(settings[name])
        return RecallConfig(**settings)
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad configuration: {exc}") from exc


def _make_scorer(args: argparse.Namespace, artifacts: Artifacts):
    if args.scorer == "ngram":
        scorer_info = {"type": "ngram", "order": NGRAM_ORDER}
        return corpus_scorer(artifacts.corpus), scorer_info
    endpoint = args.endpoint or os.environ.get(ENDPOINT_ENV)
    if not endpoint:
        raise DataError(
            f"remote scorer needs --endpoint or ${ENDPOINT_ENV}"
        )
    try:
        scorer = RemoteScorer(
            endpoint=endpoint,
            vocab_hash=artifacts.corpus.codec.vocab_hash(),
            timeout=args.timeout,
            retries=args.retries,
        )
    except ValueError as exc:
        raise DataError(f"bad remote scorer setting: {exc}") from exc
    return scorer, {"type": "remote", "endpoint": endpoint}


def _reference_record(ref: Reference) -> dict:
    return {
        "doc_id": ref.doc_id,
        "title": ref.title,
        "start": ref.start,
        "passage_text": ref.passage_text,
        "score1": ref.score1,
        "score2": ref.score2,
        "combined": ref.combined,
    }


def run_recall_batch(engine: RecallEngine, queries: Sequence[str]) -> list[dict]:
    """One record per query, input order preserved."""
    records = []
    for query in queries:
        try:
            references = engine.recall(query)
        except DeadEndError as exc:
            logger.warning("query %r: %s", query, exc)
            references = []
        records.append(
            {
                "query": query,
                "references": [_reference_record(r) for r in references],
            }
        )
    return records


def _metadata_line(artifacts: Artifacts, config: RecallConfig, scorer_info) -> str:
    metadata = {
        "config": config.described(),
        "artifact_digest": artifacts.digest,
        "document_count": len(artifacts.corpus.documents),
        "scorer": scorer_info,
        "tool_version": __version__,
    }
    return json.dumps({"metadata": metadata}, ensure_ascii=False, sort_keys=True)


def cmd_recall(args: argparse.Namespace) -> int:
    artifacts = load_artifacts(args.index_dir)
    config = _build_config(args)
    scorer, scorer_info = _make_scorer(args, artifacts)
    engine = RecallEngine(
        artifacts.corpus, artifacts.trie, artifacts.indexes, scorer, config
    )
    queries = _read_queries(args.queries)

    started = time.monotonic()
    records = run_recall_batch(engine, queries)
    elapsed = time.monotonic() - started
    logger.info("recalled %d queries in %.2fs", len(queries), elapsed)

    lines = [_metadata_line(artifacts, config, scorer_info)]
    # Every line is made before any is written, so a bad record leaves no file.
    for record in records:
        try:
            lines.append(
                json.dumps(record, ensure_ascii=False, sort_keys=True, allow_nan=False)
            )
        except ValueError as exc:
            raise DataError(
                f"query {record['query']!r}: a score is not finite, "
                "so the record is not JSON"
            ) from exc
    payload = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


# -- evaluate ----------------------------------------------------------------


def _is_recall_record(record) -> bool:
    refs = record.get("references") if isinstance(record, dict) else None
    return (
        isinstance(refs, list)
        and isinstance(record.get("query"), str)
        and all(
            isinstance(ref, dict)
            and isinstance(ref.get("doc_id"), str)
            and isinstance(ref.get("passage_text"), str)
            for ref in refs
        )
    )


def read_recall_output(path: str) -> tuple[dict, list[dict]]:
    """Split a recall output file into its metadata header and records."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(number, line) for number, line in enumerate(fh, 1) if line.strip()]
    if not lines:
        raise DataError("recall output is empty")
    try:
        header, *records = [json.loads(line) for _, line in lines]
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DataError(f"recall output unreadable: {exc}") from exc
    if not isinstance(header, dict) or "metadata" not in header:
        raise DataError("recall output lacks the metadata header line")
    for (number, _), record in zip(lines[1:], records):
        if not _is_recall_record(record):
            raise DataError(
                f"recall output line {number} is not a record with a string "
                "query and a list of references, each with a string doc_id "
                "and passage_text"
            )
    return header["metadata"], records


def _evaluate_records(
    items: Sequence[EvalItem], records: Sequence[dict]
):
    by_query: dict[str, dict] = {}
    for record in records:
        by_query.setdefault(record["query"], record)
    results = []
    for item in items:
        record = by_query.get(item.query)
        if record is None:
            raise DataError(f"no recall output for query {item.query!r}")
        refs = record["references"]
        doc_ids = [r["doc_id"] for r in refs]
        top_passage = refs[0]["passage_text"] if refs else ""
        results.append(evaluate_item(item, doc_ids, top_passage))
    return aggregate(results)


def _load_evaluable_gold(path: str) -> list[EvalItem]:
    """Gold items, at least one of them with provenance or answers to score."""
    items = load_gold(path)
    if not any(item.gold_provenance or item.gold_answers for item in items):
        raise DataError(
            f"gold file {path} holds no item with gold_provenance or "
            "gold_answers to evaluate"
        )
    return items


def cmd_evaluate(args: argparse.Namespace) -> int:
    _, records = read_recall_output(args.recall_output)
    items = _load_evaluable_gold(args.gold)
    report = _evaluate_records(items, records)
    text = report_table(report) if args.table else report_json(report)
    print(text)
    return EXIT_OK


# -- sweep -------------------------------------------------------------------

_SWEEP_AXES = {
    "alpha": float,
    "prefix_len": int,
    "k": int,
    "beam1": int,
    "beam2": int,
}


def cmd_sweep(args: argparse.Namespace) -> int:
    caster = _SWEEP_AXES.get(args.axis)
    if caster is None:
        raise DataError(f"unknown sweep axis {args.axis!r}")
    try:
        values = [caster(v) for v in args.values.split(",") if v.strip()]
    except ValueError as exc:
        raise DataError(f"bad sweep values: {exc}") from exc
    if not values:
        raise DataError("no sweep values given")

    # Every swept config and the gold file are checked before the costly
    # load and training.
    base_config = _build_config(args)
    try:
        configs = [replace(base_config, **{args.axis: value}) for value in values]
    except (TypeError, ValueError) as exc:
        raise DataError(f"bad sweep value: {exc}") from exc
    items = _load_evaluable_gold(args.gold)
    artifacts = load_artifacts(args.index_dir)
    scorer, _ = _make_scorer(args, artifacts)
    queries = [item.query for item in items]

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([args.axis, "r_precision", "in_context"])
    for value, config in zip(values, configs):
        engine = RecallEngine(
            artifacts.corpus, artifacts.trie, artifacts.indexes, scorer, config
        )
        records = run_recall_batch(engine, queries)
        report = _evaluate_records(items, records)
        writer.writerow(
            [
                value,
                "" if report.r_precision_mean is None else report.r_precision_mean,
                "" if report.in_context_rate is None else report.in_context_rate,
            ]
        )
        logger.info("sweep %s=%s done", args.axis, value)

    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(buffer.getvalue())
    else:
        sys.stdout.write(buffer.getvalue())
    return EXIT_OK


# -- argument wiring ---------------------------------------------------------


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("recall configuration")
    group.add_argument("--config", help="JSON file with configuration fields")
    group.add_argument("--alpha", type=float, default=None)
    group.add_argument("--k", type=int, default=None)
    group.add_argument("--beam1", type=int, default=None)
    group.add_argument("--beam2", type=int, default=None)
    group.add_argument("--prefix-len", dest="prefix_len", type=int, default=None)
    group.add_argument("--passage-len", dest="passage_len", type=int, default=None)
    group.add_argument(
        "--rescore-full-passage",
        dest="rescore_full_passage",
        action="store_true",
        help="re-score the whole extracted passage instead of the prefix",
    )
    group.add_argument(
        "--task",
        choices=sorted(default_templates()),
        default=None,
        help="select the packaged prompt templates for this task form",
    )
    group.add_argument("--stage1-template", dest="stage1_template", default=None)
    group.add_argument("--stage2-template", dest="stage2_template", default=None)

    scorer = parser.add_argument_group("scorer")
    scorer.add_argument(
        "--scorer", choices=("ngram", "remote"), default="ngram"
    )
    scorer.add_argument(
        "--endpoint",
        default=None,
        help=f"remote scorer URL (or set ${ENDPOINT_ENV})",
    )
    scorer.add_argument("--timeout", type=float, default=10.0)
    scorer.add_argument("--retries", type=int, default=2)


def build_parser() -> _Parser:
    parser = _Parser(prog="passrecall", description=__doc__)
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log progress to stderr"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="ingest a corpus and build artifacts")
    p_build.add_argument("--corpus", required=True, help="JSONL corpus file")
    p_build.add_argument("--out", required=True, help="artifact directory")
    p_build.set_defaults(func=cmd_build)

    p_recall = sub.add_parser("recall", help="run queries against built artifacts")
    p_recall.add_argument("--index-dir", dest="index_dir", required=True)
    p_recall.add_argument("--queries", required=True, help="one query per line")
    p_recall.add_argument("--output", default=None, help="default stdout")
    _add_config_flags(p_recall)
    p_recall.set_defaults(func=cmd_recall)

    p_eval = sub.add_parser("evaluate", help="score a recall output against gold")
    p_eval.add_argument("--recall-output", dest="recall_output", required=True)
    p_eval.add_argument("--gold", required=True, help="JSONL gold file")
    p_eval.add_argument(
        "--table", action="store_true", help="print the aligned table, not JSON"
    )
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="evaluate across one axis of values")
    p_sweep.add_argument("--index-dir", dest="index_dir", required=True)
    p_sweep.add_argument("--gold", required=True)
    p_sweep.add_argument("--axis", required=True, choices=sorted(_SWEEP_AXES))
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--output", default=None, help="CSV out, default stdout")
    _add_config_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except (
        DataError,
        IngestError,
        StorageError,
        GoldFormatError,
        ScorerError,
        OSError,
        UnicodeDecodeError,
    ) as exc:
        logger.error("%s", exc)
        return EXIT_DATA
    except InternalInconsistencyError as exc:
        logger.error("internal inconsistency: %s", exc)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
