"""Page- and passage-level metrics over recall outputs.

R-Precision checks whether the right documents lead the ranking: with R
gold pages, it is the fraction of gold found in the top R distinct
predictions.  Answer-in-Context checks whether the best returned passage
contains any gold answer string, after normalizing case, punctuation
spacing, and whitespace on both sides.  Both are reported as percentages
rounded to two decimals.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from .corpus import split_text


class GoldFormatError(ValueError):
    """A gold record is missing fields or malformed."""


@dataclass(frozen=True)
class EvalItem:
    query: str
    gold_provenance: tuple[str, ...] = ()
    gold_answers: tuple[str, ...] = ()


@dataclass(frozen=True)
class ItemResult:
    """Per-item outcomes; None marks a metric the item does not carry."""

    query: str
    r_precision: float | None
    in_context: bool | None


@dataclass(frozen=True)
class EvalReport:
    r_precision_mean: float | None
    in_context_rate: float | None
    items: tuple[ItemResult, ...]
    skipped_provenance: int
    skipped_answers: int


def normalize_for_match(text: str) -> str:
    """Casefolded canonical form with punctuation split off and spaces collapsed."""
    return " ".join(split_text(text.casefold()))


def r_precision(
    predicted_doc_ids: Sequence[str], gold_provenance: Iterable[str]
) -> float:
    """|top-R distinct predictions ∩ gold| / R, with R = |gold|."""
    gold = set(gold_provenance)
    if not gold:
        raise ValueError("gold provenance must be nonempty")
    distinct: list[str] = []
    for doc_id in predicted_doc_ids:
        if doc_id not in distinct:
            distinct.append(doc_id)
        if len(distinct) == len(gold):
            break
    return len(set(distinct) & gold) / len(gold)


def answer_in_context(passage_text: str, gold_answers: Iterable[str]) -> bool:
    """Whether any normalized gold string occurs inside the normalized passage."""
    haystack = normalize_for_match(passage_text)
    return any(
        normalize_for_match(answer) in haystack
        for answer in gold_answers
        if answer
    )


def evaluate_item(
    item: EvalItem, predicted_doc_ids: Sequence[str], top_passage: str
) -> ItemResult:
    """Score one gold item against a ranked prediction.

    ``predicted_doc_ids`` is the reference ranking (duplicates fine) and
    ``top_passage`` the best reference's text, empty if nothing came back.
    An item without gold provenance skips the page metric; one without gold
    answers skips the passage metric.
    """
    rp: float | None = None
    if item.gold_provenance:
        rp = r_precision(predicted_doc_ids, item.gold_provenance)
    ic: bool | None = None
    if item.gold_answers:
        ic = answer_in_context(top_passage, item.gold_answers)
    return ItemResult(query=item.query, r_precision=rp, in_context=ic)


def aggregate(results: Sequence[ItemResult]) -> EvalReport:
    """Mean the per-item values, as percentages rounded to two decimals."""
    rp_values = [r.r_precision for r in results if r.r_precision is not None]
    ic_values = [r.in_context for r in results if r.in_context is not None]
    if not rp_values and not ic_values:
        raise ValueError("no evaluable items")
    rp_mean = (
        round(100.0 * sum(rp_values) / len(rp_values), 2) if rp_values else None
    )
    ic_rate = (
        round(100.0 * sum(1 for v in ic_values if v) / len(ic_values), 2)
        if ic_values
        else None
    )
    return EvalReport(
        r_precision_mean=rp_mean,
        in_context_rate=ic_rate,
        items=tuple(results),
        skipped_provenance=sum(1 for r in results if r.r_precision is None),
        skipped_answers=sum(1 for r in results if r.in_context is None),
    )


def load_gold(path: str) -> list[EvalItem]:
    """Read line-delimited gold records, with line numbers in any complaint."""
    items = []
    with open(path, "r", encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise GoldFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict) or "query" not in record:
                raise GoldFormatError(f"line {lineno}: record needs a 'query'")
            provenance = record.get("gold_provenance", [])
            answers = record.get("gold_answers", [])
            if not isinstance(provenance, list) or not isinstance(answers, list):
                raise GoldFormatError(f"line {lineno}: gold fields must be lists")
            values = [record["query"], *provenance, *answers]
            if not all(isinstance(value, str) for value in values):
                raise GoldFormatError(
                    f"line {lineno}: the query and gold values must be strings"
                )
            items.append(EvalItem(values[0], tuple(provenance), tuple(answers)))
    return items


def report_json(report: EvalReport) -> str:
    return json.dumps(asdict(report), ensure_ascii=False, sort_keys=True)


def report_table(report: EvalReport) -> str:
    """Aligned plain-text rendering of the report."""
    width = max([len("query")] + [len(item.query) for item in report.items])
    lines = [f"{'query'.ljust(width)}  r_prec  in_ctx"]
    for item in report.items:
        rp = "-" if item.r_precision is None else f"{item.r_precision:.2f}"
        ic = "-" if item.in_context is None else ("yes" if item.in_context else "no")
        lines.append(f"{item.query.ljust(width)}  {rp:>6}  {ic:>6}")
    rp_mean = (
        "-" if report.r_precision_mean is None else f"{report.r_precision_mean:.2f}"
    )
    ic_rate = (
        "-" if report.in_context_rate is None else f"{report.in_context_rate:.2f}"
    )
    lines.append(f"{'mean %'.ljust(width)}  {rp_mean:>6}  {ic_rate:>6}")
    return "\n".join(lines)
