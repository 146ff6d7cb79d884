import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from passrecall.evaluation import (
    EvalItem,
    EvalReport,
    GoldFormatError,
    ItemResult,
    aggregate,
    answer_in_context,
    evaluate_item,
    load_gold,
    normalize_for_match,
    r_precision,
    report_json,
    report_table,
)

words = st.text(alphabet="abcdef", min_size=1, max_size=6)
phrases = st.lists(words, min_size=1, max_size=8).map(" ".join)


class TestNormalize:
    def test_casefold_and_whitespace(self):
        assert normalize_for_match("  YG\tEntertainment ") == "yg entertainment"

    def test_punctuation_split_off(self):
        assert normalize_for_match("in 1970, (roughly)") == "in 1970 , ( roughly )"

    @given(text=phrases)
    @settings(max_examples=100, deadline=None)
    def test_idempotent(self, text):
        once = normalize_for_match(text)
        assert normalize_for_match(once) == once


class TestRPrecision:
    def test_single_gold_hit(self):
        assert r_precision(["d1", "d2"], ["d1"]) == 1.0

    def test_half_of_two_gold(self):
        assert r_precision(["d1", "d9", "d2"], ["d1", "d2"]) == 0.5

    def test_miss(self):
        assert r_precision(["d1", "d2"], ["d3"]) == 0.0

    def test_duplicates_do_not_widen_the_window(self):
        # Three raw predictions but only two distinct; both gold are found.
        assert r_precision(["d1", "d1", "d2"], ["d1", "d2"]) == 1.0

    def test_empty_gold_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            r_precision(["d1"], [])

    def test_empty_predictions_score_zero(self):
        assert r_precision([], ["d1"]) == 0.0


class TestAnswerInContext:
    def test_number_inside_sentence(self):
        assert answer_in_context("the total was 18 items overall", ["18"])

    def test_casefold_match(self):
        assert answer_in_context("signed with yg entertainment.", ["YG Entertainment"])

    def test_punctuation_insensitive(self):
        assert answer_in_context("born in 1970, in town", ["in 1970"])

    def test_absent_answer(self):
        assert not answer_in_context("nothing relevant here", ["absent phrase"])

    def test_empty_answer_strings_ignored(self):
        assert not answer_in_context("some text", ["", ""])

    def test_containment_is_plain_substring(self):
        # Matching is substring containment over the normalized text, so a
        # short numeric answer also matches inside a longer number.
        assert answer_in_context("the year 2018 ended", ["18"])
        assert not answer_in_context("the year 2018 ended", ["19"])

    @given(passage=phrases, first=st.lists(phrases, max_size=3), second=st.lists(phrases, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_union_is_disjunction(self, passage, first, second):
        combined = answer_in_context(passage, list(first) + list(second))
        assert combined == (
            answer_in_context(passage, first) or answer_in_context(passage, second)
        )


class TestEvaluateItem:
    def test_both_metrics_present(self):
        item = EvalItem("q", gold_provenance=("d1",), gold_answers=("cat",))
        result = evaluate_item(item, ["d1", "d2"], "a cat sat")
        assert result == ItemResult("q", 1.0, True)

    def test_missing_provenance_skips_page_metric(self):
        item = EvalItem("q", gold_answers=("cat",))
        result = evaluate_item(item, ["d1"], "no match")
        assert result.r_precision is None
        assert result.in_context is False

    def test_missing_answers_skips_passage_metric(self):
        item = EvalItem("q", gold_provenance=("d9",))
        result = evaluate_item(item, ["d1"], "whatever")
        assert result.r_precision == 0.0
        assert result.in_context is None


class TestAggregate:
    def results(self, rp_values, ic_values):
        out = []
        for i, value in enumerate(rp_values):
            out.append(ItemResult(f"rp{i}", value, None))
        for i, value in enumerate(ic_values):
            out.append(ItemResult(f"ic{i}", None, value))
        return out

    def test_perfect_run(self):
        report = aggregate(self.results([1.0, 1.0], [True]))
        assert report.r_precision_mean == 100.00
        assert report.in_context_rate == 100.00

    def test_half(self):
        report = aggregate(self.results([1.0, 0.0], [True, False]))
        assert report.r_precision_mean == 50.00
        assert report.in_context_rate == 50.00

    def test_rounding_to_two_decimals(self):
        report = aggregate(self.results([1.0, 1.0, 1.0, 0.5, 0.5, 1.0, 1.0, 0.0, 1.0], []))
        # 7.0 / 9 = 0.7777... -> 77.78
        assert report.r_precision_mean == 77.78

    def test_skip_counts(self):
        report = aggregate(self.results([1.0], [True, False]))
        assert report.skipped_provenance == 2
        assert report.skipped_answers == 1

    def test_no_evaluable_items_rejected(self):
        with pytest.raises(ValueError, match="no evaluable"):
            aggregate([ItemResult("q", None, None)])

    @given(
        flags=st.lists(st.booleans(), min_size=1, max_size=40),
    )
    @settings(max_examples=100, deadline=None)
    def test_rate_counts_true_flags(self, flags):
        report = aggregate(self.results([], flags))
        expected = round(100.0 * sum(flags) / len(flags), 2)
        assert report.in_context_rate == expected
        assert report.r_precision_mean is None

    @given(
        values=st.lists(
            st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=2, max_size=30
        ),
        split=st.integers(min_value=1, max_value=29),
    )
    @settings(max_examples=100, deadline=None)
    def test_whole_equals_count_weighted_halves(self, values, split):
        split = min(split, len(values) - 1)
        first, second = values[:split], values[split:]
        whole = aggregate(self.results(values, [])).r_precision_mean
        mean1 = aggregate(self.results(first, [])).r_precision_mean
        mean2 = aggregate(self.results(second, [])).r_precision_mean
        recombined = (len(first) * mean1 + len(second) * mean2) / len(values)
        # The parts are rounded before recombining, so allow that much slack.
        assert abs(whole - recombined) < 0.02


class TestLoadGold:
    def write(self, tmp_path, text):
        path = tmp_path / "gold.jsonl"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_roundtrip(self, tmp_path):
        lines = [
            {"query": "q1", "gold_provenance": ["d1"], "gold_answers": ["a"]},
            {"query": "q2", "gold_provenance": ["d2", "d3"]},
            {"query": "q3"},
        ]
        path = self.write(tmp_path, "\n".join(json.dumps(l) for l in lines) + "\n")
        items = load_gold(path)
        assert len(items) == 3
        assert items[0] == EvalItem("q1", ("d1",), ("a",))
        assert items[1].gold_provenance == ("d2", "d3")
        assert items[2].gold_answers == ()

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, '{"query": "q"}\n\n\n')
        assert len(load_gold(path)) == 1

    def test_invalid_json_names_the_line(self, tmp_path):
        path = self.write(tmp_path, '{"query": "ok"}\nnot json\n')
        with pytest.raises(GoldFormatError, match="line 2"):
            load_gold(path)

    def test_missing_query_names_the_line(self, tmp_path):
        path = self.write(tmp_path, '{"gold_answers": ["a"]}\n')
        with pytest.raises(GoldFormatError, match="line 1.*query"):
            load_gold(path)

    def test_non_list_gold_fields_rejected(self, tmp_path):
        path = self.write(tmp_path, '{"query": "q", "gold_provenance": "d1"}\n')
        with pytest.raises(GoldFormatError, match="lists"):
            load_gold(path)

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"query": None}, "must be strings"),
            ({"query": 7}, "must be strings"),
            ({"query": "q", "gold_provenance": [{"x": 1}]}, "must be strings"),
            ({"query": "q", "gold_answers": [5, None]}, "must be strings"),
            ({"query": "q", "gold_answers": ["a", None]}, "must be strings"),
        ],
        ids=[
            "null-query",
            "number-query",
            "object-provenance",
            "number-answers",
            "null-answer",
        ],
    )
    def test_non_string_gold_values_rejected(self, tmp_path, record, message):
        path = self.write(tmp_path, '{"query": "ok"}\n' + json.dumps(record) + "\n")
        with pytest.raises(GoldFormatError, match=f"line 2: .*{message}"):
            load_gold(path)

    def test_invalid_json_error_is_chained(self, tmp_path):
        path = self.write(tmp_path, "not json\n")
        with pytest.raises(GoldFormatError) as info:
            load_gold(path)
        assert isinstance(info.value.__cause__, json.JSONDecodeError)


class TestReports:
    def report(self):
        return EvalReport(
            r_precision_mean=50.0,
            in_context_rate=None,
            items=(
                ItemResult("alpha", 1.0, None),
                ItemResult("beta", 0.0, None),
            ),
            skipped_provenance=0,
            skipped_answers=2,
        )

    def test_json_payload(self):
        payload = json.loads(report_json(self.report()))
        assert payload["r_precision_mean"] == 50.0
        assert payload["in_context_rate"] is None
        assert payload["items"][0] == {
            "query": "alpha",
            "r_precision": 1.0,
            "in_context": None,
        }

    def test_json_is_deterministic(self):
        assert report_json(self.report()) == report_json(self.report())

    def test_table_layout(self):
        lines = report_table(self.report()).splitlines()
        assert lines[0].split() == ["query", "r_prec", "in_ctx"]
        assert lines[1].split() == ["alpha", "1.00", "-"]
        assert lines[2].split() == ["beta", "0.00", "-"]
        assert lines[3].split() == ["mean", "%", "50.00", "-"]
