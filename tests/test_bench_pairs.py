"""The claim and regression rules of ``tools/bench_pairs.py``, on hand-made runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# Parent quartiles (exclusive method): q1 59.875, median 61.0, q3 62.125.
PARENT = [61.0, 62.0, 60.0, 63.0, 59.0, 61.5, 60.5, 62.5, 59.5, 61.0]


def side(values):
    return [{"metrics": {"peak_rss_mb": {"value": v, "unit": "MB"}}} for v in values]


def test_a_claim_needs_nine_of_ten_pairs_and_a_gap_beyond_the_parents_iqr():
    lower = [v - 4.0 for v in PARENT]  # better in 10/10, gap 4.0 > IQR 2.25
    assert bench_pairs.rules(PARENT, lower, "lower", 0.1)["claim_rule_met"]
    # better in 9/10, with one tie that counts for neither side
    assert bench_pairs.rules(PARENT, [PARENT[0], *lower[1:]], "lower", 0.1)["claim_rule_met"]
    # better in 8/10
    two_worse = [PARENT[0] + 1.0, PARENT[1] + 1.0, *lower[2:]]
    assert not bench_pairs.rules(PARENT, two_worse, "lower", 0.1)["claim_rule_met"]
    # better in 10/10, but the median gap 2.0 is inside the parent's IQR 2.25
    slight = [v - 2.0 for v in PARENT]
    assert not bench_pairs.rules(PARENT, slight, "lower", 0.1)["claim_rule_met"]
    # the same runs read as a higher-is-better metric
    assert not bench_pairs.rules(PARENT, lower, "higher", 0.1)["claim_rule_met"]
    assert bench_pairs.rules(lower, PARENT, "higher", 0.1)["claim_rule_met"]


@pytest.mark.parametrize("better, shift, within", [
    ("lower", 6.0, True), ("lower", 6.2, False), ("lower", -30.0, True),
    ("higher", -6.0, True), ("higher", -6.2, False), ("higher", 30.0, True),
])
def test_the_changes_median_stays_within_the_bound(better, shift, within):
    # a bound of 0.1 allows the median to be 6.1 worse than the parent's 61.0
    change = [v + shift for v in PARENT]
    assert bench_pairs.rules(PARENT, change, better, 0.1)["within_bound"] is within


def test_compare_applies_the_rules_to_the_metrics_benchmark_json_names():
    results = {"parent": side(PARENT), "change": side([v - 4.0 for v in PARENT])}
    spec = {"peak_rss_mb": {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}}
    metrics, parent_lower = bench_pairs.compare(results, spec)
    entry = metrics["peak_rss_mb"]
    assert (entry["claim_rule_met"], entry["within_bound"]) == (True, True)
    assert entry["change_lower_in_pairs"] == "10/10" and parent_lower["peak_rss_mb"] == 0
    metrics, _ = bench_pairs.compare(results, {})
    assert "claim_rule_met" not in metrics["peak_rss_mb"]
