"""tools/bench_pairs.py on canned `perfbench/run.py` output: its parsing,
its medians and ratios, the gain test's inputs (`wins`, `parent_iqr`), and
its pair order.  No process is started."""

import json

from tools.bench_pairs import SIDES, iqr, pair_order, parse_result, summarize, wins

BETTER = {"op_p50_s": "lower", "peak_rss_mb": "lower"}


def canned(p50, rss, correct=True):
    """The standard output of one `run.py --trace 0` run."""
    metrics = {"op_p50_s": {"value": p50, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return "\n".join([
        "# op_tail_s has 10 of 700 samples beyond it (percentile 98.6)",
        f"op_p50_s                                         {p50!r} s",
        f"peak_rss_mb                                      {rss!r} MB",
        json.dumps({"correct": correct, "attempted": 701, "failed": 0 if correct else 1,
                    "metrics": metrics}),
    ]) + "\n"


def test_a_run_is_read_from_its_last_line():
    assert parse_result(canned(0.007, 26.5)) == {
        "correct": True, "metrics": {"op_p50_s": (0.007, "s"), "peak_rss_mb": (26.5, "MB")}}
    assert parse_result(canned(0.007, 26.5, correct=False))["correct"] is False


def test_medians_ratios_and_raw_values_per_side():
    runs = {
        "parent": [parse_result(canned(p50, 26.0)) for p50 in (0.010, 0.008, 0.009)],
        "change": [parse_result(canned(p50, 27.0, correct=p50 < 0.02))
                   for p50 in (0.006, 0.021, 0.0045)],
    }
    entry = summarize(runs, BETTER)
    assert entry["correct"] == {"parent": [True, True, True], "change": [True, False, True]}
    p50 = entry["metrics"]["op_p50_s"]
    assert (p50["parent_median"], p50["change_median"]) == (0.009, 0.006)
    assert abs(p50["ratio"] - 0.006 / 0.009) < 1e-12
    assert (p50["parent"], p50["change"], p50["unit"]) == ([0.010, 0.008, 0.009],
                                                          [0.006, 0.021, 0.0045], "s")
    assert entry["metrics"]["peak_rss_mb"]["ratio"] == 27.0 / 26.0


def test_a_zero_parent_median_has_no_ratio():
    runs = {side: [parse_result(canned(0.0, 26.0))] for side in SIDES}
    assert summarize(runs, BETTER)["metrics"]["op_p50_s"]["ratio"] is None


def test_wins_count_the_pairs_the_change_strictly_wins():
    parent, change = [0.010, 0.008, 0.009, 0.007], [0.009, 0.008, 0.010, 0.006]
    assert wins(parent, change, "lower") == 2  # the tie at 0.008 is no win
    assert wins(parent, change, "higher") == 1
    assert wins(parent, change, None) is None


def test_parent_iqr_is_q3_minus_q1_of_the_parent_runs():
    assert iqr([1.0, 2.0, 3.0, 4.0]) == 2.5  # exclusive quartiles 1.25 and 3.75
    assert iqr([5.0, 5.0]) == 0.0
    assert iqr([5.0]) is None


def test_each_metric_carries_its_wins_and_parent_iqr():
    runs = {
        "parent": [parse_result(canned(p50, rss)) for p50, rss in
                   ((0.010, 26.0), (0.008, 26.0), (0.009, 27.0), (0.011, 26.0))],
        "change": [parse_result(canned(p50, rss)) for p50, rss in
                   ((0.006, 25.0), (0.009, 27.0), (0.005, 26.0), (0.004, 26.0))],
    }
    metrics = summarize(runs, {"op_p50_s": "lower"})["metrics"]
    assert metrics["op_p50_s"]["wins"] == 3
    assert abs(metrics["op_p50_s"]["parent_iqr"] - (0.01075 - 0.00825)) < 1e-12
    # a metric without a `better` is summarized, but has no wins
    assert metrics["peak_rss_mb"]["wins"] is None
    assert metrics["peak_rss_mb"]["parent_iqr"] == 26.75 - 26.0


def test_the_side_that_runs_first_alternates():
    assert [pair_order(i) for i in range(4)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("change", "parent")]
