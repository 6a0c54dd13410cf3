"""tools/bench_pairs.py on canned `perfbench/run.py` output: its parsing,
its medians and ratios, and its pair order.  No process is started."""

import json

from tools.bench_pairs import SIDES, pair_order, parse_result, summarize


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
    entry = summarize(runs)
    assert entry["correct"] == {"parent": [True, True, True], "change": [True, False, True]}
    p50 = entry["metrics"]["op_p50_s"]
    assert (p50["parent_median"], p50["change_median"]) == (0.009, 0.006)
    assert abs(p50["ratio"] - 0.006 / 0.009) < 1e-12
    assert (p50["parent"], p50["change"], p50["unit"]) == ([0.010, 0.008, 0.009],
                                                          [0.006, 0.021, 0.0045], "s")
    assert entry["metrics"]["peak_rss_mb"]["ratio"] == 27.0 / 26.0


def test_a_zero_parent_median_has_no_ratio():
    runs = {side: [parse_result(canned(0.0, 26.0))] for side in SIDES}
    assert summarize(runs)["metrics"]["op_p50_s"]["ratio"] is None


def test_the_side_that_runs_first_alternates():
    assert [pair_order(i) for i in range(4)] == [
        ("parent", "change"), ("change", "parent"), ("parent", "change"), ("change", "parent")]
