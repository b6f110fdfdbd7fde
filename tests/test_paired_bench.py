"""The aggregation of tools/paired_bench.py on canned perfbench runs."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))

import paired_bench  # noqa: E402


def _run(wall: float, rss: float, digest: str, ops: list, failed: int = 0) -> dict:
    """A perfbench summary line with its record: ops are (key, latencies)."""
    return {
        "correct": failed == 0, "attempted": 100, "failed": failed,
        "metrics": {"wall_s": {"value": wall, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}},
        "record": {"result_digest": digest, "environment": {},
                   "ops": [{"key": key, "latencies_s": lat} for key, lat in ops]},
    }


def _ops(scale: float) -> list:
    return [
        (["corrector_polynomial", 100, 2, 1, True], [3.0 * scale, 2.0 * scale]),
        (["corrector_polynomial", 30, 3, 3, False], [9.0 * scale]),
        (["corrector_polynomial", 30, 2, 3, False], [7.0 * scale, 8.0 * scale]),
        (["mollify", None, None, 1, None], [5.0 * scale]),
    ]


def test_compare_counts_wins_and_quartiles():
    m = paired_bench.compare([4.0, 1.0, 3.0, 2.0], [3.0, 1.5, 2.0, 2.0], "s", "lower", 0.25)
    assert m["parent"] == {"median": 2.5, "q1": 1.75, "q3": 3.25, "runs": [4.0, 1.0, 3.0, 2.0]}
    assert m["change"]["median"] == 2.0 and m["change"]["runs"] == [3.0, 1.5, 2.0, 2.0]
    # a tie is not a win; pairs are compared in order, not sorted
    assert m["change_wins"] == 2
    assert m["relative_median_change"] == pytest.approx(-0.2)
    assert m["parent_iqr"] == 1.5
    assert paired_bench.compare([1.0, 2.0], [2.0, 1.0], "1/s", "higher", 0.25)["change_wins"] == 1


# parent runs of median 10 and interquartile range 1 (10 %), ten pairs
_PARENT = [9.0, 9.0, 9.5, 9.5, 10.0, 10.0, 10.5, 10.5, 11.0, 11.0]
# a skewed parent: median 9.5, interquartile range 3.5, every run above 8.9
_SKEWED = [9.0, 9.1, 9.2, 9.3, 9.4, 9.6, 12.0, 13.0, 14.0, 15.0]


@pytest.mark.parametrize("parent, change, better, bound, expected", [
    # nine of ten pairs won and the median 2 lower, beyond the range of 1
    (_PARENT, [8.0] * 9 + [12.0], "lower", 0.25, "better"),
    # the same runs where higher is better: the median 2 worse, within 25 %
    (_PARENT, [8.0] * 9 + [12.0], "higher", 0.25, "within"),
    (_PARENT, [13.0] * 10, "lower", 0.25, "worse"),
    (_PARENT, [12.0] * 10, "lower", 0.25, "within"),
    # a range of 10 % is wider than a 5 % bound: no verdict on a loss of 3 %
    (_PARENT, [10.3] * 10, "lower", 0.05, "unresolved"),
    # a gain of 0.6 is inside the range of 3.5, and that range is wider
    # than the bound, but every change run is below every parent run
    (_SKEWED, [8.9] * 10, "lower", 0.05, "within"),
    (_SKEWED, [9.5] * 10, "lower", 0.05, "unresolved"),
])
def test_verdict_against_the_bound(parent, change, better, bound, expected):
    m = paired_bench.compare(parent, change, "s", better, bound)
    assert m["bound"] == bound and m["verdict"] == expected


def test_per_op_medians_take_each_ops_fastest_latency():
    medians = paired_bench.per_op_medians([{"ops": [{"key": k, "latencies_s": v} for k, v in _ops(1.0)]},
                                           {"ops": [{"key": k, "latencies_s": v} for k, v in _ops(3.0)]}])
    assert medians == {"corrector_polynomial (iid)": 4.0, "corrector_polynomial (non-iid)": 15.0, "mollify": 10.0}


def test_aggregate_one_workload():
    parent = [_run(2.0, 80.0, "a", _ops(2.0)), _run(2.2, 80.5, "b", _ops(2.0), failed=1)]
    change = [_run(1.0, 80.6, "a", _ops(1.0)), _run(2.4, 80.1, "c", _ops(1.0))]
    entry = paired_bench.aggregate([7, 8], parent, change, {"wall_s": {"better": "lower", "bound": 0.25},
                                                            "peak_rss_mb": {"better": "lower", "bound": 0.1}})
    assert entry["seeds"] == [7, 8]
    assert entry["correct"] is False and entry["failed"] == {"parent": 1, "change": 0}
    assert entry["attempted"] == {"parent": 200, "change": 200}
    assert entry["digests"] == {"7": {"parent": "a", "change": "a"}, "8": {"parent": "b", "change": "c"}}
    assert entry["digests_equal"] is False
    assert entry["metrics"]["wall_s"]["change_wins"] == 1
    assert entry["metrics"]["wall_s"]["parent"]["runs"] == [2.0, 2.2]
    assert entry["metrics"]["peak_rss_mb"]["unit"] == "MB"
    # wall_s: parent runs 2.0 and 2.2, an interquartile range of 5 %
    assert entry["metrics"]["wall_s"]["verdict"] == "within"
    assert entry["per_op_medians_s"]["mollify"] == {"parent": 10.0, "change": 5.0}
    assert entry["per_op_medians_s"]["corrector_polynomial (non-iid)"] == {"parent": 16.0, "change": 8.0}
    text = paired_bench.report("exact_algebra", entry)
    assert "wall_s" in text and " 1/2 " in text and "within (25 %)" in text


def test_aa_pair_and_seed_lists():
    aa = paired_bench.aa_pair(_run(2.0, 80.0, "a", []), _run(2.1, 80.0, "a", []))
    assert aa["wall_s"]["relative"] == pytest.approx(0.05) and aa["peak_rss_mb"]["relative"] == 0.0
    assert paired_bench.parse_seeds("3601-3604") == [3601, 3602, 3603, 3604]
    assert paired_bench.parse_seeds("5,9") == [5, 9]
