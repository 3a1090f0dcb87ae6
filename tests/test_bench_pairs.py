import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_summarize_fixed_numbers():
    parent = [10.0, 12.0, 11.0, 13.0, 9.0, 14.0, 10.5, 12.5, 11.5, 13.5]
    change = [11.0, 12.0, 12.0, 12.5, 10.0, 15.0, 11.0, 13.0, 12.0, 14.0]
    got = bench_pairs.summarize(parent, change, "higher")
    assert got["parent_median"] == 11.75
    assert got["change_median"] == 12.0
    # exclusive quartiles of 10 runs sit at ranks 2.75 and 8.25
    assert got["parent_iqr"] == pytest.approx(13.125 - 10.375)
    assert got["change_iqr"] == pytest.approx(13.25 - 11.0)
    assert (got["change_wins"], got["change_losses"]) == (8, 1)  # a tie
    lower = bench_pairs.summarize(parent, change, "lower")
    assert (lower["change_wins"], lower["change_losses"]) == (1, 8)
    rounded = bench_pairs.summarize([1.23456789, 2.0], [3.0, 4.0], "lower")
    assert rounded["parent_runs"] == [1.23457, 2.0]
    assert rounded["parent_median"] == (1.23456789 + 2.0) / 2


@pytest.mark.parametrize("name", ["BENCH_6.json", "BENCH_7.json"])
def test_summary_and_layout_reproduce_recorded_files(name):
    text = (ROOT / name).read_text()
    recorded = json.loads(text)
    assert bench_pairs.format_report(recorded) == text
    for workload in recorded["workloads"].values():
        for m in workload["metrics"].values():
            got = bench_pairs.summarize(m["parent_runs"], m["change_runs"],
                                        m["better"])
            # the recorded runs are rounded to 6 digits, the statistics not
            assert got["change_wins"] == m["change_wins"]
            assert got["change_losses"] == m["change_losses"]
            for key in ("parent_median", "change_median"):
                assert math.isclose(got[key], m[key], rel_tol=1e-5)
            for key in ("parent_iqr", "change_iqr"):
                assert math.isclose(got[key], m[key], rel_tol=1e-3,
                                    abs_tol=1e-5 * m["parent_median"])


def _result(items_per_s, digest, failed=0):
    metrics = {name: {"value": 1.0, "unit": "x"}
               for name in ("setup_s", "peak_rss_mb")}
    metrics["items_per_s"] = {"value": items_per_s, "unit": "items/s"}
    return {"correct": failed == 0, "attempted": 9, "failed": failed,
            "metrics": metrics, "meta": {"digest": digest}}


def test_summarize_workload_counts_digests_and_failures():
    metrics = [{"name": "items_per_s", "unit": "items/s", "better": "higher",
                "bound": 0.25},
               {"name": "setup_s", "unit": "s", "better": "lower",
                "bound": 0.25}]
    pairs = [(5, _result(50.0, "a"), _result(70.0, "a")),
             (6, _result(52.0, "b"), _result(71.0, "b", failed=2)),
             (7, _result(51.0, "c"), _result(50.0, "d"))]
    got = bench_pairs.summarize_workload(pairs, metrics, 30)
    assert list(got) == ["seeds", "pairs", "seconds", "digests_equal",
                         "failed_items", "metrics"]
    assert got["seeds"] == [5, 6, 7]
    assert (got["pairs"], got["seconds"], got["digests_equal"]) == (3, 30.0, 2)
    assert got["failed_items"] == {"parent": 0, "change": 2}
    ips = got["metrics"]["items_per_s"]
    assert list(ips)[:2] == ["unit", "better"]
    assert (ips["change_wins"], ips["change_losses"]) == (2, 1)
    assert ips["change_runs"] == [70.0, 71.0, 50.0]
    assert (ips["gain_shown"], ips["within_bound"]) == (False, True)
    setup = got["metrics"]["setup_s"]
    assert (setup["change_wins"], setup["change_losses"]) == (0, 0)


PARENT = [10.0, 12.0, 11.0, 13.0, 9.0, 14.0, 10.5, 12.5, 11.5, 13.5]


@pytest.mark.parametrize("change, better, shown", [
    # ten wins, median 15.75 beats 11.75 by more than the IQR 2.75
    ([x + 4.0 for x in PARENT], "higher", True),
    # the same runs read as a loss where lower is better
    ([x + 4.0 for x in PARENT], "lower", False),
    # nine wins and a loss, median 15.25 still 3.5 above
    ([x + 4.0 for x in PARENT[:9]] + [1.0], "higher", True),
    # ten wins by 2.0 each: the median gap is inside the IQR
    ([x + 2.0 for x in PARENT], "higher", False),
    # eight wins of ten: too few, however large the gap
    ([x + 9.0 for x in PARENT[:8]] + [1.0, 1.0], "higher", False),
])
def test_gain_shown_needs_nine_wins_and_a_gap_beyond_the_iqr(change, better,
                                                            shown):
    stats = bench_pairs.summarize(PARENT, change, better)
    assert bench_pairs.claim_checks(stats, better, 0.25)["gain_shown"] is shown


@pytest.mark.parametrize("shift, better, bound, within", [
    (0.0, "higher", 0.0, True),        # no change is within any bound
    (-2.9, "higher", 0.25, True),      # 11.75 -> 8.85, 24.7% worse
    (-3.0, "higher", 0.25, False),     # 11.75 -> 8.75, 25.5% worse
    (2.9, "lower", 0.25, True),
    (3.0, "lower", 0.25, False),
    (-3.0, "lower", 0.0, True),        # a gain is within a bound of 0
])
def test_within_bound_compares_the_median_with_the_bound(shift, better,
                                                         bound, within):
    change = [x + shift for x in PARENT]
    stats = bench_pairs.summarize(PARENT, change, better)
    got = bench_pairs.claim_checks(stats, better, bound)["within_bound"]
    assert got is within


def test_parse_run_reads_result_and_meta():
    out = ("herzlab benchmark spectral seed 1\n  items_per_s 50 items/s\n"
           'meta {"digest": "ab", "seed": 1}\n'
           '{"correct": true, "attempted": 9, "failed": 0, "metrics": {}}\n')
    got = bench_pairs.parse_run(out)
    assert got["meta"] == {"digest": "ab", "seed": 1}
    assert got["failed"] == 0
    with pytest.raises(ValueError, match="meta"):
        bench_pairs.parse_run("no meta\n{}\n")
