"""The statistics of ``tools/bench_pairs.py`` on synthetic run records;
no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _result(job_p50_s, seed, digest="d", failed=0):
    """A run record: run.py's last JSON line plus what run_side adds."""
    metrics = {"setup_s": 0.1, "job_p50_s": job_p50_s, "jobs_per_s": 1.0 / job_p50_s,
               "peak_rss_mib": 40.0}
    return {
        "correct": failed == 0, "attempted": 5, "failed": failed,
        "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()},
        "source_sha256": "sha", "digests": {f"{seed}:0": digest, f"{seed}:1": "x"},
    }


def test_compare_counts_pairs_and_scales_by_the_parent_iqr():
    parent, change = [1.0, 2.0, 3.0, 4.0, 5.0], [0.9, 2.0, 2.5, 3.0, 5.5]
    lower = bench_pairs.compare(parent, change, "lower")
    assert lower["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "runs": parent}
    assert lower["change"]["median"] == 2.5
    # the tie at 2.0 counts for neither side
    assert (lower["change_better_pairs"], lower["change_worse_pairs"]) == (3, 1)
    assert lower["change_over_parent"] == pytest.approx(2.5 / 3.0)
    assert lower["median_difference_over_parent_iqr"] == pytest.approx(0.5 / 2.0)
    higher = bench_pairs.compare(parent, change, "higher")
    assert (higher["change_better_pairs"], higher["change_worse_pairs"]) == (1, 3)
    assert higher["median_difference_over_parent_iqr"] == pytest.approx(0.25)
    same = bench_pairs.compare([2.0, 2.0], [2.0, 2.0], "lower")
    assert same["median_difference_over_parent_iqr"] == 0.0


def test_series_alternates_the_first_side_and_keeps_every_count():
    calls = []

    def run(side, workload, seed):
        calls.append((side, seed))
        return _result(0.2 if side == "parent" else 0.19, seed, failed=int(seed == 3))

    pairs = bench_pairs.run_series("solve", [1, 2, 3, 4], run)
    assert calls == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
                     ("parent", 3), ("change", 3), ("change", 4), ("parent", 4)]
    rec = bench_pairs.series_record("solve", pairs)
    assert rec["seeds"] == [1, 2, 3, 4] and rec["pairs"] == 4
    assert rec["first_side"] == ["parent", "change", "parent", "change"]
    assert rec["failed"] == {"parent": [0, 0, 1, 0], "change": [0, 0, 1, 0]}
    assert rec["correct"]["change"] == [True, True, False, True]
    assert set(bench_pairs.METRICS) <= set(rec)
    p50, rate = rec["job_p50_s"], rec["jobs_per_s"]
    assert (p50["change_better_pairs"], p50["change_worse_pairs"]) == (4, 0)
    assert (rate["change_better_pairs"], rate["better"]) == (4, "higher")
    # equal parent runs: no spread, so any difference is infinitely many IQRs
    assert p50["median_difference_over_parent_iqr"] == float("inf")
    assert rec["peak_rss_mib"]["change_better_pairs"] == 0


def test_digests_compare_only_the_keys_both_sides_ran():
    pairs = [
        {"parent": _result(0.2, 7), "change": _result(0.2, 7)},
        {"parent": _result(0.2, 8), "change": _result(0.2, 8, digest="other")},
    ]
    del pairs[1]["change"]["digests"]["8:1"]  # a job the change did not reach
    rec = bench_pairs.digest_record(pairs)
    assert rec == {"job_keys_both_sides_ran": 3, "different": 1,
                   "different_keys": ["8:0"]}


def test_seed_ranges():
    assert bench_pairs.seed_range("3801-3804") == [3801, 3802, 3803, 3804]
    assert bench_pairs.seed_range("5") == [5]
