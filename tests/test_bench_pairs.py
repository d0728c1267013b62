import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_summary_counts_wins_by_each_metrics_direction():
    # the working tree is faster in 3 of 4 pairs and recovers the same
    ref = [10.0, 11.0, 12.0, 13.0]
    work = [9.0, 10.0, 12.5, 11.0]
    pairs = [{"ref": {"a/op_cost_ref": r, "a/recovery_nnmp": 0.9},
              "work": {"a/op_cost_ref": w, "a/recovery_nnmp": 0.9}}
             for r, w in zip(ref, work)]
    summary = bench_pairs.summarise(
        pairs, {"op_cost_ref": "lower", "recovery_nnmp": "higher"},
        {"op_cost_ref": 0.25, "recovery_nnmp": 0.1})
    cost = summary["a/op_cost_ref"]
    assert cost["ref"] == (10.75, 11.5, 12.25)
    assert cost["work"] == (9.75, 10.5, 11.375)
    assert (cost["wins"], cost["pairs"]) == (3, 4)
    # the median gap of 1.0 is inside the reference's quartile spread of 1.5
    assert not cost["gap_exceeds_ref_iqr"]
    recovery = summary["a/recovery_nnmp"]
    assert (recovery["wins"], recovery["gap_exceeds_ref_iqr"]) == (0, False)
    assert cost["regressed"] is False and recovery["regressed"] is False


def test_summary_skips_pairs_with_a_missing_value():
    pairs = [{"ref": {"m": 1.0}, "work": {"m": None}},
             {"ref": {"m": 2.0}, "work": {"m": 1.0}}]
    summary = bench_pairs.summarise(pairs, {"m": "lower"}, {})
    assert summary["m"]["pairs"] == 1 and summary["m"]["wins"] == 1
    assert summary["m"]["gap_exceeds_ref_iqr"]


def test_summary_flags_a_median_worse_by_more_than_the_bound():
    # BENCHMARK.json bounds are shares of the reference median, applied in
    # each metric's own direction; a metric without a bound gets no verdict
    ref = [100.0, 100.0, 100.0]
    pairs = [{"ref": {"rss": r, "cost": r, "recovery": r / 100, "probe": r},
              "work": {"rss": w, "cost": w, "recovery": v, "probe": w}}
             for r, w, v in zip(ref, [105.5, 106.0, 104.0],
                                [0.85, 0.89, 0.95])]
    better = {"rss": "lower", "cost": "lower", "recovery": "higher"}
    summary = bench_pairs.summarise(
        pairs, better, {"rss": 0.05, "cost": 0.25, "recovery": 0.1})
    # median 105.5 is 5.5% above 100, beyond 5% but inside 25%
    assert summary["rss"]["regressed"] is True
    assert summary["cost"]["regressed"] is False
    # median 0.89 is 11% below 1.0, beyond 10%
    assert summary["recovery"]["regressed"] is True
    assert summary["probe"]["regressed"] is None
    # a better median never regresses, however far it moves
    better_pairs = [{"ref": {"rss": 100.0}, "work": {"rss": 50.0}}]
    assert bench_pairs.summarise(better_pairs, better,
                                 {"rss": 0.05})["rss"]["regressed"] is False
