import importlib.util
import json
import math
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


def test_summary_claims_a_gain_only_from_nine_of_ten_wins_beyond_ref_iqr():
    better, bound = {"cost": "lower"}, {"cost": 0.25}
    ref = [10.0, 10.5, 11.0, 11.5, 12.0, 10.0, 10.5, 11.0, 11.5, 12.0]

    def gain(work):
        pairs = [{"ref": {"cost": r}, "work": {"cost": w}}
                 for r, w in zip(ref, work)]
        return bench_pairs.summarise(pairs, better, bound)["cost"]

    # ref's quartiles are 10.5 / 11.0 / 11.5, so the gap must exceed 1.0
    nine = gain([8.0] * 9 + [12.5])
    assert (nine["wins"], nine["gap_exceeds_ref_iqr"], nine["gain"]) == \
        (9, True, True)
    eight = gain([8.0] * 8 + [12.5, 12.5])
    assert (eight["wins"], eight["gap_exceeds_ref_iqr"], eight["gain"]) == \
        (8, True, False)
    # every pair won, by too little to clear ref's spread
    close = gain([r - 0.1 for r in ref])
    assert (close["wins"], close["gap_exceeds_ref_iqr"], close["gain"]) == \
        (10, False, False)


def test_summary_claims_an_op_cost_ref_gain_only_with_the_raw_p50s():
    # op_cost_ref wins every pair by a clear gap in both workloads; in "a"
    # the raw median wall does too, in "b" it does not move, so only the
    # probe it is divided by made b's op_cost_ref fall
    ref = [10.0, 10.5, 11.0, 11.5, 12.0, 10.0, 10.5, 11.0, 11.5, 12.0]
    pairs = [{"ref": {"a/op_cost_ref": r, "a/raw op_wall_s_p50": r,
                      "b/op_cost_ref": r, "b/raw op_wall_s_p50": r},
              "work": {"a/op_cost_ref": r - 2, "a/raw op_wall_s_p50": r - 2,
                       "b/op_cost_ref": r - 2, "b/raw op_wall_s_p50": r}}
             for r in ref]
    better = {"op_cost_ref": "lower", "raw op_wall_s_p50": "lower"}
    summary = bench_pairs.summarise(pairs, better, {"op_cost_ref": 0.25})
    assert summary["a/op_cost_ref"]["gain"] is True
    assert summary["a/raw op_wall_s_p50"]["gain"] is True
    b = summary["b/op_cost_ref"]
    assert (b["wins"], b["gap_exceeds_ref_iqr"], b["gain"]) == \
        (10, True, False)
    assert summary["b/raw op_wall_s_p50"]["gain"] is False
    # without a raw p50 to agree, op_cost_ref claims no gain either
    alone = [{side: {"a/op_cost_ref": p[side]["a/op_cost_ref"]}
              for side in ("ref", "work")} for p in pairs]
    assert bench_pairs.summarise(alone, better, {})["a/op_cost_ref"]["gain"] \
        is False


def test_run_bench_keeps_each_runs_failed_and_attempted(tmp_path):
    # a stand-in perfbench whose last line is the summary run.py prints,
    # after the line naming its record
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json\nprint('progress')\n"
        "json.dump({'workloads': {'w': {'probe_s': [0.003, 0.001, 0.002],\n"
        "    'metrics': {'op_wall_s_min': {'value': 0.25},\n"
        "                'op_wall_s_p50': {'value': 0.5}}}}},\n"
        "    open('perfbench/record.json', 'w'))\n"
        "print('record: perfbench/record.json')\n"
        "print(json.dumps({'correct': False, 'attempted': 40, 'failed': 3,\n"
        "                  'metrics': {'w/op_cost_ref': {'value': 2.5}}}))\n",
        encoding="utf-8")
    args = bench_pairs.argparse.Namespace(workload="w", seed=1, seconds=1.0)
    run = bench_pairs.run_bench(str(tmp_path), args)
    assert run == {"metrics": {"w/op_cost_ref": 2.5}, "failed": 3,
                   "attempted": 40,
                   "raw": {"w": {"op_wall_s_min": 0.25, "op_wall_s_p50": 0.5,
                                 "probe_s_p50": 0.002}}}


def test_read_raw_takes_each_workloads_wall_and_median_probe(tmp_path):
    # the record of a run over all workloads, named relative to the checkout
    (tmp_path / "out").mkdir()
    record = {"workloads": {
        name: {"probe_s": probes,
               "metrics": {"op_wall_s_min": {"value": wall},
                           "op_wall_s_p50": {"value": 2 * wall},
                           "op_cost_ref": {"value": 1.0}}}
        for name, probes, wall in [("a", [0.004, 0.002, 0.003, 0.001], 0.5),
                                   ("b", [0.01], float("nan"))]}}
    (tmp_path / "out" / "rec.json").write_text(json.dumps(record),
                                               encoding="utf-8")
    lines = ["record: out/old.json", "a op_cost_ref 1.0",
             "record: out/rec.json", "{}"]
    raw = bench_pairs.read_raw(str(tmp_path), lines)
    assert raw["a"] == {"op_wall_s_min": 0.5, "op_wall_s_p50": 1.0,
                        "probe_s_p50": 0.0025}
    assert raw["b"]["probe_s_p50"] == 0.01
    assert math.isnan(raw["b"]["op_wall_s_min"])


def test_failure_share_pools_failed_over_attempted():
    runs = [{"failed": 1, "attempted": 100}, {"failed": 2, "attempted": 200}]
    assert bench_pairs.failure_share(runs) == "3/300 (1.00%)"
    assert bench_pairs.failure_share(runs[:1]) == "1/100 (1.00%)"
    assert bench_pairs.failure_share([{"failed": 0, "attempted": 0}]) == \
        "0/0 (nan%)"
