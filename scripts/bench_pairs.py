#!/usr/bin/env python3
"""Interleaved benchmark pairs: a git revision against the working tree.

Exports REF with ``git archive`` into a temporary directory and runs
``perfbench/run.py`` there and in the working tree, once each per pair,
alternating which side runs first. Each run's last output line is
perfbench's JSON summary. The script prints every end-to-end metric per pair
and per side, then each side's median and quartiles, the number of pairs the
working tree wins (by the direction ``BENCHMARK.json`` gives), whether the
gap between the medians exceeds REF's interquartile range, whether that makes
a gain (wins in at least 9 of 10 counted pairs and a gap beyond REF's
interquartile range; for ``op_cost_ref`` only where the raw ``op_wall_s_p50``
gains too), whether the working tree's median is worse than REF's
by more than the metric's ``BENCHMARK.json`` bound (a share of REF's median),
each side's share of failed operations per pair and over all pairs, and REF's
commit and tree hashes. Each pair also shows, per workload, the raw
``op_wall_s_min`` and ``op_wall_s_p50`` and the median speed-probe sample
from each run's record file, so a move in ``op_cost_ref`` can be told apart
from a move in the probe. The summary takes these raw numbers across pairs
too, lower counted better.

Usage (from anywhere inside the repository):
  python3 scripts/bench_pairs.py --ref HEAD --workload train-synth \\
      --seed 3 --seconds 20 --pairs 10
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("ref", "work")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def export(commit: str, directory: str) -> None:
    """Unpack the tree of ``commit`` into ``directory``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar",
                                             commit))) as tar:
        tar.extractall(directory, filter="data")


def run_bench(checkout: str, args) -> dict:
    """One perfbench run in ``checkout``: its metrics by name, its
    ``failed`` and ``attempted`` operation counts, and per workload the raw
    numbers of :func:`read_raw`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"bench_pairs: no summary from {checkout} "
                         f"(exit {proc.returncode}):\n{proc.stderr}") from None
    return {"metrics": {name: entry["value"]
                        for name, entry in summary["metrics"].items()},
            "failed": summary["failed"], "attempted": summary["attempted"],
            "raw": read_raw(checkout, lines)}


def read_raw(checkout: str, lines: list[str]) -> dict:
    """Per workload, the raw ``op_wall_s_min`` and ``op_wall_s_p50`` and the
    median speed-probe sample (all in seconds) of the record that run.py
    names on its ``record:`` line, a path relative to ``checkout``.
    ``op_cost_ref`` is an operation's wall divided by the probes around it,
    so the walls and the probe tell
    whether it moved with the operation or with the probe."""
    path = next(line.split(":", 1)[1].strip() for line in reversed(lines)
                if line.startswith("record:"))
    with open(os.path.join(checkout, path), encoding="utf-8") as fh:
        record = json.load(fh)
    return {name: {**{key: part["metrics"][key]["value"]
                       for key in ("op_wall_s_min", "op_wall_s_p50")},
                   "probe_s_p50": statistics.median(part["probe_s"])}
            for name, part in record["workloads"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, mid, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, mid, high


def summarise(pairs: list[dict], better: dict, bound: dict) -> dict:
    """Per metric: each side's quartiles, the working tree's wins, the verdicts.

    ``pairs`` holds one ``{"ref": metrics, "work": metrics}`` per pair,
    ``better`` maps a metric's bare name to "lower" or "higher" and ``bound``
    to the share of REF's median by which it may worsen. A pair with a null
    value on either side neither wins nor counts. ``gain`` holds when the
    working tree wins at least 9 of 10 counted pairs and the median gap
    exceeds REF's interquartile range; for ``<workload>/op_cost_ref`` it
    also needs ``<workload>/raw op_wall_s_p50`` to gain, since the speed
    probe it divides by can move on its own. ``regressed`` is None for a
    metric without a bound.
    """
    out = {}
    for name in pairs[0]["ref"]:
        bare = name.rsplit("/", 1)[-1]
        sign = -1.0 if better.get(bare) == "lower" else 1.0
        both = [(p["ref"][name], p["work"][name]) for p in pairs
                if p["ref"].get(name) is not None
                and p["work"].get(name) is not None]
        if not both:
            continue
        ref_q = quartiles([r for r, _ in both])
        work_q = quartiles([w for _, w in both])
        gap = sign * (work_q[1] - ref_q[1])
        wins = sum(sign * (w - r) > 0.0 for r, w in both)
        beyond_iqr = gap > ref_q[2] - ref_q[0]
        out[name] = {
            "ref": ref_q,
            "work": work_q,
            "wins": wins,
            "pairs": len(both),
            "gap_exceeds_ref_iqr": beyond_iqr,
            "gain": 10 * wins >= 9 * len(both) and beyond_iqr,
            "regressed": (-gap > bound[bare] * abs(ref_q[1])
                          if bare in bound else None),
        }
    for name, entry in out.items():
        if name.endswith("/op_cost_ref"):
            raw = out.get(f"{name.rsplit('/', 1)[0]}/raw op_wall_s_p50")
            entry["gain"] = entry["gain"] and raw is not None and raw["gain"]
    return out


def failure_share(runs: list[dict]) -> str:
    """Failed of attempted operations over ``runs``, with the share."""
    failed = sum(run["failed"] for run in runs)
    attempted = sum(run["attempted"] for run in runs)
    share = failed / attempted if attempted else float("nan")
    return f"{failed}/{attempted} ({share:.2%})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True, help="git revision to compare")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    commit = git("rev-parse", "--verify", f"{args.ref}^{{commit}}").decode().strip()
    tree = git("rev-parse", f"{commit}^{{tree}}").decode().strip()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bound = {m["name"]: m["bound"] for m in end_to_end}
    # the raw numbers of read_raw, as "<workload>/raw <key>"; all in seconds
    better.update({f"raw {key}": "lower"
                   for key in ("op_wall_s_min", "op_wall_s_p50", "probe_s_p50")})

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        export(commit, tmp)
        checkouts = {"ref": tmp, "work": ROOT}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            run = {side: run_bench(checkouts[side], args) for side in order}
            runs.append(run)
            ref, work = run["ref"]["metrics"], run["work"]["metrics"]
            print(f"pair {i + 1} ({order[0]} first)")
            for name in sorted(ref):
                print(f"  {name:36s} ref {ref[name]!s:>22} "
                      f"work {work.get(name)!s:>22}")
            for workload, raw in sorted(run["ref"]["raw"].items()):
                for key, value in raw.items():
                    print(f"  {workload + ' raw ' + key:36s} ref "
                          f"{value:>22.6g} work "
                          f"{run['work']['raw'][workload][key]:>22.6g}")
            print(f"  {'failed operations':36s} ref "
                  f"{failure_share([run['ref']]):>22} work "
                  f"{failure_share([run['work']]):>22}")
            sys.stdout.flush()

    print(f"\nref {args.ref}: commit {commit}, tree {tree}")
    print(f"{args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"{args.pairs} pairs; quartiles are 25% / median / 75%")
    verdicts = {True: "REGRESSED", False: "within bound", None: "no bound"}
    pairs = [{side: {**run[side]["metrics"],
                     **{f"{workload}/raw {key}": value
                        for workload, raw in run[side]["raw"].items()
                        for key, value in raw.items()}}
              for side in SIDES} for run in runs]
    for name, s in summarise(pairs, better, bound).items():
        ref, work = (" / ".join(f"{v:.6g}" for v in s[side]) for side in SIDES)
        print(f"{name:36s} ref {ref}  work {work}  work wins "
              f"{s['wins']}/{s['pairs']}  median gap > ref IQR: "
              f"{'yes' if s['gap_exceeds_ref_iqr'] else 'no'}  "
              f"{'GAIN' if s['gain'] else 'no gain'}  "
              f"{verdicts[s['regressed']]}")
    print(f"{'failed operations':36s} "
          + "  ".join(f"{side} {failure_share([run[side] for run in runs])}"
                      for side in SIDES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
