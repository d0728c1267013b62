#!/usr/bin/env python3
"""Compare two benchmark records metric by metric.

    python3 perfbench/compare.py perfbench/out/OLD.json perfbench/out/NEW.json

Prints, for every workload and metric both records hold, the two values and
the change as a share of the first. Then the quality sections side by side
(recovery per solver and k for each seed, and the criterion-5 margin), and
any environment field that differs, since records from different machines,
BLAS builds or thread counts do not compare.
"""

from __future__ import annotations

import argparse
import json


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def change(old: float, new: float) -> str:
    if not old:
        return "n/a"
    return f"{(new - old) / abs(old):+.1%}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    old, new = load(args.old), load(args.new)

    for key in sorted(set(old["environment"]) | set(new["environment"])):
        a, b = old["environment"].get(key), new["environment"].get(key)
        if a != b:
            print(f"environment {key}: {a} -> {b}")

    for name in sorted(set(old["workloads"]) & set(new["workloads"])):
        a, b = old["workloads"][name], new["workloads"][name]
        print(f"\n{name}  (ops {a['ops']} -> {b['ops']}, failed {a['failed']} -> {b['failed']})")
        for section in ("metrics", "per_layer"):
            for metric in sorted(set(a.get(section, {})) & set(b.get(section, {}))):
                va, vb = a[section][metric], b[section][metric]
                unit = ""
                if isinstance(va, dict):
                    unit, va, vb = va["unit"], va["value"], vb["value"]
                print(f"  {metric:48s} {va:>14.6g} {vb:>14.6g} {change(va, vb):>8s} {unit}")

    qa, qb = old.get("quality", {}), new.get("quality", {})
    for seed in sorted(set(qa) & set(qb) - {"recipe"}):
        print(f"\nquality seed {seed}: criterion-5 margin "
              f"{qa[seed]['criterion5_margin']:+.4f} -> {qb[seed]['criterion5_margin']:+.4f}")
        for solver in sorted(qa[seed]["recovery"]):
            ra, rb = qa[seed]["recovery"][solver], qb[seed]["recovery"][solver]
            cells = "  ".join(f"k={k} {ra[k]:.3f}->{rb[k]:.3f}" for k in sorted(ra))
            print(f"  {solver:7s} {cells}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
