#!/usr/bin/env python3
"""Same-output check: the CLI's artifacts at a git revision and in the working tree.

Exports REF with ``git archive`` into a temporary directory, as
``scripts/bench_pairs.py`` does, and runs ``deepmp gen-dict``, ``gen-data``,
``train`` and ``eval`` there and in the working tree, each side on its own
``src`` with one BLAS thread. Both sides use the cli-surrogate steps and
config of ``perfbench/workloads.py`` (the 503x600 Lorentzian surrogate), the
config's sparsity levels (k = 1..5) and the same seed and scale. Then every
file of the two run directories is compared byte for byte, except the
manifests (``manifest_*``), which hold the run directory and timings. Prints
each file that differs or that only one side wrote, and exits 1 if there is
any, else 0.

Usage (from anywhere inside the repository):
  python3 scripts/same_outputs.py --ref HEAD --seed 41 --scale 0.01
"""

from __future__ import annotations

import argparse
import filecmp
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import ROOT, export, git  # noqa: E402

sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
from perfbench.workloads import CliSurrogate  # noqa: E402

#: one BLAS thread, whichever library numpy loads
ONE_THREAD = {name: "1" for name in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def run_steps(checkout: str, out: str, config: str, args) -> None:
    """The CLI's four steps with ``checkout``'s package, into ``out``."""
    env = {**os.environ, **ONE_THREAD, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.path.join(checkout, "src")}
    for step in CliSurrogate.STEPS:
        proc = subprocess.run(
            [sys.executable, "-m", "deepmp.cli", "--config", config,
             "--seed", str(args.seed), "--scale", str(args.scale),
             "--out", out, step],
            cwd=checkout, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"same_outputs: {step} in {checkout} exited "
                             f"{proc.returncode}:\n{proc.stderr}")


def files(top: str) -> set[str]:
    """Paths of the files below ``top``, relative to it, manifests left out."""
    return {os.path.relpath(os.path.join(path, name), top)
            for path, _, names in os.walk(top) for name in names
            if not name.startswith("manifest_")}


def differing(left: str, right: str) -> list[str]:
    """Sorted relative paths that differ in content or exist on one side only."""
    ours, theirs = files(left), files(right)
    both = ours & theirs
    return sorted((ours ^ theirs) | {
        rel for rel in both
        if not filecmp.cmp(os.path.join(left, rel), os.path.join(right, rel),
                           shallow=False)})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ref", required=True, help="git revision to compare")
    parser.add_argument("--seed", type=int, default=41)
    parser.add_argument("--scale", type=float, default=0.01)
    args = parser.parse_args(argv)

    commit = git("rev-parse", "--verify", f"{args.ref}^{{commit}}").decode().strip()
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        checkout = os.path.join(tmp, "ref")
        os.makedirs(checkout)
        export(commit, checkout)
        config = os.path.join(tmp, "surrogate.ini")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(CliSurrogate.CONFIG)
        runs = {side: os.path.join(tmp, f"run_{side}") for side in ("ref", "work")}
        run_steps(checkout, runs["ref"], config, args)
        run_steps(ROOT, runs["work"], config, args)
        compared = len(files(runs["ref"]) | files(runs["work"]))
        differ = differing(runs["ref"], runs["work"])
    for rel in differ:
        print(f"differs: {rel}")
    print(f"ref {args.ref} ({commit}), seed {args.seed}, scale {args.scale:g}: "
          f"{len(differ)} of {compared} non-manifest files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
