#!/usr/bin/env python3
"""Same-output check: the CLI's artifacts at a git revision and in the working tree.

Exports REF with ``git archive`` into a temporary directory, as
``scripts/bench_pairs.py`` does, and runs ``deepmp gen-dict``, ``gen-data``,
``train`` and ``eval`` there and in the working tree, each side on its own
``src`` with one BLAS thread, then ``deepmp ecdf`` of the run's
``dictionary.csv`` and of its deepest model, each into its own directory
``ecdf/<name>``. Both sides run the steps on two configs
(:func:`run_configs`), at their sparsity levels (k = 1..5) and the same seed
and scale: the cli-surrogate config of ``perfbench/workloads.py`` (the
503x600 Lorentzian surrogate) and the CLI's defaults (the synthetic 30x200
dictionary, whose training walks 6 batches at a time). Then every
file of the two run directories is compared byte for byte, except the
manifests (``manifest_*``). Those are compared as parsed JSON without the
fields that vary from run to run (:data:`VARYING`): timings, peak RSS and the
run directory. Prints each file or manifest that differs or that only one
side wrote, and exits 1 if there is any, else 0.

The check also compares ``train_model`` at library level, in a subprocess
on each side's package: at train-synth's recipe from
``perfbench/workloads.py`` for operation seeds ``derive(seed, i)`` with
i = 3, 17 and 101, and on the 503x600 surrogate of that module's
dictionary seed at k=5 with 600 mixtures, 2 epochs and ``val_fraction``
0.25, at the seed itself. Each run's weight hash and ``float.hex`` log rows
are compared by name, and each that differs or that only one side printed
is reported like a file.

Usage (from anywhere inside the repository):
  python3 scripts/same_outputs.py --ref HEAD --seed 41 --scale 0.01
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import ROOT, export, git  # noqa: E402

sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
from deepmp.config import RunConfig  # noqa: E402
from perfbench.workloads import CliSurrogate  # noqa: E402

#: one BLAS thread, whichever library numpy loads
ONE_THREAD = {name: "1" for name in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

#: manifest fields, as dotted paths, that differ between runs of one program
VARYING = ("wall_seconds", "peak_rss_kib", "solver_seconds", "config.out_dir")

#: run as ``python -c`` in a checkout, whose ``perfbench`` and package it
#: imports, with the seed as its argument; prints ``name: value`` lines
TRAIN_PROGRAM = """
import hashlib, sys
from deepmp import datagen, training
from perfbench.workloads import DICT_SEED, TrainSynth, acceptance_dictionary, derive

seed, synth = int(sys.argv[1]), acceptance_dictionary()
runs = {f"train-synth op {i}": (synth, TrainSynth.DEPTH, TrainSynth.MIXTURES,
                               TrainSynth.EPOCHS, TrainSynth.VAL_FRACTION,
                               derive(seed, i)) for i in (3, 17, 101)}
surrogate = datagen.generate_raman_surrogate(503, 600, 5, seed=DICT_SEED)
runs["surrogate k=5"] = (surrogate, 5, 600, 2, 0.25, seed)
for name, (dictionary, k, n, epochs, val_fraction, s) in runs.items():
    model, rows = training.train_model(dictionary, k, n, epochs=epochs, seed=s,
                                       val_fraction=val_fraction)
    weights = hashlib.sha1(model.selection_weights.tobytes()).hexdigest()
    print(f"{name} weights: {weights}")
    for row in rows:
        print(f"{name} epoch {row.epoch}: {row.mean_loss.hex()} "
              f"{row.val_recovery.hex()}")
"""


def run_in(checkout: str, what: str, *args: str) -> str:
    """``python args`` in ``checkout`` on its package with one BLAS thread;
    returns its output, or exits naming ``what`` with its stderr if it
    fails."""
    env = {**os.environ, **ONE_THREAD, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.path.join(checkout, "src")}
    proc = subprocess.run([sys.executable, *args], cwd=checkout, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"same_outputs: {what} in {checkout} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def run_configs(checkout: str, out: str, seed: int, scale: float) -> None:
    """The CLI's four steps with ``checkout``'s package, into ``out/surrogate``
    on the cli-surrogate config and ``out/synthetic`` on the defaults (an
    empty config file), then ``ecdf`` of each run's dictionary and deepest
    model into ``ecdf/dictionary`` and ``ecdf/model_k<k>`` below it. Neither
    config sets ``k_range``, so both run the CLI's default levels."""
    os.makedirs(out)
    deepest = f"model_k{max(RunConfig.k_range)}"
    for name, text in (("surrogate", CliSurrogate.CONFIG), ("synthetic", "")):
        config = os.path.join(out, f"{name}.ini")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(text)
        run = os.path.join(out, name)
        cli = ["-m", "deepmp.cli", "--config", config, "--seed", str(seed),
               "--scale", str(scale)]
        for step in CliSurrogate.STEPS:
            run_in(checkout, step, *cli, "--out", run, step)
        for base, source in (("dictionary", "dictionary.csv"),
                             (deepest, os.path.join("models", f"{deepest}.dmp"))):
            run_in(checkout, "ecdf", *cli, "--out",
                   os.path.join(run, "ecdf", base), "ecdf",
                   os.path.join(run, source))


def training_outputs(checkout: str, seed: int) -> dict[str, str]:
    """:data:`TRAIN_PROGRAM`'s lines with ``checkout``'s package, by name."""
    lines = run_in(checkout, "train_model", "-c", TRAIN_PROGRAM,
                   str(seed)).splitlines()
    return dict(line.split(": ", 1) for line in lines)


def files(top: str, manifests: bool = False) -> set[str]:
    """Paths of the files below ``top``, relative to it: the manifests
    (``manifest_*``) if ``manifests``, else every other file."""
    return {os.path.relpath(os.path.join(path, name), top)
            for path, _, names in os.walk(top) for name in names
            if name.startswith("manifest_") == manifests}


def differing(left: str, right: str) -> list[str]:
    """Sorted relative paths that differ in content or exist on one side only."""
    ours, theirs = files(left), files(right)
    both = ours & theirs
    return sorted((ours ^ theirs) | {
        rel for rel in both
        if not filecmp.cmp(os.path.join(left, rel), os.path.join(right, rel),
                           shallow=False)})


def stable_fields(path: str) -> dict:
    """A manifest's parsed JSON without its :data:`VARYING` fields."""
    with open(path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    for field in VARYING:
        *parents, name = field.split(".")
        node = manifest
        for parent in parents:
            node = node.get(parent, {})
        node.pop(name, None)
    return manifest


def differing_manifests(left: str, right: str) -> list[str]:
    """Sorted relative paths of manifests whose :func:`stable_fields` differ
    or that exist on one side only."""
    ours, theirs = files(left, manifests=True), files(right, manifests=True)
    return sorted((ours ^ theirs) | {
        rel for rel in ours & theirs
        if stable_fields(os.path.join(left, rel))
        != stable_fields(os.path.join(right, rel))})


def differing_outputs(left: dict[str, str], right: dict[str, str]) -> list[str]:
    """Sorted names whose values differ or that one side lacks."""
    return sorted(name for name in left.keys() | right.keys()
                  if left.get(name) != right.get(name))


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
        runs = {side: os.path.join(tmp, f"run_{side}") for side in ("ref", "work")}
        run_configs(checkout, runs["ref"], args.seed, args.scale)
        run_configs(ROOT, runs["work"], args.seed, args.scale)
        compared = len(files(runs["ref"]) | files(runs["work"]))
        differ = differing(runs["ref"], runs["work"])
        manifests = (files(runs["ref"], manifests=True)
                     | files(runs["work"], manifests=True))
        differ_manifests = differing_manifests(runs["ref"], runs["work"])
        trained = [training_outputs(path, args.seed) for path in (checkout, ROOT)]
    differ_trained = differing_outputs(*trained)
    for rel in differ + differ_manifests:
        print(f"differs: {rel}")
    for name in differ_trained:
        print(f"differs: train_model {name}")
    print(f"ref {args.ref} ({commit}), seed {args.seed}, scale {args.scale:g}: "
          f"{len(differ)} of {compared} non-manifest files, "
          f"{len(differ_manifests)} of {len(manifests)} manifests and "
          f"{len(differ_trained)} of {len(trained[0].keys() | trained[1].keys())} "
          f"train_model outputs differ")
    return 1 if differ or differ_manifests or differ_trained else 0


if __name__ == "__main__":
    sys.exit(main())
