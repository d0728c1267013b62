"""The three benchmark workloads and the quality section every record carries.

Each workload is a closed loop with one caller: the next operation starts when
the previous one returns. A workload prepares its inputs from the seed in
``setup``, runs one timed operation per ``op`` call, checks that operation's
outputs in ``check_op`` (untimed), and turns what it saw into its end-to-end
quality numbers in ``finish``. All calls into deepmp go through module
attributes (``training.train_model``, ``metrics.run_sweep``), so the traced
run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from time import perf_counter

import numpy as np

from deepmp import cli, datagen, metrics, network, seeding, solvers, training

#: the acceptance suite's dictionary seed; the synthetic workloads use its
#: 30x200 dictionary and cli-surrogate generates its surrogate from it
DICT_SEED = 20240801
K_RANGE = (1, 2, 3, 4, 5)

#: DeepMP models for the sweep and the quality section: small enough to train
#: during set-up, trained with the paper's AdaBound settings (the defaults)
MODEL_MIXTURES = 3000
MODEL_EPOCHS = 2
#: test mixtures per sparsity level in one quality-section sweep
QUALITY_TEST = 200
#: test mixtures per sparsity level in one sweep-synth operation
SWEEP_TEST = 40


class Checks:
    """Output checks of one run: how many were made and which failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def recovery(self, value: float, what: str) -> None:
        self.check(math.isfinite(value) and 0.0 <= value <= 1.0,
                   f"{what} = {value!r} is not a finite value in [0, 1]")


def derive(seed: int, *key: int) -> int:
    """Child seed for one operation or input set, fixed by the workload seed."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def acceptance_dictionary():
    return datagen.generate_synthetic_dictionary(30, 200, seed=DICT_SEED)


def train_models(dictionary, seed: int) -> tuple[dict, dict]:
    """One DeepMP model per k, plus each one's final-epoch validation recovery."""
    models, val = {}, {}
    for k in K_RANGE:
        models[k], rows = training.train_model(
            dictionary, k, MODEL_MIXTURES, epochs=MODEL_EPOCHS, seed=derive(seed, k))
        val[k] = rows[-1].val_recovery
    return models, val


def sweep_solvers(dictionary, models) -> dict:
    return {
        "nnmp": metrics.nnmp_runner(dictionary),
        "nnomp": metrics.nnomp_runner(dictionary),
        "deepmp": metrics.deepmp_runner(models),
    }


def quality_section(seed: int, checks: Checks) -> dict:
    """Recovery and epsilon per solver and k, and the criterion-5 margin.

    Computed for the workload seed and the next one with the same small
    recipe whatever the workload, so records of later changes show both the
    shift and the seed-to-seed spread.
    """
    dictionary = acceptance_dictionary()
    section = {}
    for s in (seed, seed + 1):
        models, val = train_models(dictionary, s)
        reports = metrics.run_sweep(dictionary, sweep_solvers(dictionary, models),
                                    K_RANGE, QUALITY_TEST, s)
        entry = {
            "recovery": {label: {str(k): v for k, v in rep.recovery.items()}
                         for label, rep in reports.items()},
            "epsilon": {label: {str(k): v for k, v in rep.epsilon.items()}
                        for label, rep in reports.items()},
            "val_recovery": {str(k): v for k, v in val.items()},
            "criterion5_margin": reports["deepmp"].recovery[3] - reports["nnmp"].recovery[3],
        }
        for label, by_k in entry["recovery"].items():
            for k, value in by_k.items():
                checks.recovery(value, f"quality seed {s} {label} k={k}")
        section[str(s)] = entry
    section["recipe"] = {"dictionary": f"synthetic 30x200 seed {DICT_SEED}",
                         "train_mixtures": MODEL_MIXTURES, "epochs": MODEL_EPOCHS,
                         "test_per_k": QUALITY_TEST, "k": list(K_RANGE)}
    return section


class TrainSynth:
    """train_model at k=3 with 15000 mixtures, paper AdaBound settings."""

    name = "train-synth"
    why = ("small 30x200 matrices, so Python-level mixture generation and "
           "batching dominate training; the workload for a vectorised sampler")
    DEPTH = 3
    MIXTURES = 15000
    EPOCHS = 2
    VAL_FRACTION = 0.1
    TEST = 2000

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.dictionary = acceptance_dictionary()
        self.val: list[float] = []
        self.model = None

    def op(self, i: int) -> dict:
        model, rows = training.train_model(
            self.dictionary, self.DEPTH, self.MIXTURES, epochs=self.EPOCHS,
            seed=derive(self.seed, i), val_fraction=self.VAL_FRACTION)
        return {"model": model, "val_recovery": rows[-1].val_recovery}

    def own_metrics(self, walls: list[float]) -> dict:
        """Training mixture-epochs per second over the untraced operations."""
        num_train = self.MIXTURES - int(round(self.MIXTURES * self.VAL_FRACTION))
        return {"train_mixtures_per_s":
                (num_train * self.EPOCHS * len(walls) / sum(walls), "1/s")}

    def check_op(self, i: int, result: dict, checks: Checks) -> None:
        checks.recovery(result["val_recovery"], f"op {i} val_recovery")
        self.val.append(result["val_recovery"])
        if self.model is None:
            self.model = result["model"]

    def finish(self, checks: Checks) -> dict:
        """Recovery of the first trained model and of NNMP/NNOMP at k=3."""
        reports = metrics.run_sweep(
            self.dictionary, sweep_solvers(self.dictionary, {self.DEPTH: self.model}),
            [self.DEPTH], self.TEST, derive(self.seed, 1 << 20))
        out = {"val_recovery": float(np.mean(self.val))}
        for label, rep in reports.items():
            out[f"recovery_{label}"] = rep.recovery[self.DEPTH]
        return out


class SweepSynth:
    """run_sweep over k=1..5 with NNMP, NNOMP and set-up-trained DeepMP."""

    name = "sweep-synth"
    why = ("per-sample solvers and NNOMP's NNLS refits dominate, no training "
           "in the loop; the workload for a batched pursuit kernel")

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.dictionary = acceptance_dictionary()
        self.models, self.val = train_models(self.dictionary, seed)
        self.recovery: dict[str, list[float]] = {}

    def op(self, i: int) -> dict:
        return metrics.run_sweep(
            self.dictionary, sweep_solvers(self.dictionary, self.models),
            K_RANGE, SWEEP_TEST, derive(self.seed, i))

    def own_metrics(self, walls: list[float]) -> dict:
        """Solver calls per second over the untraced operations."""
        calls = 3 * len(K_RANGE) * SWEEP_TEST
        return {"sweep_signals_per_s": (calls * len(walls) / sum(walls), "1/s")}

    def check_op(self, i: int, reports: dict, checks: Checks) -> None:
        for label, rep in reports.items():
            for k, value in rep.recovery.items():
                checks.recovery(value, f"op {i} {label} k={k}")
                self.recovery.setdefault(label, []).append(value)

    def finish(self, checks: Checks) -> dict:
        self._check_init_equivalence(checks)
        for k, value in self.val.items():
            checks.recovery(value, f"set-up model k={k} val_recovery")
        out = {"val_recovery": float(np.mean(list(self.val.values())))}
        for label, values in self.recovery.items():
            out[f"recovery_{label}"] = float(np.mean(values))
        return out

    def _check_init_equivalence(self, checks: Checks) -> None:
        """Criterion 1 on the test sets of the first five sweeps: a
        dictionary-initialised model's forward_infer equals nnmp_solve bit
        for bit."""
        d = self.dictionary
        for k in K_RANGE:
            model = network.init_from_dictionary(d, k)
            for i in range(5):
                samples = datagen.sample_mixture(d, datagen.MixtureConfig(
                    sparsity=k, num_samples=SWEEP_TEST,
                    seed=seeding.child_seed(derive(self.seed, i), seeding.TEST_STREAM, k)))
                for j, sample in enumerate(samples):
                    ours = network.forward_infer(model, sample.signal)
                    ref = solvers.nnmp_solve(d, sample.signal, k)
                    checks.check(
                        np.array_equal(ours.support, ref.support)
                        and ours.code.tobytes() == ref.code.tobytes(),
                        f"criterion 1: sweep {i} k={k} signal {j} differs from nnmp_solve")


def git_blob_sha1(path) -> str:
    """Independent re-implementation of the manifests' content hash."""
    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha1(b"blob %d\0" % len(data) + data).hexdigest()


class CliSurrogate:
    """deepmp gen-dict -> gen-data -> train -> eval on the Lorentzian surrogate."""

    name = "cli-surrogate"
    why = ("the CLI as users run it on 503x600 spectra-like atoms: BLAS-bound "
           "training plus real CSV, model and manifest file I/O")
    STEPS = ("gen-dict", "gen-data", "train", "eval")
    SCALE = "0.004"
    CONFIG = ("[dictionary]\nsource = surrogate\nsignal_dim = 503\nnum_atoms = 600\n"
              "[training]\nepochs = 2\nval_fraction = 0.25\n"
              "[evaluation]\nz_test = 37500\n")

    def __init__(self, work_dir: str, in_process: bool, probe) -> None:
        """``in_process`` runs the steps through ``cli.main`` (so a traced
        run's wrappers apply); ``probe`` is the run's speed probe."""
        self.work_dir = work_dir
        self.in_process = in_process
        self.probe = probe

    def setup(self, seed: int) -> None:
        self.seed = seed
        shutil.rmtree(self.work_dir, ignore_errors=True)
        os.makedirs(self.work_dir)
        self.config_path = os.path.join(self.work_dir, "surrogate.ini")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(self.CONFIG)
        self.recovery: dict[str, list[float]] = {}
        self.val: list[float] = []
        self.stages: dict[str, list[float]] = {}

    def _argv(self, i: int, step: str) -> list[str]:
        # the dictionary is a fixed input, as in the synthetic workloads; the
        # seed varies the training, validation and test mixtures
        seed = DICT_SEED if step == "gen-dict" else derive(self.seed, i)
        return ["--config", self.config_path, "--seed", str(seed),
                "--scale", self.SCALE, "--out", self._run_dir(i),
                "--k-range", f"{K_RANGE[0]}-{K_RANGE[-1]}", step]

    def _run_dir(self, i: int) -> str:
        return os.path.join(self.work_dir, f"run{i}")

    def op(self, i: int) -> dict:
        """Run the four steps; stop at the first that exits non-zero.

        The speed probe runs between steps, so the operation's probe samples
        cover its whole length.
        """
        stages, codes = {}, {}
        for step in self.STEPS:
            if step != self.STEPS[0]:
                self.probe()
            start = perf_counter()
            if self.in_process:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(self._argv(i, step))
            else:
                code = subprocess.run(
                    [sys.executable, "-m", "deepmp.cli", *self._argv(i, step)],
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL).returncode
            stages[step] = perf_counter() - start
            codes[step] = code
            if code != 0:
                break
        return {"stages": stages, "codes": codes}

    def own_metrics(self, walls: list[float]) -> dict:
        """Median seconds of each CLI step."""
        return {f"cli_{step.replace('-', '_')}_s": (float(np.median(times)), "s")
                for step, times in self.stages.items()}

    def check_op(self, i: int, result: dict, checks: Checks) -> None:
        run_dir = self._run_dir(i)
        for step, seconds in result["stages"].items():
            self.stages.setdefault(step, []).append(seconds)
        for step in self.STEPS:
            code = result["codes"].get(step)
            checks.check(code == 0, f"op {i}: deepmp {step} exited {code}")
        if all(result["codes"].get(step) == 0 for step in self.STEPS):
            self._check_outputs(i, run_dir, checks)
        shutil.rmtree(run_dir, ignore_errors=True)

    def _check_outputs(self, i: int, run_dir: str, checks: Checks) -> None:
        for name in sorted(os.listdir(run_dir)):
            if not name.startswith("manifest_"):
                continue
            with open(os.path.join(run_dir, name), encoding="utf-8") as fh:
                manifest = json.load(fh)
            for rel, digest in {**manifest["inputs"], **manifest["outputs"]}.items():
                path = os.path.join(run_dir, rel)
                checks.check(os.path.exists(path) and git_blob_sha1(path) == digest,
                             f"op {i}: {name} hash of {rel} does not match")
        with open(os.path.join(run_dir, "metrics.json"), encoding="utf-8") as fh:
            reports = json.load(fh)
        for label, rep in reports.items():
            for k, value in rep["recovery"].items():
                checks.recovery(value, f"op {i} {label} k={k}")
                self.recovery.setdefault(label, []).append(value)
        for k in K_RANGE:
            with open(os.path.join(run_dir, f"train_log_k{k}.csv"), encoding="utf-8") as fh:
                last = fh.read().strip().splitlines()[-1]
            value = float(last.split(",")[2])
            checks.recovery(value, f"op {i} train log k={k} val_recovery")
            self.val.append(value)

    def finish(self, checks: Checks) -> dict:
        out = {"val_recovery": float(np.mean(self.val)) if self.val else float("nan")}
        for label in ("nnmp", "nnomp", "deepmp"):
            values = self.recovery.get(label, [])
            out[f"recovery_{label}"] = float(np.mean(values)) if values else float("nan")
        return out
