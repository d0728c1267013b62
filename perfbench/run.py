#!/usr/bin/env python3
"""Benchmark for deepmp: three workloads, end-to-end metrics, a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload train-synth --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

It imports deepmp from ``src/`` beside this directory, fixes every BLAS pool
(this process and the CLI subprocesses) to one thread, sets each workload up
several times, measures it for ``--seconds``, checks its outputs, writes a
record under ``perfbench/out/`` and prints every metric with its unit. The
last line of standard output is one JSON object; with ``--trace 0`` it holds
the ``end_to_end`` metrics of BENCHMARK.json, with ``--trace 1`` the
``per_layer`` ones. Exit code 1 means an operation or an output check failed,
2 means the package or the benchmark description could not be loaded.
"""

from __future__ import annotations

import os

# before numpy loads, so the BLAS pool and every child process start with it
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
SETUP_REPEATS = 5
#: reference times that set-up is rescaled to: one speed probe, and a fresh
#: interpreter importing numpy, each about as long as on the 2-vCPU machine
#: the benchmark was written on
REF_PROBE_S = 0.004
REF_NUMPY_IMPORT_S = 0.14
WORKLOADS = ("train-synth", "sweep-synth", "cli-surrogate")


class BenchError(Exception):
    """The benchmark cannot run here (missing package or description)."""


def load_package():
    """Import deepmp from this checkout's src/, and only from there."""
    if not os.path.isdir(os.path.join(SRC, "deepmp")):
        raise BenchError(f"no deepmp package under {SRC}")
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = SRC + os.pathsep + os.environ.get("PYTHONPATH", "")
    import deepmp

    if not os.path.abspath(deepmp.__file__).startswith(SRC + os.sep):
        raise BenchError(f"deepmp imported from {deepmp.__file__}, not {SRC}")


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


# -- environment -----------------------------------------------------------------


def blas_threads() -> int | None:
    """Threads of the loaded OpenBLAS, asked from the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": BLAS_THREADS,
        "git_commit": git_commit(),
    }


# -- one workload ----------------------------------------------------------------


def make_workload(name: str, work_dir: str, in_process: bool, probe):
    import workloads

    if name == "train-synth":
        return workloads.TrainSynth()
    if name == "sweep-synth":
        return workloads.SweepSynth()
    return workloads.CliSurrogate(work_dir, in_process, probe)


class SpeedProbe:
    """A fixed machine-speed probe timed between operations.

    On a shared host a process's speed moves between levels up to 2x apart
    for seconds to tens of seconds, following the load of other tenants.
    Dividing an operation's time by the probe times around it cancels that.
    The probe uses no deepmp code, so no change to the program moves it. It
    mixes small matrix-vector products, argmax and Python arithmetic, like
    the program's inner loops, and takes a few milliseconds. Every sample is
    kept in ``samples``.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.matrix = rng.random((30, 200))
        self.signals = rng.random((800, 30))
        self.samples: list[float] = []

    def __call__(self) -> None:
        start = perf_counter()
        total = 0.0
        for y in self.signals:
            scores = self.matrix.T @ y
            total += float(scores[int(np.argmax(scores))])
        self.samples.append(perf_counter() - start)


def interpreter_seconds(code: str) -> float:
    """Wall time of a fresh interpreter that runs ``code``."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, measure, check; returns the workload's part of the record."""
    work_dir = os.path.join(OUT, f"work-{name}-{seed}")
    probe = SpeedProbe()
    try:
        return _run_workload(make_workload(name, work_dir, trace, probe), probe,
                             name, seed, seconds, trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run_workload(workload, probe: SpeedProbe, name: str, seed: int,
                  seconds: float, trace: bool) -> dict:
    import tracing
    import workloads

    checks = workloads.Checks()
    tracer = tracing.Tracer()
    failures: list[str] = []

    def phase(span_name: str, traced: bool):
        return tracer.recording(span_name) if traced else contextlib.nullcontext()

    # set-up: a fresh interpreter imports the package (work moved to import
    # time shows here), then the workload builds its inputs from the seed.
    # setup_s rescales both parts to a reference machine, so host drift
    # cancels: the import by fresh interpreters importing numpy alone just
    # before and after it, the build by the speed probes around it.
    setup_times, setup_scaled, numpy_imports = [], [], []
    probe()  # warm-up, not used
    for _ in range(1 if trace else SETUP_REPEATS):
        before = interpreter_seconds("import numpy")
        package = interpreter_seconds("import deepmp")
        after = interpreter_seconds("import numpy")
        probe()
        start = perf_counter()
        with phase("bench.setup", trace):
            workload.setup(seed)
        build = perf_counter() - start
        probe()
        numpy_imports += [before, after]
        setup_times.append(package + build)
        setup_scaled.append(
            package * REF_NUMPY_IMPORT_S / statistics.mean((before, after))
            + build * REF_PROBE_S / statistics.mean(probe.samples[-2:]))
    phases = {"setup": sum(setup_times)}

    # closed loop, one caller; in a traced run every other operation is
    # traced and the others give the untraced comparison for the overhead.
    # The speed probe runs after set-up, after each operation, and inside
    # long operations between their steps.
    walls = {False: [], True: []}
    costs = {False: [], True: []}
    deadline = perf_counter() + seconds
    i = 0
    while True:
        traced = trace and i % 2 == 1
        first_probe = len(probe.samples) - 1
        start = perf_counter()
        try:
            with phase("bench.op", traced):
                result = workload.op(i)
        except Exception as exc:  # a failed operation is counted, not fatal
            failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            break
        walls[traced].append(perf_counter() - start)
        probe()
        costs[traced].append(walls[traced][-1] / statistics.mean(probe.samples[first_probe:]))
        workload.check_op(i, result, checks)
        i += 1
        if perf_counter() >= deadline and (not trace or i >= 2):
            break

    ops = walls[False] + walls[True]
    phases["measure"] = perf_counter() - deadline + seconds
    quality_numbers = {}
    start = perf_counter()
    try:
        if ops:
            with phase("bench.finish", trace):
                quality_numbers = workload.finish(checks)
        phases["finish"] = perf_counter() - start
    except Exception as exc:  # reported as a failure, the record is still written
        failures.append(f"checks: {type(exc).__name__}: {exc}")

    attempted = len(ops) + len(failures) + checks.attempted
    failed = len(failures) + len(checks.failures)
    untraced = walls[False]
    values = {
        "setup_s": statistics.median(setup_scaled),
        "setup_wall_s": statistics.median(setup_times),
        "op_cost_ref": percentile(costs[False], 50),
        "op_wall_s_min": min(untraced) if untraced else float("nan"),
        "op_wall_s_p50": percentile(untraced, 50),
        "peak_rss_mb": peak_rss_mb(),
        "error_rate": failed / attempted,
        **quality_numbers,
    }
    units = {"setup_s": "s", "setup_wall_s": "s", "op_cost_ref": "ref",
             "op_wall_s_min": "s",
             "op_wall_s_p50": "s",
             "peak_rss_mb": "MB", "error_rate": "fraction", "val_recovery": "fraction",
             "recovery_nnmp": "fraction", "recovery_nnomp": "fraction",
             "recovery_deepmp": "fraction"}
    if untraced:
        for metric, (value, unit) in workload.own_metrics(untraced).items():
            values[metric] = value
            units[metric] = unit

    part = {
        "why": workload.why,
        "ops": len(ops),
        "op_walls_s": ops,
        "probe_s": probe.samples,
        "setup_times_s": setup_times,
        "numpy_import_s": numpy_imports,
        "phase_s": phases,
        "attempted": attempted,
        "failed": failed,
        "failures": (failures + checks.failures)[:50],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    if trace:
        # traced minus untraced, each operation divided by the probes around
        # it as for op_cost_ref, so host drift between the two halves cancels;
        # in seconds at the untraced operations' median speed
        if walls[True] and walls[False]:
            share = statistics.median(costs[True]) / statistics.median(costs[False]) - 1
            overhead = share * statistics.median(walls[False])
        else:
            share = overhead = float("nan")
        layers = tracing.per_layer_metrics(tracer, overhead)
        part["phase_layers"] = tracing.phase_metrics(tracer)
        spans_path = os.path.join(OUT, f"{name}-seed{seed}.spans.json")
        tracer.write(spans_path)
        part["trace"] = {
            "spans_file": os.path.relpath(spans_path, ROOT),
            "span_count": len(tracer.spans),
            "traced_op_walls_s": walls[True],
            "untraced_op_walls_s": walls[False],
            "overhead_per_op_s": overhead,
            "overhead_share": share,
        }
        part["per_layer"] = layers
    return part


# -- output ----------------------------------------------------------------------


def contract_metrics(spec: dict, part: dict, trace: bool) -> dict:
    """The BENCHMARK.json metrics of one workload, by name with their units.

    A metric a failed run could not measure is null.
    """
    if trace:
        values = part.get("per_layer", {})
        listed = spec["per_layer"]
    else:
        values = {k: v["value"] for k, v in part["metrics"].items()}
        listed = spec["end_to_end"]
    out = {}
    for m in listed:
        value = values.get(m["name"])
        if value is not None and not math.isfinite(value):
            value = None
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = load_spec()
        load_package()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    import workloads

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    record = {"environment": environment(), "args": vars(args), "workloads": {}}
    for name in names:
        record["workloads"][name] = run_workload(name, args.seed, args.seconds,
                                                 bool(args.trace))
    # the quality section depends on the seed alone: once per record, untimed
    quality_checks = workloads.Checks()
    start = perf_counter()
    try:
        record["quality"] = workloads.quality_section(args.seed, quality_checks)
    except Exception as exc:  # reported as a failure, the record is still written
        quality_checks.check(False, f"quality: {type(exc).__name__}: {exc}")
    record["quality_s"] = perf_counter() - start
    record["quality_failures"] = quality_checks.failures
    record_path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    attempted, failed = quality_checks.attempted, len(quality_checks.failures)
    final = {}
    for name, part in record["workloads"].items():
        attempted += part["attempted"]
        failed += part["failed"]
        for metric, entry in sorted(part["metrics"].items()):
            print(f"{name:14s} {metric:24s} {entry['value']:>14.6g} {entry['unit']}")
        if "trace" in part:
            print(f"{name:14s} tracing overhead {part['trace']['overhead_per_op_s']:.4g} s "
                  f"per operation ({part['trace']['overhead_share']:.1%})")
        for metric, value in sorted(part.get("per_layer", {}).items()):
            print(f"{name:14s} {metric:48s} {value:>14.6g}")
        for failure in part["failures"]:
            print(f"{name:14s} FAILED {failure}")
        prefix = "" if len(names) == 1 else f"{name}/"
        for metric, entry in contract_metrics(spec, part, bool(args.trace)).items():
            final[prefix + metric] = entry
    for failure in quality_checks.failures:
        print(f"quality        FAILED {failure}")
    print(f"record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
