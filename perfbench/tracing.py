"""Spans around calls into deepmp's modules, recorded from outside the package.

Each traced function is wrapped at every module attribute through which a
caller looks it up (``deepmp.training.sample_mixture``,
``deepmp.metrics.nnmp_solve`` and so on), so nothing under ``src/`` changes.
Spans hold a name, a start, an end and the index of their parent span, stay in
memory while the run lasts, and are written to a file when it ends. Counters
are added at the same boundaries, so ratios are measured where the work is.

The benchmark opens one top-level span per phase: ``bench.setup``,
``bench.op`` (one per traced operation) and ``bench.finish``. Spans and
counters under ``bench.op`` keep their layer names; those under set-up and
finish are named ``setup.<layer>`` and ``finish.<layer>``, so the work the
benchmark does around its operations never folds into the operation's layers.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import json
import os
from time import perf_counter

import numpy as np


# Counter hooks: (tracer, span name, args, kwargs, result) -> None. They
# derive work from arguments and results; nothing reads the program's internals.

def _count_solve(tracer, budget, result):
    tracer.count("solvers.solves", 1)
    tracer.count("solvers.steps", result.steps_taken)
    tracer.count("solvers.early_stops", int(result.steps_taken < budget))


def _count_budget_solve(tracer, name, args, kwargs, result):
    _count_solve(tracer, args[2] if len(args) > 2 else kwargs["budget"], result)


def _count_forward(tracer, name, args, kwargs, result):
    _count_solve(tracer, args[0].depth, result)


def _count_training_draws(tracer, name, args, kwargs, result):
    # run_sweep and gen-data draw mixtures too, but train on nothing
    if tracer.within("training.train_model"):
        tracer.count("datagen.mixtures_drawn_by_training", len(result))


def _count_training_uses(tracer, name, args, kwargs, result):
    # every epoch trains once on each training mixture and validates once on
    # each validation mixture
    num_samples = args[2] if len(args) > 2 else kwargs["num_samples"]
    tracer.count("datagen.mixtures_used_by_training", kwargs["epochs"] * num_samples)


def _count_loss_flops(tracer, name, args, kwargs, result):
    model, batch = args[0], args[1]
    b, m, n = len(batch), model.signal_dim, model.num_atoms
    # per block: scores r @ W and gradient r.T @ p (2*b*m*n each), softmax
    # and its normaliser (~5 per score), residual update (~6 per entry)
    tracer.count("network.loss_and_gradient.flops_computed", model.depth * (
        4 * b * m * n + 5 * b * n + 6 * b * m))


def _count_adabound_bytes(tracer, name, args, kwargs, result):
    # each float64 parameter: read p, g, m, v and write p, m, v
    tracer.count("optim.adabound_step.bytes_computed",
                 sum(7 * p.nbytes for p in args[1]))


def _path_bytes(index):
    """Hook counting the size of the file or directory named by argument ``index``."""
    def count(tracer, name, args, kwargs, result):
        path = args[index]
        if os.path.isdir(path):
            size = sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))
        else:
            size = os.path.getsize(path)
        tracer.count(f"{name}.bytes", size)
    return count


#: span name -> (modules where callers look the function up, attribute, hook).
#: The defining module comes first; the benchmark's own calls go through it.
TRACED = {
    "datagen.sample_mixture": (
        ["deepmp.datagen", "deepmp.metrics", "deepmp.training"], "sample_mixture",
        _count_training_draws),
    "datagen.write_dataset": (["deepmp.datagen"], "write_dataset", _path_bytes(1)),
    "training.train_model": (
        ["deepmp.training"], "train_model", _count_training_uses),
    "network.build_training_batch": (
        ["deepmp.network", "deepmp.training"], "build_training_batch", None),
    "network.loss_and_gradient": (
        ["deepmp.network", "deepmp.training"], "loss_and_gradient",
        _count_loss_flops),
    "network.batched_infer": (
        ["deepmp.network", "deepmp.training"], "batched_infer", None),
    "network.forward_infer": (
        ["deepmp.network", "deepmp.metrics"], "forward_infer", _count_forward),
    "network.save_model": (["deepmp.network"], "save_model", _path_bytes(1)),
    "network.load_model": (["deepmp.network"], "load_model", _path_bytes(0)),
    "optim.adabound_step": (
        ["deepmp.optim", "deepmp.training"], "adabound_step",
        _count_adabound_bytes),
    "solvers.nnmp_solve": (
        ["deepmp.solvers", "deepmp.metrics"], "nnmp_solve", _count_budget_solve),
    "solvers.nnomp_solve": (
        ["deepmp.solvers", "deepmp.metrics"], "nnomp_solve", _count_budget_solve),
    "solvers.nnls_active_set": (["deepmp.solvers"], "nnls_active_set", None),
    "metrics.hamming_complement": (
        ["deepmp.metrics", "deepmp.training"], "hamming_complement", None),
    "metrics.epsilon_error": (["deepmp.metrics"], "epsilon_error", None),
    "metrics.coherence_ecdf": (["deepmp.metrics"], "coherence_ecdf", None),
    "metrics.run_sweep": (["deepmp.metrics"], "run_sweep", None),
    "types.save_dictionary_csv": (
        ["deepmp.types", "deepmp.cli"], "save_dictionary_csv", _path_bytes(1)),
    "types.load_dictionary_csv": (
        ["deepmp.types", "deepmp.cli"], "load_dictionary_csv", _path_bytes(0)),
    "cli.blob_hash": (["deepmp.cli"], "blob_hash", _path_bytes(0)),
}

#: counters reported per traced operation, read zero when never counted
PER_OP_COUNTERS = (
    "network.loss_and_gradient.flops_computed", "optim.adabound_step.bytes_computed",
    "datagen.write_dataset.bytes", "network.save_model.bytes", "network.load_model.bytes",
    "types.save_dictionary_csv.bytes", "types.load_dictionary_csv.bytes", "cli.blob_hash.bytes",
)

#: name prefix of spans and counters under each benchmark phase; none under
#: ``bench.op``
PHASE_PREFIX = {"bench.setup": "setup.", "bench.op": "", "bench.finish": "finish."}


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list[list] = []  # [name index, start, end, parent index]
        self.counters: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def recording(self, name: str):
        """Wrap the traced functions and record one span around the block."""
        self.install()
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)
            self.uninstall()

    def _open(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._name_index[name], perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def within(self, name: str) -> bool:
        """Whether a span of this name is open."""
        index = self._name_index.get(name)
        return any(self.spans[i][0] == index for i in self._stack)

    def count(self, key: str, n: int) -> None:
        """Add to a counter, named for the benchmark phase it is counted in."""
        phase = self.names[self.spans[self._stack[0]][0]]
        self.counters[PHASE_PREFIX[phase] + key] += n

    def _close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if hook is not None:
                hook(tracer, name, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at each of its lookup sites."""
        for name, (sites, attr, hook) in TRACED.items():
            original = getattr(importlib.import_module(sites[0]), attr)
            wrapper = self._wrap(name, original, hook)
            for site in sites:
                module = importlib.import_module(site)
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def layer_stats(self) -> dict[str, dict]:
        """Per span name: calls, self seconds, per-call microseconds.

        A span below a benchmark phase is named with that phase's prefix
        (``setup.``, ``finish.``; none under ``bench.op``). Self time is a
        span's duration minus the durations of its direct children; calls are
        strictly nested in one thread, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        root = list(range(len(self.spans)))
        for i, (_, start, end, parent) in enumerate(self.spans):
            if parent >= 0:  # a parent opens, so is stored, before its children
                child_time[parent] += end - start
                root[i] = root[parent]
        durations: dict[str, list[float]] = collections.defaultdict(list)
        self_time: dict[str, float] = collections.defaultdict(float)
        for i, (name_idx, start, end, _) in enumerate(self.spans):
            name = self.names[name_idx]
            if root[i] != i:
                name = PHASE_PREFIX[self.names[self.spans[root[i]][0]]] + name
            durations[name].append(end - start)
            self_time[name] += end - start - child_time[i]
        stats = {}
        for name, values in durations.items():
            us = np.asarray(values) * 1e6
            stats[name] = {
                "calls": len(values),
                "s": self_time[name],
                "us_p50": float(np.percentile(us, 50)),
                "us_p99": float(np.percentile(us, 99)),
            }
        return stats

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def per_layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """Per-layer values of the traced operations, per traced operation.

    ``.s`` is self time (span minus its child spans) and ``.calls`` the
    number of calls, both summed over the spans under ``bench.op`` and
    divided by the number of traced operations; so are the ``.bytes`` and
    ``_computed`` counters. ``.us_p50``/``.us_p99`` are per-call durations
    including children. Layers the operations never called read zero.
    """
    stats = tracer.layer_stats()
    ops = max(stats.get("bench.op", {"calls": 0})["calls"], 1)
    counters = {k: v for k, v in tracer.counters.items()
                if not k.startswith(("setup.", "finish."))}
    out: dict[str, float] = {}
    for name in TRACED:
        entry = stats.get(name, {"calls": 0, "s": 0.0, "us_p50": 0.0, "us_p99": 0.0})
        out[f"{name}.s"] = entry["s"] / ops
        out[f"{name}.calls"] = entry["calls"] / ops
        out[f"{name}.us_p50"] = entry["us_p50"]
        out[f"{name}.us_p99"] = entry["us_p99"]
    for key in PER_OP_COUNTERS:
        out[key] = counters.get(key, 0) / ops

    def ratio(num, den):
        return counters[num] / counters[den] if counters.get(den) else 0.0

    out["datagen.mixtures_used_per_drawn"] = ratio(
        "datagen.mixtures_used_by_training", "datagen.mixtures_drawn_by_training")
    out["solvers.steps_per_solve"] = ratio("solvers.steps", "solvers.solves")
    out["solvers.early_stops_per_solve"] = ratio("solvers.early_stops", "solvers.solves")
    out["trace.overhead_per_op_s"] = overhead_s
    return out


def phase_metrics(tracer: Tracer) -> dict[str, float]:
    """Totals of the benchmark's own phases and of the layers under set-up
    and finish: ``bench.*``, ``setup.<layer>``, ``finish.<layer>``."""
    out: dict[str, float] = {}
    for name, entry in tracer.layer_stats().items():
        if name.startswith(("bench.", "setup.", "finish.")):
            out[f"{name}.s"] = entry["s"]
            out[f"{name}.calls"] = entry["calls"]
    for key, value in tracer.counters.items():
        if key.startswith(("setup.", "finish.")):
            out[key] = value
    return out
