"""Command-line entry point for reproducible runs.

Subcommands: gen-dict, gen-data, train, eval, ecdf. Every command reads an
optional INI config (defaults reproduce the full-scale reference setting),
applies --seed / --scale / --out overrides and writes its outputs under the
run directory. Each ``cmd_*`` returns the paths it read and wrote (``eval``
also its solver timings), and ``main`` then writes the command's manifest:
content hashes of everything it read and wrote, its wall seconds and peak
RSS, and the Python, numpy and BLAS versions. A command that fails writes
no manifest. Every command sets OpenBLAS to one thread first, so its bytes
do not depend on the thread count. ``gen-data``, ``train`` and
``eval`` exit 2 before drawing anything when their per-row arrays would
exceed physical memory. Exit codes: 0 success, 1 numerical failure, 2 bad
input or config.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import os
import platform
import resource
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import datagen, metrics, network, training
from .config import RunConfig, load_config, parse_k_range
from .errors import ConfigError, DimensionMismatch, InputError
from .errors import MissingModel, NumericalError
from .seeding import DICT_STREAM, child_seed
from .solvers import ProjectionMode
from .types import READ_BYTES, Dictionary, load_dictionary_csv, save_dictionary_csv
from .types import write_csv, write_json


def blob_hash(path) -> str:
    """Git-style content hash: sha1 over a blob header plus the file bytes,
    read ``READ_BYTES`` at a time."""
    digest = hashlib.sha1()
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        digest.update(f"blob {size}\0".encode("ascii"))
        buffer = bytearray(min(size, READ_BYTES))
        while count := fh.readinto(buffer):
            digest.update(memoryview(buffer)[:count])
    return digest.hexdigest()


#: OpenBLAS's thread-count functions as plain and numpy's wheel builds name
#: them, with ``{}`` for ``get`` or ``set``
_OPENBLAS_THREADS = ("openblas_{}_num_threads", "openblas_{}_num_threads64_",
                     "scipy_openblas_{}_num_threads64_")


def _blas() -> dict:
    """numpy's BLAS as built, and the thread count its loaded OpenBLAS
    reports once set to one thread. The count is None where no setter or
    getter is found, or ``/proc/self/maps`` is unreadable."""
    built = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line and ".so" in line}
        libraries = [ctypes.CDLL(path) for path in sorted(paths)]
    except OSError:
        libraries = []
    getter, setter = (next((getattr(library, name.format(verb))
                            for library in libraries
                            for name in _OPENBLAS_THREADS
                            if hasattr(library, name.format(verb))), None)
                      for verb in ("get", "set"))
    if setter:
        setter(1)
    return {"name": built.get("name"), "version": built.get("version"),
            "threads": int(getter()) if getter and setter else None}


def _write_manifest(out_dir, command, config: RunConfig, started: float,
                    blas: dict, inputs, outputs, **extra) -> None:
    """Hashes of what ``command`` read and wrote, plus its wall seconds since
    ``started`` (a ``perf_counter`` reading), the process's peak RSS, the
    Python and numpy versions and ``blas``, a :func:`_blas` record."""
    manifest = {
        "command": command,
        "config": asdict(config),
        "inputs": {os.path.relpath(p, out_dir): blob_hash(p) for p in inputs},
        "outputs": {os.path.relpath(p, out_dir): blob_hash(p) for p in outputs},
        "wall_seconds": time.perf_counter() - started,
        # ru_maxrss is in KiB on Linux
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__},
        "blas": blas,
        **extra,
    }
    path = os.path.join(out_dir, f"manifest_{command.replace('-', '_')}.json")
    write_json(path, manifest)


def _dictionary_path(config: RunConfig) -> str:
    return os.path.join(config.out_dir, "dictionary.csv")


def _model_path(config: RunConfig, k: int) -> str:
    return os.path.join(config.out_dir, "models", f"model_k{k}.dmp")


def _check_fits(config: RunConfig, count: str, bytes_per_k: int) -> None:
    """ConfigError when ``count`` mixtures (a config field) need more than
    the machine's physical memory at ``bytes_per_k`` bytes a row per
    sparsity level of the deepest level: the per-row arrays a command holds,
    so an impossible count fails before anything is drawn."""
    rows, k = getattr(config, count), max(config.k_range)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    # integers throughout: a count can be too large for a float
    if rows * bytes_per_k * k > memory:
        raise ConfigError(f"{count} = {rows} at k={k}, {bytes_per_k * k} "
                          f"bytes a row, needs more than the {memory >> 20} "
                          f"MiB of physical memory")


def _load_dictionary(config: RunConfig) -> Dictionary:
    """The run's ``dictionary.csv``; DimensionMismatch, before any level
    does work, when the config's deepest sparsity level exceeds its atoms."""
    dictionary = load_dictionary_csv(_dictionary_path(config))
    if max(config.k_range) > dictionary.num_atoms:
        raise DimensionMismatch(f"sparsity {max(config.k_range)} exceeds the "
                                f"{dictionary.num_atoms} available atoms")
    return dictionary


def cmd_gen_dict(config: RunConfig, args) -> dict:
    seed = child_seed(config.seed, DICT_STREAM)
    if config.source == "synthetic":
        dictionary = datagen.generate_synthetic_dictionary(
            config.signal_dim, config.num_atoms, seed)
    elif config.source == "surrogate":
        dictionary = datagen.generate_raman_surrogate(
            config.signal_dim, config.num_atoms, config.peaks_per_atom, seed)
    else:
        dictionary = datagen.load_raman_library(config.raman_path)
    os.makedirs(config.out_dir, exist_ok=True)
    csv_path = _dictionary_path(config)
    save_dictionary_csv(dictionary, csv_path)
    meta_path = os.path.join(config.out_dir, "dictionary.json")
    write_json(meta_path, {"source": config.source,
                           "signal_dim": dictionary.signal_dim,
                           "num_atoms": dictionary.num_atoms,
                           "seed": config.seed})
    print(f"wrote {csv_path} ({dictionary.signal_dim}x{dictionary.num_atoms})")
    return {"inputs": [config.raman_path] if config.source == "raman" else [],
            "outputs": [csv_path, meta_path]}


def cmd_gen_data(config: RunConfig, args) -> dict:
    # the stream train holds: each row's support and coefficients
    _check_fits(config, "num_train_samples", 16)
    dictionary = _load_dictionary(config)
    outputs = []
    for k in config.k_range:
        directory = os.path.join(config.out_dir, "data", f"k{k}")
        shards = training.stream_shards(dictionary, k, config.seed,
                                        config.num_train_samples)
        outputs.extend(datagen.write_dataset(
            shards, directory, dictionary=dictionary, sparsity=k,
            seed=config.seed))
        print(f"wrote {config.num_train_samples} samples at sparsity {k} "
              f"to {directory}")
    return {"inputs": [_dictionary_path(config)], "outputs": outputs}


def cmd_train(config: RunConfig, args) -> dict:
    # each row's support, coefficients and teacher targets
    _check_fits(config, "num_train_samples", 24)
    dictionary = _load_dictionary(config)
    outputs = []
    for k in config.k_range:
        model, rows = training.train_model(
            dictionary, k, config.num_train_samples,
            epochs=config.resolved_epochs, batch_size=config.batch_size,
            hyper=config.hyper(), proj=ProjectionMode(config.projection),
            seed=config.seed, val_fraction=config.val_fraction,
        )
        model_path = _model_path(config, k)
        # made only once a model is trained, so a failed run leaves none
        os.makedirs(os.path.dirname(model_path), exist_ok=True)
        network.save_model(model, model_path)
        # released before the next depth trains beside it
        del model
        log_path = os.path.join(config.out_dir, f"train_log_k{k}.csv")
        write_csv(log_path, ([row.epoch, row.mean_loss, row.val_recovery]
                             for row in rows), "epoch,mean_loss,val_recovery")
        outputs.extend([model_path, log_path])
        last = rows[-1].mean_loss if rows else float("nan")
        print(f"trained depth-{k} model ({config.resolved_epochs} epochs, "
              f"final mean loss {last:.6g}) -> {model_path}")
    return {"inputs": [_dictionary_path(config)], "outputs": outputs}


def _write_ecdfs(config: RunConfig, base: str, matrices) -> list[str]:
    """ECDF CSVs of a dictionary's atoms (``ecdf_<base>.csv``) or of each
    block l of a selection stack (``ecdf_<base>_layer<l>.csv``)."""
    if matrices.ndim == 2:
        named = {f"ecdf_{base}.csv": matrices}
    else:
        named = {f"ecdf_{base}_layer{layer}.csv": weights
                 for layer, weights in enumerate(matrices)}
    paths = [os.path.join(config.out_dir, name) for name in named]
    for path, matrix in zip(paths, named.values()):
        write_csv(path, metrics.coherence_ecdf(matrix), "t,fraction")
    return paths


def cmd_eval(config: RunConfig, args) -> dict:
    # each test row's support and coefficients
    _check_fits(config, "z_test", 16)
    csv_path = _dictionary_path(config)
    dictionary = _load_dictionary(config)
    proj = ProjectionMode(config.projection)
    for k in config.k_range:
        path = _model_path(config, k)
        if not os.path.exists(path):
            raise MissingModel(f"no trained model for sparsity {k} at {path}")
    baselines = {
        "nnmp": metrics.nnmp_runner(dictionary, proj),
        "nnomp": metrics.nnomp_runner(dictionary),
    }
    deepest = max(config.k_range)
    # the deepest model's stack, kept from its level for its ECDFs
    deepest_weights: list[np.ndarray] = []

    def level_solvers(k: int) -> dict:
        # each model is loaded and checked when its level runs, and the
        # sweep releases it before the next one loads
        path = _model_path(config, k)
        model = network.load_model(path)
        # NNMP and NNOMP run on dictionary.csv with the config's projection,
        # so a model trained for another of either is not comparable
        if not np.array_equal(model.update_dict.atoms.view(np.uint64),
                              dictionary.atoms.view(np.uint64)):
            raise ConfigError(f"{path}: dictionary differs from {csv_path}")
        if model.proj is not proj:
            raise ConfigError(f"{path}: projection {model.proj.value!r}, "
                              f"config has {proj.value!r}")
        # bit-equal, so the model shares the one copy
        model.update_dict = dictionary
        if k == deepest:
            deepest_weights[:] = [model.selection_weights]
        return {**baselines, "deepmp": metrics.deepmp_runner({k: model})}

    reports = metrics.run_sweep(
        dictionary, level_solvers, config.k_range, config.z_test, config.seed,
    )
    outputs = []
    metrics_csv = os.path.join(config.out_dir, "metrics.csv")
    metrics_json = os.path.join(config.out_dir, "metrics.json")
    metrics.write_metrics_csv(reports, metrics_csv)
    metrics.write_metrics_json(reports, metrics_json)
    outputs.extend([metrics_csv, metrics_json])
    outputs.extend(_write_ecdfs(config, "dictionary", dictionary.atoms))
    outputs.extend(_write_ecdfs(config, f"model_k{deepest}",
                                *deepest_weights))
    for label in sorted(reports):
        for name in ("recovery", "epsilon"):
            values = getattr(reports[label], name)
            summary = ", ".join(f"k={k}: {values[k]:.3f}" for k in sorted(values))
            print(f"{label} {name}  {summary}")
    print(f"wrote {metrics_csv}")
    return {
        "inputs": [csv_path] + [_model_path(config, k) for k in config.k_range],
        "outputs": outputs,
        # timings vary between runs, so they go in the manifest and not in
        # the metrics files
        "solver_seconds": {
            label: {str(k): t for k, t in sorted(rep.seconds.items())}
            for label, rep in reports.items()
        },
    }


def cmd_ecdf(config: RunConfig, args) -> dict:
    base = os.path.splitext(os.path.basename(args.source))[0]
    if args.source.endswith(".dmp"):
        matrices = network.load_model(args.source).selection_weights
    else:
        matrices = load_dictionary_csv(args.source).atoms
    os.makedirs(config.out_dir, exist_ok=True)
    outputs = _write_ecdfs(config, base, matrices)
    for path in outputs:
        print(f"wrote {path}")
    return {"inputs": [args.source], "outputs": outputs}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deepmp",
        description="Non-negative sparse decomposition: data, training, evaluation.",
    )
    parser.add_argument("--config", metavar="PATH",
                        help="INI config file (defaults are full scale)")
    parser.add_argument("--seed", type=int, metavar="U64",
                        help="master seed override")
    parser.add_argument("--scale", type=float, metavar="FLOAT",
                        help="shrink sample counts by this factor")
    parser.add_argument("--out", metavar="DIR", help="run directory override")
    parser.add_argument("--k-range", metavar="SPEC",
                        help="sparsity levels, e.g. 1-5 or 3 or 1,2,4")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen-dict", help="generate or load the dictionary"
                   ).set_defaults(run=cmd_gen_dict)
    sub.add_parser("gen-data", help="export training mixtures as CSV shards"
                   ).set_defaults(run=cmd_gen_data)
    sub.add_parser("train", help="train one model per sparsity level"
                   ).set_defaults(run=cmd_train)
    sub.add_parser("eval", help="run the metric sweep over all solvers"
                   ).set_defaults(run=cmd_eval)
    ecdf = sub.add_parser("ecdf", help="coherence ECDF of a matrix or model")
    ecdf.add_argument("source", help="dictionary CSV or .dmp model file")
    ecdf.set_defaults(run=cmd_ecdf)
    return parser


def _check_out_dir(path: str) -> None:
    """ConfigError when the run directory is, or lies under, a non-directory."""
    probe = os.path.abspath(path)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError(f"run directory {path!r}: {probe!r} is not a directory")


def resolve_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out_dir"] = args.out
    if args.k_range is not None:
        overrides["k_range"] = parse_k_range(args.k_range)
    if overrides:
        config = replace(config, **overrides)
    if args.scale is not None:
        config = config.scaled(args.scale)
    _check_out_dir(config.out_dir)
    return config.validate()


def main(argv=None) -> int:
    started = time.perf_counter()
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args)
        # set before the command runs: BLAS's thread count can change the
        # bytes a command writes
        blas = _blas()
        _write_manifest(config.out_dir, args.command, config, started, blas,
                        **args.run(config, args))
    except (InputError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
