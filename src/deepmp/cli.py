"""Command-line entry point for reproducible runs.

Subcommands: gen-dict, gen-data, train, eval, ecdf. Every command reads an
optional INI config (defaults reproduce the full-scale reference setting),
applies --seed / --scale / --out overrides, writes its outputs under the run
directory, and records a manifest with content hashes of everything it read
and wrote, its wall seconds, the process's peak RSS and the Python and numpy
versions. Exit codes: 0 success, 1 numerical failure, 2 bad input or config.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from dataclasses import asdict, replace

import numpy as np

from . import datagen, metrics, network, training
from .config import RunConfig, load_config, parse_k_range
from .errors import ConfigError, InputError, MissingModel, NumericalError
from .seeding import DICT_STREAM, child_seed
from .solvers import ProjectionMode
from .types import READ_BYTES, Dictionary, load_dictionary_csv, save_dictionary_csv


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


def _write_manifest(out_dir, command, config: RunConfig, inputs, outputs,
                    started: float, **extra) -> None:
    """Hashes of what ``command`` read and wrote, plus its wall seconds since
    ``started`` (a ``perf_counter`` reading), the process's peak RSS and the
    Python and numpy versions."""
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
        **extra,
    }
    path = os.path.join(out_dir, f"manifest_{command.replace('-', '_')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _dictionary_path(config: RunConfig) -> str:
    return os.path.join(config.out_dir, "dictionary.csv")


def _model_path(config: RunConfig, k: int) -> str:
    return os.path.join(config.out_dir, "models", f"model_k{k}.dmp")


def _build_dictionary(config: RunConfig) -> tuple[Dictionary, dict]:
    if config.source == "synthetic":
        dictionary = datagen.generate_synthetic_dictionary(
            config.signal_dim, config.num_atoms,
            child_seed(config.seed, DICT_STREAM),
        )
    elif config.source == "surrogate":
        dictionary = datagen.generate_raman_surrogate(
            config.signal_dim, config.num_atoms, config.peaks_per_atom,
            child_seed(config.seed, DICT_STREAM),
        )
    else:
        dictionary = datagen.load_raman_library(config.raman_path)
    meta = {
        "source": config.source,
        "signal_dim": dictionary.signal_dim,
        "num_atoms": dictionary.num_atoms,
        "seed": config.seed,
    }
    return dictionary, meta


def cmd_gen_dict(config: RunConfig, args, started: float) -> None:
    os.makedirs(config.out_dir, exist_ok=True)
    dictionary, meta = _build_dictionary(config)
    csv_path = _dictionary_path(config)
    save_dictionary_csv(dictionary, csv_path)
    meta_path = os.path.join(config.out_dir, "dictionary.json")
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    inputs = [config.raman_path] if config.source == "raman" else []
    _write_manifest(config.out_dir, "gen-dict", config, inputs,
                    [csv_path, meta_path], started)
    print(f"wrote {csv_path} ({meta['signal_dim']}x{meta['num_atoms']})")


def cmd_gen_data(config: RunConfig, args, started: float) -> None:
    csv_path = _dictionary_path(config)
    dictionary = load_dictionary_csv(csv_path)
    outputs = []
    for k in config.k_range:
        directory = os.path.join(config.out_dir, "data", f"k{k}")
        shards = (shard for _, shard in training.stream_shards(
            dictionary, k, config.seed, training.SHARD_SIZE,
            config.num_train_samples))
        outputs.extend(datagen.write_dataset(
            shards, directory, dictionary=dictionary, sparsity=k,
            seed=config.seed))
        print(f"wrote {config.num_train_samples} samples at sparsity {k} "
              f"to {directory}")
    _write_manifest(config.out_dir, "gen-data", config, [csv_path], outputs,
                    started)


def cmd_train(config: RunConfig, args, started: float) -> None:
    csv_path = _dictionary_path(config)
    dictionary = load_dictionary_csv(csv_path)
    os.makedirs(os.path.join(config.out_dir, "models"), exist_ok=True)
    outputs = []
    for k in config.k_range:
        model, rows = training.train_model(
            dictionary, k, config.num_train_samples,
            epochs=config.resolved_epochs, batch_size=config.batch_size,
            hyper=config.hyper(), proj=ProjectionMode(config.projection),
            seed=config.seed, val_fraction=config.val_fraction,
        )
        model_path = _model_path(config, k)
        network.save_model(model, model_path)
        # released before the next depth trains beside it
        del model
        log_path = os.path.join(config.out_dir, f"train_log_k{k}.csv")
        training.write_train_log(rows, log_path)
        outputs.extend([model_path, log_path])
        last = rows[-1].mean_loss if rows else float("nan")
        print(f"trained depth-{k} model ({config.resolved_epochs} epochs, "
              f"final mean loss {last:.6g}) -> {model_path}")
    _write_manifest(config.out_dir, "train", config, [csv_path], outputs,
                    started)


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
        metrics.write_ecdf_csv(metrics.coherence_ecdf(matrix), path)
    return paths


def cmd_eval(config: RunConfig, args, started: float) -> None:
    csv_path = _dictionary_path(config)
    dictionary = load_dictionary_csv(csv_path)
    proj = ProjectionMode(config.projection)
    models = {}
    for k in config.k_range:
        path = _model_path(config, k)
        if not os.path.exists(path):
            raise MissingModel(f"no trained model for sparsity {k} at {path}")
        model = models[k] = network.load_model(path)
        # NNMP and NNOMP run on dictionary.csv with the config's projection,
        # so a model trained for another of either is not comparable
        if not np.array_equal(model.update_dict.atoms.view(np.uint64),
                              dictionary.atoms.view(np.uint64)):
            raise ConfigError(f"{path}: dictionary differs from {csv_path}")
        if model.proj is not proj:
            raise ConfigError(f"{path}: projection {model.proj.value!r}, "
                              f"config has {proj.value!r}")
        # bit-equal, so every model shares the one copy
        model.update_dict = dictionary
    solvers = {
        "nnmp": metrics.nnmp_runner(dictionary, proj),
        "nnomp": metrics.nnomp_runner(dictionary),
        "deepmp": metrics.deepmp_runner(models),
    }
    reports = metrics.run_sweep(
        dictionary, solvers, config.k_range, config.z_test, config.seed,
    )
    outputs = []
    metrics_csv = os.path.join(config.out_dir, "metrics.csv")
    metrics_json = os.path.join(config.out_dir, "metrics.json")
    metrics.write_metrics_csv(reports, metrics_csv)
    metrics.write_metrics_json(reports, metrics_json)
    outputs.extend([metrics_csv, metrics_json])
    outputs.extend(_write_ecdfs(config, "dictionary", dictionary.atoms))
    deepest = max(config.k_range)
    outputs.extend(_write_ecdfs(config, f"model_k{deepest}",
                                models[deepest].selection_weights))
    inputs = [csv_path] + [_model_path(config, k) for k in config.k_range]
    # timings vary between runs, so they go here and not in the metrics files
    solver_seconds = {
        label: {str(k): t for k, t in sorted(rep.seconds.items())}
        for label, rep in reports.items()
    }
    _write_manifest(config.out_dir, "eval", config, inputs, outputs, started,
                    solver_seconds=solver_seconds)
    for label in sorted(reports):
        rep = reports[label]
        summary = ", ".join(
            f"k={k}: {rep.recovery[k]:.3f}" for k in sorted(rep.recovery)
        )
        print(f"{label} recovery  {summary}")
    print(f"wrote {metrics_csv}")


def cmd_ecdf(config: RunConfig, args, started: float) -> None:
    os.makedirs(config.out_dir, exist_ok=True)
    base = os.path.splitext(os.path.basename(args.source))[0]
    if args.source.endswith(".dmp"):
        matrices = network.load_model(args.source).selection_weights
    else:
        matrices = load_dictionary_csv(args.source).atoms
    outputs = _write_ecdfs(config, base, matrices)
    _write_manifest(config.out_dir, "ecdf", config, [args.source], outputs,
                    started)
    for path in outputs:
        print(f"wrote {path}")


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
        args.run(resolve_config(args), args, started)
    except (InputError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
