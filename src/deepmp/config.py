"""Run configuration: dataclass defaults plus INI-style config files.

Every default reproduces the reference experimental setting at full scale
(30x200 synthetic dictionary, 150000 training mixtures per sparsity level,
AdaBound at lr 1e-3 with final_lr 0.1 and :class:`AdaBoundHyper`'s other
constants, 20 epochs synthetic / 30 epochs for a spectra library). A
``--scale`` factor shrinks the sample counts for desk-scale runs without
touching anything else.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace

from .errors import ConfigError
from .optim import AdaBoundHyper
from .solvers import ProjectionMode

SOURCES = ("synthetic", "raman", "surrogate")


@dataclass(frozen=True)
class RunConfig:
    # [dictionary]
    source: str = "synthetic"
    signal_dim: int = 30
    num_atoms: int = 200
    raman_path: str = ""
    peaks_per_atom: int = 5
    # [training]
    k_range: tuple[int, ...] = (1, 2, 3, 4, 5)
    num_train_samples: int = 150000
    epochs: int = -1  # -1: 20 for synthetic/surrogate, 30 for raman
    batch_size: int = 128
    lr: float = AdaBoundHyper.lr
    final_lr: float = AdaBoundHyper.final_lr
    projection: str = "positive"
    val_fraction: float = 0.1
    # [evaluation]
    z_test: int = 5000
    # [run]
    seed: int = 0
    out_dir: str = "runs/out"

    @property
    def resolved_epochs(self) -> int:
        if self.epochs >= 0:
            return self.epochs
        return 30 if self.source == "raman" else 20

    def hyper(self) -> AdaBoundHyper:
        return AdaBoundHyper(lr=self.lr, final_lr=self.final_lr)

    def scaled(self, factor: float) -> "RunConfig":
        """Shrink (or grow) sample counts by ``factor``, floored at 1."""
        try:
            counts = {name: getattr(self, name) * factor
                      for name in ("num_train_samples", "z_test")}
            finite = all(map(math.isfinite, counts.values()))
        except OverflowError:  # a count beyond every float
            finite = False
        if not (factor > 0 and finite):
            raise ConfigError(
                f"scale must be positive and give finite sample counts, "
                f"got {factor}"
            )
        return replace(self, **{name: max(1, round(count))
                                for name, count in counts.items()})

    def validate(self) -> "RunConfig":
        if self.source not in SOURCES:
            raise ConfigError(f"unknown dictionary source {self.source!r}")
        if self.projection not in {mode.value for mode in ProjectionMode}:
            raise ConfigError(f"unknown projection {self.projection!r}")
        if not self.k_range or any(k < 1 for k in self.k_range):
            raise ConfigError(f"bad k_range {self.k_range}")
        if len(set(self.k_range)) != len(self.k_range):
            raise ConfigError(f"k_range {self.k_range} repeats a level")
        if self.signal_dim < 1 or self.num_atoms <= self.signal_dim:
            raise ConfigError(
                f"need 1 <= signal_dim < num_atoms, got "
                f"{self.signal_dim}/{self.num_atoms}"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigError(
                f"seed must be an integer in [0, 2**64 - 1], got {self.seed}")
        if self.epochs < -1:
            raise ConfigError(f"epochs must be >= -1, got {self.epochs}")
        for name in ("num_train_samples", "batch_size", "z_test"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if not (0.0 <= self.val_fraction < 1.0):
            raise ConfigError("val_fraction must be in [0, 1)")
        for name in ("lr", "final_lr"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        return self


#: most sparsity levels a ``lo-hi`` k_range may span
MAX_K_SPAN = 1000


def parse_k_range(text: str) -> tuple[int, ...]:
    """Accept "1-5", "3", or "1,2,4"; a span holds at most MAX_K_SPAN levels."""
    text = text.strip()
    try:
        if "-" in text:
            lo, hi = map(int, text.split("-"))
            if hi - lo >= MAX_K_SPAN:
                raise ConfigError(
                    f"k_range {text!r} spans more than {MAX_K_SPAN} levels")
            values = tuple(range(lo, hi + 1))
        elif "," in text:
            values = tuple(int(part) for part in text.split(","))
        else:
            values = (int(text),)
    except ValueError:
        raise ConfigError(f"cannot parse k_range {text!r}") from None
    if not values:
        raise ConfigError(f"empty k_range {text!r}")
    return values


#: the keys each INI section accepts; a value is parsed by the type of its
#: field's default, and ``k_range`` by :func:`parse_k_range`
_SCHEMA = {
    "dictionary": ("source", "signal_dim", "num_atoms", "raman_path",
                   "peaks_per_atom"),
    "training": ("k_range", "num_train_samples", "epochs", "batch_size", "lr",
                 "final_lr", "projection", "val_fraction"),
    "evaluation": ("z_test",),
    "run": ("seed", "out_dir"),
}


def load_config(path) -> RunConfig:
    """Parse a UTF-8 INI config, with or without a byte-order mark; unknown
    sections or keys are rejected."""
    # no interpolation: a '%' in a value (a path, say) is taken literally
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path, encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    # [DEFAULT] is unknown too; configparser would merge its keys into
    # every other section
    if parser.defaults():
        raise ConfigError(f"{path}: unknown section [DEFAULT]")
    values: dict[str, object] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            parse = (parse_k_range if key == "k_range"
                     else type(getattr(RunConfig, key)))
            try:
                values[key] = parse(raw)
            except ValueError:
                raise ConfigError(
                    f"{path}: bad value {raw!r} for {key!r}"
                ) from None
    return RunConfig(**values).validate()
