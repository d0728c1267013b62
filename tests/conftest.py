import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from deepmp.datagen import generate_synthetic_dictionary

ACCEPTANCE_RESULTS: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_RESULTS


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def small_dictionary():
    """10x50 dictionary shared by solver tests."""
    return generate_synthetic_dictionary(10, 50, seed=424242)


@pytest.fixture(scope="session")
def table_dictionary():
    """The 30x200 reference-scale synthetic dictionary."""
    return generate_synthetic_dictionary(30, 200, seed=20240801)


def random_unit_dictionary(rng: np.random.Generator, rows: int, cols: int):
    """Non-negative column-normalized matrix without the generator's seeding."""
    atoms = np.abs(rng.standard_normal((rows, cols)))
    atoms /= np.linalg.norm(atoms, axis=0)
    return atoms


@dataclass(frozen=True)
class ShardRows:
    """Every row of a dataset's shards, as read back from the files."""

    signals: np.ndarray
    supports: np.ndarray
    coeffs: np.ndarray

    def __len__(self) -> int:
        return len(self.supports)


def read_shards(directory):
    """Oracle for write_dataset: the sidecar, and every shard row as read."""
    directory = Path(directory)
    meta = json.loads((directory / "dataset.json").read_text(encoding="utf-8"))
    k = meta["k"]
    rows = [line.split(",") for shard in sorted(directory.glob("shard_*.csv"))
            for line in shard.read_text(encoding="utf-8").splitlines()]
    supports = [[int(cell.split(":")[0]) for cell in row[:k]] for row in rows]
    coeffs = [[float(cell.split(":")[1]) for cell in row[:k]] for row in rows]
    signals = [[float(v) for v in row[k:]] for row in rows]
    return meta, ShardRows(np.array(signals),
                           np.array(supports, dtype=np.int64), np.array(coeffs))
