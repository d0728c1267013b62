import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deepmp import types
from deepmp.datagen import (
    SYNTH_BLOCK,
    MixtureConfig,
    _draw_nonneg_column,
    generate_raman_surrogate,
    generate_synthetic_dictionary,
    load_raman_library,
    row_blocks,
    sample_mixture,
    synthesize,
    write_dataset,
)
from deepmp.errors import (
    DegenerateColumn,
    DimensionMismatch,
    EmptyInput,
    EmptyLibrary,
    NotOvercomplete,
    OutOfRange,
    ParseError,
    ZeroSparsity,
)
from deepmp.metrics import pairwise_coherences
from deepmp.types import save_dictionary_csv, validate_dictionary

from conftest import read_shards


# -- synthetic dictionary -----------------------------------------------------


def test_synthetic_dictionary_reference_dimensions(table_dictionary):
    assert table_dictionary.signal_dim == 30
    assert table_dictionary.num_atoms == 200


def test_synthetic_dictionary_postconditions(table_dictionary):
    atoms = table_dictionary.atoms
    assert np.all(atoms >= 0.0)
    assert np.allclose(np.linalg.norm(atoms, axis=0), 1.0, atol=1e-12)
    # re-validation is a no-op
    validate_dictionary(atoms)


def test_half_normal_projection_zero_fraction(table_dictionary):
    zero_fraction = float(np.mean(table_dictionary.atoms == 0.0))
    assert abs(zero_fraction - 0.5) < 0.02


def test_synthetic_dictionary_is_seed_deterministic():
    a = generate_synthetic_dictionary(12, 30, seed=5)
    b = generate_synthetic_dictionary(12, 30, seed=5)
    c = generate_synthetic_dictionary(12, 30, seed=6)
    assert np.array_equal(a.atoms, b.atoms)
    assert not np.array_equal(a.atoms, c.atoms)


def test_degenerate_column_raises_after_redraw_cap():
    class AllNegative:
        def standard_normal(self, n):
            return -np.ones(n)

    with pytest.raises(DegenerateColumn):
        _draw_nonneg_column(AllNegative(), 4)


# -- mixtures -------------------------------------------------------------------


def test_one_sparse_mixture_is_scaled_atom(small_dictionary):
    samples = sample_mixture(
        small_dictionary, MixtureConfig(sparsity=1, num_samples=20, seed=2)
    )
    for y, (j,), (a,) in zip(samples.signals, samples.supports,
                             samples.coeffs):
        assert 0.0 < a <= 1.0
        assert np.allclose(y, a * small_dictionary.atoms[:, j], atol=1e-15)


def test_mixture_reconstruction_identity(table_dictionary):
    samples = sample_mixture(
        table_dictionary, MixtureConfig(sparsity=5, num_samples=100, seed=7)
    )
    for y, support, coeffs in zip(samples.signals, samples.supports,
                                  samples.coeffs):
        recon = table_dictionary.atoms[:, support] @ coeffs
        assert np.linalg.norm(y - recon) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(1, 600), st.integers(0, 2**32 - 1))
def test_mixture_signals_are_synthesized_from_their_rows(table_dictionary, k,
                                                         n, seed):
    samples = sample_mixture(
        table_dictionary, MixtureConfig(sparsity=k, num_samples=n, seed=seed)
    )
    signals, supports, coeffs = samples.signals, samples.supports, samples.coeffs
    atoms = table_dictionary.atoms
    assert np.array_equal(signals, synthesize(atoms, supports, coeffs))
    # any subset of rows resynthesises to the same bits
    rows = np.random.default_rng(seed).permutation(n)[:max(1, n // 3)]
    assert np.array_equal(signals[rows],
                          synthesize(atoms, supports[rows], coeffs[rows]))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 5000), st.integers(1, 600))
@example(0, 1)
@example(1, 256)
@example(257, 256)
@example(5, 2)
def test_row_blocks_tile_the_rows_in_near_equal_blocks(n, most):
    blocks = row_blocks(n, most)
    sizes = [b.stop - b.start for b in blocks]
    # in order, end to end, from 0 to n, with unit steps
    edges = [0, *(b.stop for b in blocks)]
    assert [b.start for b in blocks] == edges[:-1] and edges[-1] == n
    assert all(b.step is None for b in blocks)
    assert len(blocks) == -(-n // most)
    assert all(0 < size <= most for size in sizes)
    assert not sizes or max(sizes) - min(sizes) <= 1
    # a lone row only where nothing else tiles: one row, or blocks of two
    assert 1 not in sizes or n == 1 or most <= 2


def test_mixture_supports_distinct_and_coeffs_positive(table_dictionary):
    samples = sample_mixture(
        table_dictionary, MixtureConfig(sparsity=4, num_samples=200, seed=11)
    )
    for support in samples.supports:
        assert len(set(support.tolist())) == 4
    assert np.all(samples.coeffs > 0.0)
    assert np.all(samples.coeffs <= 1.0)


def test_mixture_generation_is_seed_deterministic(small_dictionary):
    cfg = MixtureConfig(sparsity=2, num_samples=50, seed=99)
    a = sample_mixture(small_dictionary, cfg)
    b = sample_mixture(small_dictionary, cfg)
    assert np.array_equal(a.signals, b.signals)
    assert np.array_equal(a.supports, b.supports)
    assert np.array_equal(a.coeffs, b.coeffs)


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 12), st.integers(0, 11), st.integers(1, 300),
       st.integers(0, 2**32 - 1))
@example(num_atoms=6, short=0, n=40, seed=1)  # k == N
def test_mixture_rows_hold_k_distinct_atoms(num_atoms, short, n, seed):
    k = num_atoms - short % num_atoms  # 1..N, and N when short is 0
    d = validate_dictionary(np.ones((1, num_atoms)))
    supports = sample_mixture(
        d, MixtureConfig(sparsity=k, num_samples=n, seed=seed)
    ).supports
    assert supports.shape == (n, k)
    rows = np.sort(supports, axis=1)
    assert np.all(rows[:, 1:] > rows[:, :-1])
    assert rows.min() >= 0 and rows.max() < num_atoms


#: chi-square quantile with 9 degrees of freedom: P(X > 27.877) = 0.001
CHI2_9DF_P001 = 27.877


def test_mixture_atoms_and_positions_are_uniform():
    # every atom is in a row's k-subset with probability k/N, and every
    # position holds each atom with probability 1/N
    num_atoms, k, n = 10, 3, 30000
    d = validate_dictionary(np.ones((1, num_atoms)))
    supports = sample_mixture(
        d, MixtureConfig(sparsity=k, num_samples=n, seed=2024)
    ).supports
    expected = n * k / num_atoms
    pearson = np.sum((np.bincount(supports.ravel(), minlength=num_atoms)
                      - expected) ** 2 / expected)
    # a row's k atoms are drawn without replacement, which shrinks the
    # Pearson sum by (N - k) / (N - 1) against multinomial counts
    assert pearson * (num_atoms - 1) / (num_atoms - k) < CHI2_9DF_P001
    for position in range(k):
        counts = np.bincount(supports[:, position], minlength=num_atoms)
        expected = n / num_atoms
        assert np.sum((counts - expected) ** 2 / expected) < CHI2_9DF_P001


@pytest.mark.parametrize("sparsity, count, error", [
    (0, 5, ZeroSparsity),
    (2, 0, EmptyInput),
    (51, 5, DimensionMismatch),
])
def test_mixture_rejects_bad_sizes(small_dictionary, sparsity, count, error):
    with pytest.raises(error):
        sample_mixture(small_dictionary, MixtureConfig(sparsity=sparsity,
                                                       num_samples=count))


def test_mixture_draw_holds_no_signals():
    # 20,000 signals at 503x600 would be an 80 MB stack; the draw holds a
    # few (n, k) arrays: the supports, their shuffled copy, and the
    # coefficients with the draw they are made from
    d = generate_synthetic_dictionary(503, 600, seed=3)
    n, k = 20000, 5
    tracemalloc.start()
    try:
        drawn = sample_mixture(d, MixtureConfig(sparsity=k, num_samples=n,
                                                seed=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(drawn) == n
    assert peak <= 4 * 8 * n * k + 2**18


def test_write_dataset_holds_one_block_of_signals(tmp_path, monkeypatch):
    # one full-size shard at the surrogate width: its signal stack alone is
    # 8192 x 503 floats, 33 MB. The file stops the write at the first row of
    # the third block, since writing every value's text would take seconds.
    d = generate_raman_surrogate(503, 600, 5, seed=3)
    shard = sample_mixture(d, MixtureConfig(sparsity=5, num_samples=8192,
                                            seed=5))

    class Written(Exception):
        pass

    class File:
        lines = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def write(self, text):
            self.lines += text.count("\n")
            if self.lines > 2 * SYNTH_BLOCK:
                raise Written

    monkeypatch.setattr(types, "open", lambda *args, **kwargs: File(),
                        raising=False)
    tracemalloc.start()
    try:
        with pytest.raises(Written):
            write_dataset([shard], tmp_path, dictionary=d, sparsity=5, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a block's signals, its k gathered atoms and their product, 7.2 MB,
    # and no shard stack
    assert peak <= 8 * 503 * SYNTH_BLOCK * (5 + 2) + 2**21


# -- spectra library loading -------------------------------------------------------


def test_load_toy_two_column_library(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("0.5,0.3\n")
    d = load_raman_library(path)
    assert d.signal_dim == 1 and d.num_atoms == 2
    assert np.allclose(d.atoms, [[1.0, 1.0]])


def test_load_spectra_normalizes_and_clamps(tmp_path, caplog):
    path = tmp_path / "spectra.csv"
    path.write_text("wavenumber_a,wavenumber_b,c\n2.0,0.0,1.0\n-1.0,4.0,1.0\n")
    with caplog.at_level("WARNING"):
        d = load_raman_library(path)
    assert "1 negative" in caplog.text
    assert d.signal_dim == 2 and d.num_atoms == 3
    assert np.allclose(np.linalg.norm(d.atoms, axis=0), 1.0)
    assert d.atoms[1, 0] == 0.0


def test_load_spectra_with_a_byte_order_mark_keeps_every_row(tmp_path):
    # with the mark read as part of the first cell, a 3x3 library lost its
    # first row to the header rule and loaded as an overcomplete 2x3 one
    square = tmp_path / "square.csv"
    square.write_text("2.0,0.0,1.0\n1.0,4.0,1.0\n0.5,1.0,3.0\n",
                      encoding="utf-8-sig")
    with pytest.raises(NotOvercomplete, match="3x3"):
        load_raman_library(square)
    text = "2.0,0.0,1.0,1.0\n1.0,4.0,1.0,0.0\n0.5,1.0,3.0,2.0\n"
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    d = load_raman_library(marked)
    assert d.signal_dim == 3 and d.num_atoms == 4
    assert np.array_equal(d.atoms, load_raman_library(plain).atoms)


def test_load_spectra_round_trip_surrogate(tmp_path):
    surrogate = generate_raman_surrogate(120, 150, peaks_per_atom=4, seed=1)
    path = tmp_path / "lib.csv"
    save_dictionary_csv(surrogate, path)
    loaded = load_raman_library(path)
    assert loaded.signal_dim == 120
    assert loaded.num_atoms == 150
    assert np.allclose(loaded.atoms, surrogate.atoms, atol=1e-12)


def test_load_spectra_parse_error_names_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0,4.0\n5.0,abc\n")
    with pytest.raises(ParseError, match="row 3"):
        load_raman_library(path)


def test_load_spectra_missing_file():
    with pytest.raises(ParseError, match="no such file"):
        load_raman_library("/nonexistent/library.csv")


def test_load_spectra_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(EmptyLibrary):
        load_raman_library(path)


# -- surrogate spectra ------------------------------------------------------------


def test_surrogate_postconditions():
    d = generate_raman_surrogate(64, 80, peaks_per_atom=3, seed=4)
    assert np.all(d.atoms >= 0.0)
    assert np.allclose(np.linalg.norm(d.atoms, axis=0), 1.0, atol=1e-12)


def test_surrogate_rejects_zero_peaks():
    with pytest.raises(OutOfRange):
        generate_raman_surrogate(20, 30, peaks_per_atom=0, seed=1)


def test_surrogate_more_coherent_than_synthetic():
    # smooth overlapping peaks raise pairwise coherence well above the
    # clipped-normal baseline at equal (overcomplete) spectra-like size
    surro = generate_raman_surrogate(503, 600, peaks_per_atom=5, seed=0)
    synth = generate_synthetic_dictionary(503, 600, seed=0)
    assert pairwise_coherences(surro.atoms).mean() > (
        pairwise_coherences(synth.atoms).mean() + 0.1
    )


# -- dataset shards ---------------------------------------------------------------


def test_dataset_round_trip(tmp_path, small_dictionary):
    shards = [
        sample_mixture(small_dictionary,
                       MixtureConfig(sparsity=3, num_samples=n, seed=13 + n))
        for n in (10, 10, 5)
    ]
    directory = tmp_path / "data"
    paths = write_dataset(shards, directory, dictionary=small_dictionary,
                          sparsity=3, seed=13)
    assert paths == [str(directory / name) for name in (
        "shard_00000.csv", "shard_00001.csv", "shard_00002.csv", "dataset.json")]
    assert len(list(directory.glob("shard_*.csv"))) == 3

    meta, loaded = read_shards(directory)
    assert meta == {"signal_dim": 10, "num_atoms": 50, "k": 3, "seed": 13,
                    "num_samples": 25, "coefficient_law": "uniform(0,1]"}
    assert len(loaded) == 25
    assert np.array_equal(loaded.supports,
                          np.concatenate([s.supports for s in shards]))
    assert np.array_equal(loaded.coeffs,
                          np.concatenate([s.coeffs for s in shards]))
    assert np.array_equal(loaded.signals,
                          np.concatenate([s.signals for s in shards]))
    recon = np.einsum("mbk,bk->bm", small_dictionary.atoms[:, loaded.supports],
                      loaded.coeffs)
    assert np.linalg.norm(loaded.signals - recon, axis=1).max() < 1e-9
