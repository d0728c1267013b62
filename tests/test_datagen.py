import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deepmp.datagen import (
    MixtureConfig,
    _draw_nonneg_column,
    generate_raman_surrogate,
    generate_synthetic_dictionary,
    iter_dataset,
    load_raman_library,
    read_dataset_meta,
    sample_mixture,
    synthesize,
    write_dataset,
)
from deepmp.errors import (
    DegenerateColumn,
    DimensionMismatch,
    EmptyInput,
    EmptyLibrary,
    OutOfRange,
    ParseError,
    ZeroSparsity,
)
from deepmp.metrics import pairwise_coherences
from deepmp.types import save_dictionary_csv, validate_dictionary


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
    for s in samples:
        j = s.true_support[0]
        a = s.true_coeffs[0]
        assert 0.0 < a <= 1.0
        assert np.allclose(s.signal, a * small_dictionary.atom(j), atol=1e-15)


def test_mixture_reconstruction_identity(table_dictionary):
    samples = sample_mixture(
        table_dictionary, MixtureConfig(sparsity=5, num_samples=100, seed=7)
    )
    for s in samples:
        recon = table_dictionary.atoms[:, s.true_support] @ s.true_coeffs
        assert np.linalg.norm(s.signal - recon) < 1e-12


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


def test_mixture_supports_distinct_and_coeffs_positive(table_dictionary):
    samples = sample_mixture(
        table_dictionary, MixtureConfig(sparsity=4, num_samples=200, seed=11)
    )
    for s in samples:
        assert len(set(s.true_support.tolist())) == 4
        assert np.all(s.true_coeffs > 0.0)
        assert np.all(s.true_coeffs <= 1.0)


def test_mixture_generation_is_seed_deterministic(small_dictionary):
    cfg = MixtureConfig(sparsity=2, num_samples=50, seed=99)
    a = sample_mixture(small_dictionary, cfg)
    b = sample_mixture(small_dictionary, cfg)
    for s, t in zip(a, b):
        assert np.array_equal(s.signal, t.signal)
        assert np.array_equal(s.true_support, t.true_support)
        assert np.array_equal(s.true_coeffs, t.true_coeffs)


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


@pytest.mark.parametrize("peaks, widths", [(0, None), (2, (0.0, 1.0)),
                                           (2, (3.0, 2.0))])
def test_surrogate_rejects_bad_arguments(peaks, widths):
    with pytest.raises(OutOfRange):
        generate_raman_surrogate(20, 30, peaks_per_atom=peaks, seed=1,
                                 width_range=widths)


def test_surrogate_narrow_width_limit_is_one_hot_like():
    d = generate_raman_surrogate(40, 50, peaks_per_atom=1, seed=5,
                                 width_range=(0.2, 0.2))
    top3_energy = np.sort(d.atoms**2, axis=0)[-3:, :].sum(axis=0)
    assert top3_energy.min() > 0.9


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
    sidecar = write_dataset(shards, directory, dictionary=small_dictionary,
                            sparsity=3, seed=13)
    assert sidecar["num_samples"] == 25
    assert sidecar["coefficient_law"] == "uniform(0,1]"
    assert len(list(directory.glob("shard_*.csv"))) == 3

    meta = read_dataset_meta(directory)
    assert meta == sidecar
    loaded = list(iter_dataset(directory))
    assert len(loaded) == 25
    samples = [s for shard in shards for s in shard]
    for s, t in zip(samples, loaded):
        assert np.array_equal(s.true_support, t.true_support)
        assert np.array_equal(s.true_coeffs, t.true_coeffs)
        assert np.array_equal(s.signal, t.signal)
        recon = small_dictionary.atoms[:, t.true_support] @ t.true_coeffs
        assert np.linalg.norm(t.signal - recon) < 1e-9


@pytest.mark.parametrize("fault", ["short_signal", "index_out_of_range",
                                   "repeated_index", "nan_coefficient",
                                   "negative_coefficient",
                                   "coefficient_above_one", "infinite_signal"])
def test_iter_dataset_rejects_rows_that_do_not_fit_the_sidecar(tmp_path,
                                                               fault):
    d = generate_synthetic_dictionary(6, 12, seed=3)
    directory = tmp_path / "data"
    write_dataset([sample_mixture(d, MixtureConfig(sparsity=3, num_samples=4,
                                                   seed=5))],
                  directory, dictionary=d, sparsity=3, seed=5)
    shard = directory / "shard_00000.csv"
    lines = shard.read_text().splitlines()
    cells = lines[2].split(",")
    bad_coefficients = {"nan_coefficient": "nan", "negative_coefficient": "-2.0",
                        "coefficient_above_one": "1.5"}
    if fault == "short_signal":
        cells = cells[:3 + 2]
    elif fault == "index_out_of_range":
        cells[1] = "999:" + cells[1].split(":")[1]
    elif fault in bad_coefficients:
        cells[1] = cells[1].split(":")[0] + ":" + bad_coefficients[fault]
    elif fault == "infinite_signal":
        cells[3] = "inf"
    else:
        cells[1] = cells[0].split(":")[0] + ":" + cells[1].split(":")[1]
    lines[2] = ",".join(cells)
    shard.write_text("\n".join(lines) + "\n")
    rows = iter_dataset(directory)
    assert len([next(rows), next(rows)]) == 2
    with pytest.raises(ParseError) as excinfo:
        next(rows)
    assert f"{shard}: row 3 " in str(excinfo.value)
