import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepmp.datagen import MixtureConfig, generate_raman_surrogate, sample_mixture
from deepmp.errors import (
    DimensionMismatch,
    MissingModel,
    SparsityMismatch,
    ZeroColumn,
    ZeroSignal,
    ZeroSparsity,
)
from deepmp.metrics import (
    coherence,
    coherence_ecdf,
    deepmp_runner,
    epsilon_error,
    hamming_complement,
    nnmp_runner,
    nnomp_runner,
    pairwise_coherences,
    row_recovery,
    run_sweep,
    write_ecdf_csv,
    write_metrics_csv,
    write_metrics_json,
)
from deepmp.network import init_from_dictionary
from deepmp.types import validate_dictionary

from conftest import random_unit_dictionary


# -- hamming complement ----------------------------------------------------------


def test_hamming_perfect_recovery():
    assert hamming_complement([1, 2, 3], [3, 2, 1], 3) == 1.0


def test_hamming_disjoint_supports():
    assert hamming_complement([4, 5], [1, 2], 2) == 0.0


def test_hamming_partial_overlap():
    assert hamming_complement([1, 2, 7], [1, 2, 3], 3) == pytest.approx(2 / 3)


def test_hamming_duplicates_collapse():
    assert hamming_complement([2, 2, 9], [2, 9], 2) == 1.0


def test_hamming_zero_sparsity():
    with pytest.raises(ZeroSparsity):
        hamming_complement([1], [1], 0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_row_recovery_matches_scalar_hamming(seed):
    rng = np.random.default_rng(seed)
    n = 12
    batch = int(rng.integers(1, 40))
    k = int(rng.integers(1, 6))
    budget = int(rng.integers(1, 8))
    truth = np.stack([rng.choice(n, size=k, replace=False)
                      for _ in range(batch)])
    supports = rng.integers(0, n, size=(batch, budget))  # picks may repeat
    stops = rng.integers(0, budget + 1, size=batch)
    supports[np.arange(budget) >= stops[:, None]] = -1
    scalar = [hamming_complement(row[row >= 0], t, k)
              for row, t in zip(supports, truth)]
    rows = row_recovery(supports, truth)
    assert rows.tolist() == scalar
    assert np.mean(rows) == np.mean(scalar)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_hamming_invariant_under_relabeling(seed):
    rng = np.random.default_rng(seed)
    n = 20
    k = int(rng.integers(1, 6))
    truth = rng.choice(n, size=k, replace=False)
    acquired = rng.choice(n, size=k, replace=True)
    perm = rng.permutation(n)
    base = hamming_complement(acquired, truth, k)
    relabeled = hamming_complement(perm[acquired], perm[truth], k)
    assert base == pytest.approx(relabeled)


# -- epsilon error -----------------------------------------------------------------


def make_samples(dictionary, k, n, seed):
    return sample_mixture(dictionary, MixtureConfig(sparsity=k, num_samples=n,
                                                    seed=seed))


def ground_truth_codes(dictionary, samples):
    codes = np.zeros((len(samples), dictionary.num_atoms))
    codes[np.arange(len(samples))[:, None], samples.supports] = samples.coeffs
    return codes


def test_epsilon_zero_for_ground_truth(small_dictionary):
    samples = make_samples(small_dictionary, 3, 10, 1)
    codes = ground_truth_codes(small_dictionary, samples)
    assert epsilon_error(small_dictionary, samples.signals, codes) < 1e-9


def test_epsilon_one_for_zero_codes(small_dictionary):
    samples = make_samples(small_dictionary, 2, 10, 2)
    codes = np.zeros((len(samples), 50))
    assert epsilon_error(small_dictionary, samples.signals, codes) == 1.0


def test_epsilon_hand_computed_single_sample(small_dictionary):
    s = make_samples(small_dictionary, 2, 1, 3)
    code = np.zeros(50)
    code[s.supports[0, 0]] = s.coeffs[0, 0]  # drop the second atom
    residual = s.signals[0] - small_dictionary.atoms @ code
    expected = np.linalg.norm(residual) / np.linalg.norm(s.signals[0])
    assert epsilon_error(small_dictionary, s.signals,
                         code[None]) == pytest.approx(expected)


def test_epsilon_zero_signal_rejected(small_dictionary):
    with pytest.raises(ZeroSignal):
        epsilon_error(small_dictionary, np.zeros((1, 10)), np.zeros((1, 50)))


def test_epsilon_misaligned_lists_rejected(small_dictionary):
    samples = make_samples(small_dictionary, 2, 3, 4)
    with pytest.raises(DimensionMismatch):
        epsilon_error(small_dictionary, samples.signals, np.zeros((1, 50)))


# -- coherence ------------------------------------------------------------------


def brute_force_coherence(matrix):
    n = matrix.shape[1]
    best = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            num = abs(float(matrix[:, i] @ matrix[:, j]))
            den = np.linalg.norm(matrix[:, i]) * np.linalg.norm(matrix[:, j])
            best = max(best, num / den)
    return best


def test_coherence_orthonormal_columns_is_zero():
    assert coherence(np.eye(5)[:, :4]) == 0.0


def test_coherence_duplicate_column_is_one():
    m = np.random.default_rng(1).random((6, 3))
    m = np.hstack([m, m[:, :1]])
    assert coherence(m) == pytest.approx(1.0, abs=1e-12)


def test_coherence_matches_brute_force():
    rng = np.random.default_rng(44)
    m = rng.standard_normal((10, 12))
    assert coherence(m) == pytest.approx(brute_force_coherence(m), abs=1e-12)


def test_coherence_does_not_modify_input():
    rng = np.random.default_rng(9)
    m = rng.random((5, 8)) + 3.0  # unnormalized on purpose
    copy = m.copy()
    coherence(m)
    assert np.array_equal(m, copy)


def test_coherence_zero_column_rejected():
    m = np.eye(4)[:, :3]
    m[:, 1] = 0.0
    with pytest.raises(ZeroColumn):
        coherence(m)


def test_coherence_needs_two_columns():
    with pytest.raises(DimensionMismatch):
        coherence(np.ones((4, 1)))


# -- coherence ECDF ---------------------------------------------------------------


def test_ecdf_orthonormal_all_ones():
    points = coherence_ecdf(np.eye(6)[:, :5], grid=[0.0, 0.5, 1.0])
    assert [f for _, f in points] == [1.0, 1.0, 1.0]


def test_ecdf_identical_columns_step_at_one():
    m = np.ones((4, 3))
    points = coherence_ecdf(m, grid=[0.0, 0.5, 0.999, 1.0])
    assert [f for _, f in points] == [0.0, 0.0, 0.0, 1.0]


def test_ecdf_matches_exhaustive_enumeration():
    rng = np.random.default_rng(10)
    m = rng.standard_normal((7, 5))
    pairs = []
    for i, j in itertools.combinations(range(5), 2):
        num = abs(float(m[:, i] @ m[:, j]))
        den = np.linalg.norm(m[:, i]) * np.linalg.norm(m[:, j])
        pairs.append(num / den)
    grid = np.linspace(0, 1, 21)
    points = coherence_ecdf(m, grid=grid)
    for t, fraction in points:
        expected = sum(p <= t for p in pairs) / len(pairs)
        assert fraction == pytest.approx(expected, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_ecdf_monotone_and_reaches_one(seed):
    rng = np.random.default_rng(seed)
    m = random_unit_dictionary(rng, 6, 14)
    points = coherence_ecdf(m)
    fractions = [f for _, f in points]
    assert all(b >= a for a, b in zip(fractions, fractions[1:]))
    assert fractions[-1] == 1.0


@pytest.fixture(scope="module")
def surrogate_atoms():
    """The 503x600 surrogate the CLI benchmark evaluates on."""
    return generate_raman_surrogate(503, 600, 5, seed=20240801).atoms


def test_pairwise_coherences_equal_the_triu_indices_oracle(surrogate_atoms):
    normed = surrogate_atoms / np.linalg.norm(surrogate_atoms, axis=0)
    gram = normed.T @ normed
    oracle = np.clip(np.abs(gram[np.triu_indices(len(gram), k=1)]), 0.0, 1.0)
    assert pairwise_coherences(surrogate_atoms).tobytes() == oracle.tobytes()


def test_coherence_ecdf_peaks_at_the_gram_matrix(surrogate_atoms):
    # the normalised copy and the Gram matrix, then the pairs, the strict
    # upper-triangle mask and the sort all in one pair array: no (2, P)
    # int64 index pair and no copy for abs, clip or sort
    m, n = surrogate_atoms.shape
    tracemalloc.start()
    try:
        coherence_ecdf(surrogate_atoms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (m * n + n * n) + 2**18


# -- sweep harness ----------------------------------------------------------------


def test_sweep_nnmp_perfect_at_k1(small_dictionary):
    reports = run_sweep(small_dictionary, {"nnmp": nnmp_runner(small_dictionary)},
                        [1], num_test=200, seed=5)
    assert reports["nnmp"].recovery[1] == 1.0


def test_sweep_untrained_deepmp_equals_nnmp(small_dictionary):
    models = {k: init_from_dictionary(small_dictionary, k) for k in (1, 2, 3)}
    solvers = {
        "nnmp": nnmp_runner(small_dictionary),
        "deepmp": deepmp_runner(models),
    }
    reports = run_sweep(small_dictionary, solvers, [1, 2, 3], num_test=150, seed=6)
    assert reports["deepmp"].recovery == reports["nnmp"].recovery
    assert reports["deepmp"].epsilon == reports["nnmp"].epsilon


def test_sweep_is_seed_deterministic(small_dictionary):
    solvers = {"nnomp": nnomp_runner(small_dictionary)}
    a = run_sweep(small_dictionary, solvers, [1, 2], num_test=100, seed=9)
    b = run_sweep(small_dictionary, solvers, [1, 2], num_test=100, seed=9)
    assert a["nnomp"].recovery == b["nnomp"].recovery
    assert a["nnomp"].epsilon == b["nnomp"].epsilon


def test_sweep_missing_model_raises(small_dictionary):
    solvers = {"deepmp": deepmp_runner({1: init_from_dictionary(small_dictionary, 1)})}
    with pytest.raises(MissingModel):
        run_sweep(small_dictionary, solvers, [1, 2], num_test=10, seed=3)


def test_deepmp_runner_rejects_model_of_another_depth(small_dictionary):
    # a depth-2 model at sparsity 3 would run and score well below NNMP
    with pytest.raises(SparsityMismatch):
        deepmp_runner({1: init_from_dictionary(small_dictionary, 1),
                       3: init_from_dictionary(small_dictionary, 2)})


def test_nnomp_perfect_recovery_implies_tiny_epsilon(table_dictionary):
    # refit coefficients reconstruct exactly whenever the support is right;
    # plain MP keeps positive residual even on correct supports, so only the
    # NNOMP direction is asserted
    from deepmp.solvers import nnomp_solve

    samples = make_samples(table_dictionary, 3, 200, 21)
    checked = 0
    for y, truth in zip(samples.signals, samples.supports):
        res = nnomp_solve(table_dictionary, y, 3)
        if hamming_complement(res.support, truth, 3) == 1.0:
            checked += 1
            rel = (np.linalg.norm(y - table_dictionary.atoms @ res.code)
                   / np.linalg.norm(y))
            assert rel < 1e-6
    assert checked > 100  # the property must actually be exercised


def test_report_files_written(tmp_path, small_dictionary):
    solvers = {
        "nnmp": nnmp_runner(small_dictionary),
        "nnomp": nnomp_runner(small_dictionary),
    }
    reports = run_sweep(small_dictionary, solvers, [1, 2], num_test=50, seed=4)
    csv = tmp_path / "metrics.csv"
    js = tmp_path / "metrics.json"
    ecdf = tmp_path / "ecdf.csv"
    write_metrics_csv(reports, csv)
    write_metrics_json(reports, js)
    write_ecdf_csv(coherence_ecdf(small_dictionary.atoms), ecdf)
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "solver,k,recovery,epsilon"
    assert len(lines) == 1 + 2 * 2  # header + |solvers| * |k_range|
    assert "nnmp" in js.read_text()
    assert ecdf.read_text().startswith("t,fraction")
