import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deepmp import solvers
from deepmp.datagen import (
    MixtureConfig,
    generate_raman_surrogate,
    generate_synthetic_dictionary,
    sample_mixture,
)
from deepmp.errors import (
    DimensionMismatch,
    InputError,
    MaxIterationsExceeded,
    NonFiniteSignal,
    ZeroSparsity,
)
from deepmp.solvers import (
    RESIDUAL_FLOOR,
    ProjectionMode,
    _gradient_tolerance,
    _nnls_gram,
    dictionary_pursuit,
    hard_max_pursuit,
    nnls_active_set,
    nnmp_solve,
    nnomp_solve,
    residual_step,
)
from deepmp.types import validate_dictionary

from conftest import random_unit_dictionary


# -- residual update ------------------------------------------------------------


@pytest.mark.parametrize("proj", list(ProjectionMode))
def test_residual_step_is_the_plain_expression_bit_for_bit(table_dictionary,
                                                           proj):
    rng = np.random.default_rng(8)
    atoms = table_dictionary.atoms
    residuals = rng.standard_normal((64, atoms.shape[0]))
    index = rng.integers(0, atoms.shape[1], 64)
    before = residuals.copy()
    coeff, updated = residual_step(atoms, residuals, index, proj)
    picked = atoms[:, index]
    expected = residuals - coeff[:, None] * picked.T
    if proj is ProjectionMode.POSITIVE_ORTHANT:
        expected = np.maximum(expected, 0.0)
    assert np.array_equal(coeff, np.einsum("mb,bm->b", picked, residuals))
    assert np.array_equal(updated, expected)
    assert np.array_equal(residuals, before)
    if proj is ProjectionMode.POSITIVE_ORTHANT:
        assert (updated == 0.0).any()


@pytest.mark.parametrize("proj", list(ProjectionMode))
def test_residual_step_builds_its_update_in_the_gathered_atoms(
        table_dictionary, proj):
    # one (B, M) float64 buffer and the coefficients; the slack covers
    # numpy's 64 KiB buffer for the broadcast multiply. A separate update
    # array beside the gathered atoms exceeds it
    rng = np.random.default_rng(8)
    atoms = table_dictionary.atoms
    batch, m = 512, atoms.shape[0]
    residuals = rng.standard_normal((batch, m))
    index = rng.integers(0, atoms.shape[1], batch)
    tracemalloc.start()
    try:
        residual_step(atoms, residuals, index, proj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * batch * m + 8 * batch + 2**17


# -- hard-max selection ---------------------------------------------------------


def test_hard_max_basic():
    # correlations with y = e1 are [0.8, 0.6, 0.0], with y = e0 [0.6, 0.8, 1.0]
    d = validate_dictionary([[0.6, 0.8, 1.0], [0.8, 0.6, 0.0]])
    res = nnmp_solve(d, [0.0, 1.0], 1)
    assert (res.support.tolist(), res.code[0]) == ([0], 0.8)
    res = nnmp_solve(d, [1.0, 0.0], 1)
    assert (res.support.tolist(), res.code[2]) == ([2], 1.0)


def test_hard_max_tie_breaks_low_index():
    # y = e0 + e1 correlates exactly 1 with atoms 0 and 1, 1/sqrt(2) with atom 3
    d = validate_dictionary(np.hstack([
        np.eye(3), np.array([[0.0], [1.0], [1.0]]) / np.sqrt(2.0)
    ]))
    y = np.array([1.0, 1.0, 0.0])
    assert nnmp_solve(d, y, 1).support.tolist() == [0]
    assert nnmp_solve(d, y, 2).support.tolist() == [0, 1]


def test_hard_max_self_correlation_wins(small_dictionary):
    # a unit atom's self inner product is the strict maximum when coherence < 1
    for j in (0, 17, 49):
        res = nnmp_solve(small_dictionary, small_dictionary.atoms[:, j], 1)
        assert res.support.tolist() == [j]
        assert res.code[j] == pytest.approx(1.0, abs=1e-9)


def test_kernel_rows_match_one_row_calls(table_dictionary):
    # the batched kernel treats each row on its own: a stack gives the rows
    # that one-row calls give, bit for bit
    atoms = table_dictionary.atoms
    samples = sample_mixture(
        table_dictionary, MixtureConfig(sparsity=3, num_samples=30, seed=4)
    )
    signals = np.vstack([samples.signals, np.zeros(30)])
    supports, codes, residuals, paths = hard_max_pursuit(
        np.broadcast_to(atoms, (3, *atoms.shape)), atoms, signals,
        ProjectionMode.POSITIVE_ORTHANT
    )
    for i, y in enumerate(signals):
        res = nnmp_solve(table_dictionary, y, 3)
        assert supports[i][supports[i] >= 0].tolist() == res.support.tolist()
        assert codes[i].tobytes() == res.code.tobytes()
        assert residuals[i].tobytes() == res.residual.tobytes()
        assert np.array_equal(paths[i, :res.steps_taken + 1],
                              res.residual_norm_path)
    assert supports[-1].tolist() == [-1, -1, -1]


def masked_pursuit(selection_mats, atoms, signals, proj):
    """:func:`hard_max_pursuit` as it read with boolean-masked updates."""
    residuals = np.array(signals, dtype=np.float64)
    batch, depth = residuals.shape[0], len(selection_mats)
    supports = np.full((batch, depth), -1, dtype=np.int64)
    codes = np.zeros((batch, atoms.shape[1]))
    norm_paths = np.empty((batch, depth + 1))
    norm_paths[:, 0] = np.linalg.norm(residuals, axis=1)
    live = np.ones(batch, dtype=bool)
    rows = np.arange(batch)
    for k, weights in enumerate(selection_mats):
        live &= norm_paths[:, k] >= RESIDUAL_FLOOR
        if live.any():
            scores = residuals @ weights
            picked = np.argmax(scores, axis=1)
            best = scores[rows, picked]
            coeff, updated = residual_step(atoms, residuals, picked, proj)
            live &= (best > 0.0) & (coeff > 0.0)
            supports[live, k] = picked[live]
            codes[live, picked[live]] += coeff[live]
            residuals[live] = updated[live]
        norm_paths[:, k + 1] = np.linalg.norm(residuals, axis=1)
    return supports, codes, residuals, norm_paths


def assert_matches_masked_pursuit(weights, atoms, signals, proj):
    """The kernel's four outputs equal masked_pursuit's byte for byte."""
    got = hard_max_pursuit(weights, atoms, signals, proj)
    expected = masked_pursuit(weights, atoms, signals, proj)
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype and g.tobytes() == e.tobytes()
    return got


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 5),
       signal_dim=st.integers(3, 8), extra_atoms=st.integers(2, 10),
       batch_size=st.integers(0, 20), noise=st.sampled_from([0.0, 0.3, 2.0]),
       proj=st.sampled_from(list(ProjectionMode)))
def test_hard_max_pursuit_matches_masked_updates_bit_for_bit(
        seed, depth, signal_dim, extra_atoms, batch_size, noise, proj):
    # atoms 0..M-1 are the identity basis. The selection blocks are
    # non-negative, and block 0 scores atom 0 with 100 * e_1, so three
    # appended rows stop at step 0, one on each stop test: a zero row on the
    # residual floor, a negative row on its best score (every score <= 0),
    # and e_1 on its correlation (atom 0 wins, and <e_0, e_1> = 0)
    rng = np.random.default_rng(seed)
    d = validate_dictionary(np.hstack([
        np.eye(signal_dim),
        random_unit_dictionary(rng, signal_dim, extra_atoms)]))
    atoms = d.atoms
    weights = np.abs(atoms + noise * rng.standard_normal((depth, *atoms.shape)))
    weights[0][:, 0] = 100.0 * np.eye(signal_dim)[1]
    mixtures = sample_mixture(d, MixtureConfig(
        sparsity=min(depth, 3), num_samples=max(batch_size, 1), seed=seed))
    e1 = np.eye(signal_dim)[1]
    signals = np.vstack([
        mixtures.signals[:batch_size],
        rng.standard_normal((batch_size, signal_dim)),
        # an exact atom multiple: its residual can reach 0 mid-run
        rng.random((batch_size, 1)) * np.eye(signal_dim)[
            rng.integers(0, signal_dim, batch_size)],
        np.zeros(signal_dim), -(rng.random(signal_dim) + 0.1), e1])
    got = assert_matches_masked_pursuit(weights, atoms, signals, proj)
    assert (got[0][-3:] == -1).all()


@pytest.mark.parametrize("proj", list(ProjectionMode))
def test_hard_max_pursuit_matches_masked_updates_at_surrogate_scale(proj):
    # the kernel gathers the live rows once a row stops, so its score
    # products have other row counts than masked_pursuit's whole-stack ones;
    # at 503x600 OpenBLAS rounds some products differently by row count
    atoms = surrogate_dictionary().atoms
    rng = np.random.default_rng(3)
    weights = np.abs(atoms + 0.05 * rng.standard_normal((5, *atoms.shape)))
    mixtures = sample_mixture(validate_dictionary(atoms), MixtureConfig(
        sparsity=5, num_samples=200, seed=3)).signals
    signals = rng.permutation(np.vstack([
        mixtures,
        # exact atom multiples: their residual can reach the floor mid-run
        3.0 * atoms[:, rng.integers(0, atoms.shape[1], 20)].T,
        # the floor and a non-positive best score at step 0
        np.zeros((5, atoms.shape[0])), -(rng.random((5, atoms.shape[0])) + 0.1)]))
    supports = assert_matches_masked_pursuit(weights, atoms, signals, proj)[0]
    assert (supports[:, 0] == -1).sum() == 10
    assert ((supports[:, 0] >= 0) & (supports[:, -1] == -1)).any()
    # one live row after step 0: from step 1 on the products have one row
    stopped = signals[supports[:, 0] == -1]
    signals = rng.permutation(np.vstack([mixtures[:1], stopped]))
    supports = assert_matches_masked_pursuit(weights, atoms, signals, proj)[0]
    assert (supports[:, 0] >= 0).sum() == 1 and (supports[:, 1] >= 0).sum() == 1


# -- nnmp ---------------------------------------------------------------------


def test_nnmp_single_atom_signal(small_dictionary):
    res = nnmp_solve(small_dictionary, small_dictionary.atoms[:, 3], 1)
    assert res.support.tolist() == [3]
    assert res.code[3] == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.norm(res.residual) < 1e-9
    assert res.steps_taken == 1


def test_nnmp_zero_signal_stops_immediately(small_dictionary):
    res = nnmp_solve(small_dictionary, np.zeros(10), 4)
    assert res.steps_taken == 0
    assert res.support.size == 0
    assert np.all(res.code == 0)


def test_nnmp_two_atom_mixture_derived_oracle(small_dictionary):
    # oracle 1: first pick is the plain correlation argmax, recomputed here
    # oracle 2: exhaustive 2-atom NNLS confirms {2, 9} is the best pair
    atoms = small_dictionary.atoms
    y = 0.8 * atoms[:, 2] + 0.3 * atoms[:, 9]
    first_pick = int(np.argmax(atoms.T @ y))
    assert first_pick == 2

    best_pair, best_norm = None, np.inf
    for i in range(50):
        for j in range(i + 1, 50):
            coeffs = nnls_active_set(atoms[:, [i, j]], y)
            norm = np.linalg.norm(y - atoms[:, [i, j]] @ coeffs)
            if norm < best_norm:
                best_pair, best_norm = {i, j}, norm
    assert best_pair == {2, 9}

    res = nnmp_solve(small_dictionary, y, 2)
    assert res.support[0] == 2
    assert 2 in res.support
    path = res.residual_norm_path
    assert path[2] < path[1] < path[0]


def test_nnmp_rejects_wrong_signal_length(small_dictionary):
    with pytest.raises(DimensionMismatch):
        nnmp_solve(small_dictionary, np.zeros(9), 2)


@pytest.mark.parametrize("solve", [nnmp_solve, nnomp_solve])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_solvers_reject_non_finite_signals(small_dictionary, solve, bad):
    y = np.abs(np.sin(np.arange(10)))
    y[4] = bad
    with pytest.raises(NonFiniteSignal):
        solve(small_dictionary, y, 3)
    with pytest.raises(NonFiniteSignal):
        solve(small_dictionary, np.full(10, bad), 3)


@pytest.mark.parametrize("solve", [nnmp_solve, nnomp_solve])
def test_solvers_reject_zero_budget(small_dictionary, solve):
    with pytest.raises(ZeroSparsity):
        solve(small_dictionary, np.ones(10), 0)
    assert issubclass(ZeroSparsity, InputError)


@pytest.mark.parametrize("proj", [*ProjectionMode, None])
def test_dictionary_pursuit_rows_equal_one_row_solves(table_dictionary, proj):
    # mixtures, random signals of either sign, an atom that stops on the
    # residual floor after one step and a zero row that never starts
    rng = np.random.default_rng(21)
    samples = sample_mixture(
        table_dictionary, MixtureConfig(sparsity=4, num_samples=20, seed=3))
    signals = np.vstack([samples.signals, np.abs(rng.standard_normal((10, 30))),
                         rng.standard_normal((10, 30)),
                         table_dictionary.atoms[:, 5], np.zeros(30)])
    supports, codes, residuals, paths = dictionary_pursuit(
        table_dictionary, signals, 4, proj)
    for i, y in enumerate(signals):
        res = (nnomp_solve(table_dictionary, y, 4) if proj is None
               else nnmp_solve(table_dictionary, y, 4, proj))
        assert supports[i][supports[i] >= 0].tolist() == res.support.tolist()
        assert codes[i].tobytes() == res.code.tobytes()
        assert residuals[i].tobytes() == res.residual.tobytes()
        assert paths[i, :res.steps_taken + 1].tobytes() == \
            res.residual_norm_path.tobytes()
    with pytest.raises(ZeroSparsity):
        dictionary_pursuit(table_dictionary, signals, 0, proj)


def test_nnmp_is_deterministic(small_dictionary):
    y = np.abs(np.sin(np.arange(10)))
    a = nnmp_solve(small_dictionary, y, 5)
    b = nnmp_solve(small_dictionary, y, 5)
    assert np.array_equal(a.code, b.code)
    assert np.array_equal(a.support, b.support)
    assert np.array_equal(a.residual, b.residual)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_nnmp_monotone_residual_and_positive_coefficients(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(5, 20))
    cols = int(rng.integers(rows + 1, 60))
    d = validate_dictionary(random_unit_dictionary(rng, rows, cols))
    y = np.abs(rng.standard_normal(rows))
    res = nnmp_solve(d, y, 5, ProjectionMode.POSITIVE_ORTHANT)
    path = res.residual_norm_path
    assert np.all(np.diff(path) <= 1e-12)
    for step, atom in enumerate(res.support):
        assert res.code[atom] > 0.0
    assert np.all(res.code >= 0.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_one_sparse_inputs_recovered_by_both_solvers(seed):
    rng = np.random.default_rng(seed)
    d = validate_dictionary(random_unit_dictionary(rng, 8, 20))
    j = int(rng.integers(20))
    y = float(rng.uniform(0.1, 2.0)) * d.atoms[:, j]
    assert nnmp_solve(d, y, 1).support.tolist() == [j]
    assert nnomp_solve(d, y, 1).support.tolist() == [j]


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_nnomp_residual_dominates_nnmp(seed, budget):
    # compared under identity projection, where the MP residual is the honest
    # y - Ax; the positive-orthant residual is projection-shrunk and smaller
    rng = np.random.default_rng(seed)
    d = validate_dictionary(random_unit_dictionary(rng, 10, 40))
    k = int(rng.integers(1, 4))
    idx = rng.choice(40, size=k, replace=False)
    y = d.atoms[:, idx] @ rng.uniform(0.05, 1.0, size=k)
    r_mp = np.linalg.norm(nnmp_solve(d, y, budget, ProjectionMode.IDENTITY).residual)
    r_omp = np.linalg.norm(nnomp_solve(d, y, budget).residual)
    assert r_omp <= r_mp + 1e-9


# -- nnls ---------------------------------------------------------------------


def test_nnls_exact_on_orthonormal_columns():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    b = a @ np.array([0.5, 0.2])
    assert np.allclose(nnls_active_set(a, b), [0.5, 0.2], atol=1e-12)


def test_nnls_clips_negative_solution_to_zero():
    a = np.array([[0.6], [0.8]])
    assert np.array_equal(nnls_active_set(a, -a[:, 0]), [0.0])


def nnls_projected_gradient_oracle(a, b, max_iter=200000):
    step = 1.0 / np.linalg.norm(a, 2) ** 2
    x = np.zeros(a.shape[1])
    for _ in range(max_iter):
        nxt = np.maximum(0.0, x - step * (a.T @ (a @ x - b)))
        if np.max(np.abs(nxt - x)) < 1e-15:
            return nxt
        x = nxt
    return x


def test_nnls_matches_projected_gradient_oracle():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = rng.standard_normal((8, 3))
        b = rng.standard_normal(8)
        x = nnls_active_set(a, b)
        oracle = nnls_projected_gradient_oracle(a, b)
        assert np.allclose(x, oracle, atol=1e-6)


def test_nnls_kkt_conditions():
    rng = np.random.default_rng(34)
    for _ in range(50):
        m = int(rng.integers(4, 14))
        n = int(rng.integers(1, min(m, 7)))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        x = nnls_active_set(a, b)
        grad = a.T @ (a @ x - b)
        assert np.all(x >= 0.0)
        assert np.all(grad[x == 0.0] >= -1e-8)
        assert np.all(np.abs(grad[x > 0.0]) <= 1e-8)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_nnls_kkt_on_non_negative_columns(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 20))
    n = int(rng.integers(1, min(m, 6) + 1))
    a = random_unit_dictionary(rng, m, n)
    b = rng.standard_normal(m) + float(rng.uniform(-1.0, 2.0))
    x = nnls_active_set(a, b)
    grad = a.T @ (a @ x - b)
    assert np.all(x >= 0.0)
    assert np.all(grad[x == 0.0] >= -1e-8)
    assert np.all(np.abs(grad[x > 0.0]) <= 1e-8)


@pytest.mark.parametrize("where", ["columns", "target"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nnls_rejects_non_finite_input(where, bad):
    a = np.array([[1.0, 0.0, 0.6], [0.0, 1.0, 0.8]])
    b = np.array([0.5, 0.2])
    (a if where == "columns" else b)[1] = bad
    with pytest.raises(NonFiniteSignal):
        nnls_active_set(a, b)


def test_nnls_rejects_zero_columns():
    with pytest.raises(DimensionMismatch):
        nnls_active_set(np.zeros((3, 0)), np.ones(3))


def test_nnls_iteration_cap_raises():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 3))
    b = rng.standard_normal(6)
    with pytest.raises(MaxIterationsExceeded):
        nnls_active_set(a, b, max_iter=0)


# -- nnomp --------------------------------------------------------------------


def test_nnomp_stops_on_exact_recovery(small_dictionary):
    res = nnomp_solve(small_dictionary, small_dictionary.atoms[:, 3], 2)
    assert res.steps_taken == 1
    assert res.support.tolist() == [3]
    assert np.linalg.norm(res.residual) < 1e-9


def low_coherence_dictionary():
    """10x50 non-negative dictionary whose first ten atoms are orthogonal.

    Non-negative random atoms are inherently coherent, so low coherence is
    built structurally: the identity basis plus normalized two-hot pairs.
    """
    eye = np.eye(10)
    pairs = [(i, j) for i in range(10) for j in range(i + 1, 10)][:40]
    combos = np.zeros((10, 40))
    for col, (i, j) in enumerate(pairs):
        combos[i, col] = combos[j, col] = 1.0 / np.sqrt(2.0)
    return validate_dictionary(np.hstack([eye, combos]))


def test_nnomp_two_atoms_match_least_squares_oracle():
    d = low_coherence_dictionary()
    atoms = d.atoms
    y = 0.8 * atoms[:, 2] + 0.3 * atoms[:, 9]
    res = nnomp_solve(d, y, 2)
    assert set(res.support.tolist()) == {2, 9}
    oracle, *_ = np.linalg.lstsq(atoms[:, [2, 9]], y, rcond=None)
    assert res.code[2] == pytest.approx(oracle[0], abs=1e-6)
    assert res.code[9] == pytest.approx(oracle[1], abs=1e-6)


def test_nnomp_never_reselects(table_dictionary):
    samples = sample_mixture(
        table_dictionary, MixtureConfig(sparsity=4, num_samples=50, seed=3)
    )
    for y in samples.signals:
        res = nnomp_solve(table_dictionary, y, 4)
        assert len(set(res.support.tolist())) == res.support.size


def test_nnomp_is_deterministic(small_dictionary):
    y = np.abs(np.cos(np.arange(10)))
    a = nnomp_solve(small_dictionary, y, 3)
    b = nnomp_solve(small_dictionary, y, 3)
    assert np.array_equal(a.code, b.code)
    assert np.array_equal(a.support, b.support)
    assert np.array_equal(a.residual, b.residual)


# -- batched nnomp kernel ---------------------------------------------------------


def nnomp_kernel(atoms, signals, budget):
    """NNOMP on a signal stack: the pursuit kernel's refit update with the
    atoms as every selection matrix."""
    stack = np.broadcast_to(atoms, (budget, *atoms.shape))
    return hard_max_pursuit(stack, atoms, signals, None)


def lstsq_nnls(a, b):
    """Lawson-Hanson NNLS with one ``lstsq`` per passive set, written out."""
    n = a.shape[1]
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    grad_tol = 1e-12 * max(1.0, float(np.abs(a.T @ b).max()))
    while True:
        w = np.where(passive, -np.inf, a.T @ (b - a @ x))
        if passive.all() or w.max() <= grad_tol:
            return x
        passive[int(np.argmax(w))] = True
        while True:
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if z[passive].min() > 0.0:
                x = z
                break
            blocking = passive & (z <= 0.0)
            alpha = np.min(x[blocking] / (x[blocking] - z[blocking]))
            x = x + alpha * (z - x)
            passive &= x > 1e-14
            x[~passive] = 0.0


def nnomp_oracle(atoms, y, budget, weights=None):
    """Per-signal NNOMP: free-atom argmax, then a full ``lstsq_nnls`` refit.

    Step k scores with ``weights[k].T @ r`` when a selection stack is given,
    and with the atoms otherwise.
    """
    r = y.copy()
    selected = []
    code = np.zeros(atoms.shape[1])
    for k in range(budget):
        if np.linalg.norm(r) < 1e-12:
            break
        scores = (atoms if weights is None else weights[k]).T @ r
        scores[selected] = -np.inf
        index = int(np.argmax(scores))
        if scores[index] <= 0.0:
            break
        selected.append(index)
        coeffs = lstsq_nnls(atoms[:, selected], y)
        r = y - atoms[:, selected] @ coeffs
        code[:] = 0.0
        code[selected] = coeffs
    return selected, code


def surrogate_dictionary():
    return generate_raman_surrogate(503, 600, peaks_per_atom=5, seed=11)


@pytest.mark.parametrize("dictionary, k, num", [
    *[("table", k, 300) for k in range(1, 6)],
    ("surrogate", 5, 100),
    # trained-like selection stacks: the atoms plus Gaussian noise per step
    *[("table+0.3", k, 300) for k in range(1, 6)],
    ("surrogate+0.05", 5, 100),
])
def test_nnomp_kernel_matches_per_row_oracle(table_dictionary, dictionary, k, num):
    name, _, noise = dictionary.partition("+")
    d = table_dictionary if name == "table" else surrogate_dictionary()
    samples = sample_mixture(d, MixtureConfig(sparsity=k, num_samples=num, seed=k))
    signals = samples.signals
    supports, codes, _, _ = nnomp_kernel(d.atoms, signals, k)
    weights = None
    if noise:
        rng = np.random.default_rng(k)
        weights = d.atoms + float(noise) * rng.standard_normal((k, *d.atoms.shape))
        plain = supports
        supports, codes, _, _ = hard_max_pursuit(weights, d.atoms, signals, None)
        # the stack must change some pick, or selection goes untested
        assert (supports != plain).any()
    for row, code, y in zip(supports, codes, signals):
        selected, oracle = nnomp_oracle(d.atoms, y, k, weights)
        assert row[row >= 0].tolist() == selected
        assert np.max(np.abs(code - oracle)) <= 1e-12


def test_nnomp_kernel_rows_match_one_row_calls(table_dictionary):
    atoms = table_dictionary.atoms
    samples = sample_mixture(
        table_dictionary, MixtureConfig(sparsity=4, num_samples=30, seed=8)
    )
    # an atom stops after one step on the residual floor, zeros at once
    signals = np.vstack([samples.signals, atoms[:, 7], np.zeros(30)])
    supports, codes, residuals, paths = nnomp_kernel(atoms, signals, 4)
    for i, y in enumerate(signals):
        res = nnomp_solve(table_dictionary, y, 4)
        assert supports[i][supports[i] >= 0].tolist() == res.support.tolist()
        assert codes[i].tobytes() == res.code.tobytes()
        assert residuals[i].tobytes() == res.residual.tobytes()
        assert paths[i, :res.steps_taken + 1].tobytes() == \
            res.residual_norm_path.tobytes()
    assert supports[-2].tolist() == [7, -1, -1, -1]
    assert supports[-1].tolist() == [-1, -1, -1, -1]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_nnomp_kernel_properties(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(5, 20))
    cols = int(rng.integers(rows + 1, 60))
    atoms = random_unit_dictionary(rng, rows, cols)
    batch = int(rng.integers(1, 16))
    budget = int(rng.integers(1, 6))
    mixtures = atoms[:, rng.integers(0, cols, size=(3, batch))]  # (M, 3, B)
    signals = np.where(rng.random(batch)[:, None] < 0.5,
                       np.einsum("mjb,jb->bm", mixtures, rng.random((3, batch))),
                       np.abs(rng.standard_normal((batch, rows))))
    supports, codes, residuals, paths = nnomp_kernel(atoms, signals, budget)
    assert np.all(np.diff(paths, axis=1) <= 1e-12)
    assert np.all(codes >= 0.0)
    for support, code, y in zip(supports, codes, signals):
        picked = support[support >= 0]
        assert np.unique(picked).size == picked.size
        off = np.ones(cols, dtype=bool)
        off[picked] = False
        assert np.all(code[off] == 0.0)
        a, x = atoms[:, picked], code[picked]
        grad = a.T @ (a @ x - y)
        assert np.all(grad[x == 0.0] >= -1e-8)
        assert np.all(np.abs(grad[x > 0.0]) <= 1e-8)


def gathered_nnomp(atoms, signals, budget):
    """The NNOMP kernel as it read with every live row gathered."""
    signals = np.array(signals, dtype=np.float64)
    batch = signals.shape[0]
    atoms_t = np.ascontiguousarray(atoms.T)  # row j is atom j
    supports = np.full((batch, budget), -1, dtype=np.int64)
    coeffs = np.zeros((batch, budget))  # aligned with supports
    grams = np.zeros((batch, budget, budget))
    rhs = np.zeros((batch, budget))
    residuals = signals.copy()
    norm_paths = np.empty((batch, budget + 1))
    norm_paths[:, 0] = np.linalg.norm(residuals, axis=1)
    live = np.ones(batch, dtype=bool)
    for k in range(budget):
        live &= norm_paths[:, k] >= RESIDUAL_FLOOR
        rows = np.flatnonzero(live)
        if rows.size:
            scores = residuals[rows] @ atoms  # (L, N)
            scores[np.arange(rows.size)[:, None], supports[rows, :k]] = -np.inf
            picked = np.argmax(scores, axis=1)
            positive = scores[np.arange(rows.size), picked] > 0.0
            del scores
            live[rows[~positive]] = False
            rows, picked = rows[positive], picked[positive]
            supports[rows, k] = picked
            columns = atoms_t[supports[rows, :k + 1]]  # (L, k + 1, M)
            refit = signals[rows]
            rhs[rows, k] = np.einsum("bm,bm->b", refit, columns[:, k])
            grams[rows, :k + 1, k] = grams[rows, k, :k + 1] = np.einsum(
                "bjm,bm->bj", columns, columns[:, k])
            g, b = grams[rows, :k + 1, :k + 1], rhs[rows, :k + 1]
            # warm start: the previous refit, 0 at the new column
            x = coeffs[rows, :k + 1]
            # _nnls_gram's gradient and tolerance: rows where its run would
            # be one insertion and one full, positive solve skip it
            w = b[:, k] - (g[:, k] * x).sum(axis=1)
            full = (x[:, :k] > 0.0).all(axis=1) & (w > _gradient_tolerance(b))
            if full.any():
                z = np.linalg.solve(g[full], b[full, :, None])[:, :, 0]
                taken = (z > 0.0).all(axis=1)
                full[full] = taken
                x[full] = z[taken]
            if not full.all():
                rest = ~full
                x[rest] = _nnls_gram(g[rest], b[rest], x[rest], 3 * (k + 1))
            coeffs[rows, :k + 1] = x
            for j in range(k + 1):
                refit -= x[:, j, None] * columns[:, j]
            residuals[rows] = refit
            # released before the next step builds its scores
            del refit, columns
        norm_paths[:, k + 1] = np.linalg.norm(residuals, axis=1)
    codes = np.zeros((batch, atoms.shape[1]))
    picked = supports >= 0
    codes[np.nonzero(picked)[0], supports[picked]] = coeffs[picked]
    return supports, codes, residuals, norm_paths


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), budget=st.integers(1, 5),
       signal_dim=st.integers(3, 10), extra_atoms=st.integers(2, 12),
       batch_size=st.integers(0, 12), take=st.integers(0, 80))
@example(seed=31, budget=4, signal_dim=5, extra_atoms=6, batch_size=10, take=0)
@example(seed=31, budget=4, signal_dim=5, extra_atoms=6, batch_size=10, take=1)
def test_nnomp_pursuit_matches_gathered_rows_bit_for_bit(
        seed, budget, signal_dim, extra_atoms, batch_size, take):
    # the rows of the Lawson-Hanson tests, shuffled, then the first ``take``:
    # non-negative mixtures (mostly full solves, some with a zero or a
    # non-positive solution), the same scaled by 1e4 (a flat gradient once
    # the mixture is found), signed noise (non-positive scores and refits),
    # exact atom multiples (residual floor mid-run), zero rows (floor at
    # step 0) and negative rows (non-positive score at step 0)
    rng = np.random.default_rng(seed)
    atoms = np.hstack([np.eye(signal_dim),
                       random_unit_dictionary(rng, signal_dim, extra_atoms)])
    cols = atoms.shape[1]
    mixtures = np.einsum("mjb,jb->bm",
                         atoms[:, rng.integers(0, cols, (3, batch_size))],
                         rng.random((3, batch_size)))
    signals = np.vstack([
        mixtures, 1e4 * mixtures,
        rng.standard_normal((batch_size, signal_dim)),
        rng.random((batch_size, 1)) * atoms[:, rng.integers(0, cols,
                                                            batch_size)].T,
        np.zeros((1, signal_dim)), -(rng.random((1, signal_dim)) + 0.1)])
    signals = rng.permutation(signals)[:take]
    got = nnomp_kernel(atoms, signals, budget)
    expected = gathered_nnomp(atoms, signals, budget)
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype and g.shape == e.shape
        assert g.tobytes() == e.tobytes()


# -- warm-started refits ----------------------------------------------------------


def gram_systems(atoms, signals, supports):
    """Each row's Gram matrix and right-hand side on its support.

    Built one entry at a time with ``einsum``, entry (j, i) for j <= i as
    the product with atom i, which is how the kernel's products round.
    """
    atoms_t = np.ascontiguousarray(atoms.T)
    rows, n = supports.shape
    grams = np.zeros((rows, n, n))
    rhs = np.zeros((rows, n))
    for i in range(n):
        new = atoms_t[supports[:, i]]
        rhs[:, i] = np.einsum("bm,bm->b", signals, new)
        for j in range(i + 1):
            grams[:, j, i] = grams[:, i, j] = np.einsum(
                "bm,bm->b", atoms_t[supports[:, j]], new)
    return grams, rhs


def cold_refits(atoms, signals, supports):
    """Each row's NNLS on its support, from x = 0, on the kernel's Gram system."""
    grams, rhs = gram_systems(atoms, signals, supports)
    n = supports.shape[1]
    return _nnls_gram(grams, rhs, np.zeros((supports.shape[0], n)), 3 * n)


def assert_warm_equals_cold(atoms, signals, budget):
    """Every level's codes equal a cold-start refit bit for bit.

    Returns the number of (level, row) refits that ended with a selected
    coefficient at zero, which only a backtrack leaves.
    """
    dropped = 0
    for k in range(1, budget + 1):
        supports, codes, _, _ = nnomp_kernel(atoms, signals, k)
        full = np.flatnonzero(supports[:, -1] >= 0)
        support = supports[full]
        warm = codes[full[:, None], support]
        assert warm.tobytes() == \
            cold_refits(atoms, signals[full], support).tobytes()
        dropped += int((warm == 0.0).any(axis=1).sum())
    return dropped


@pytest.mark.parametrize("dictionary, k, num", [
    ("table", 7, 400),
    ("surrogate", 6, 150),
])
def test_warm_refits_equal_cold_refits(table_dictionary, dictionary, k, num):
    d = table_dictionary if dictionary == "table" else surrogate_dictionary()
    signals = sample_mixture(
        d, MixtureConfig(sparsity=k, num_samples=num, seed=k)).signals
    # signed signals make more refits drop a coefficient
    rng = np.random.default_rng(k)
    signed = rng.standard_normal((num, d.atoms.shape[0]))
    assert assert_warm_equals_cold(d.atoms, np.vstack([signals, signed]), k) > 0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_warm_refits_equal_cold_refits_on_random_dictionaries(seed):
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(5, 20))
    cols = int(rng.integers(rows + 1, 60))
    atoms = random_unit_dictionary(rng, rows, cols)
    batch = int(rng.integers(1, 40))
    signals = np.abs(rng.standard_normal((batch, rows)))
    assert_warm_equals_cold(atoms, signals, int(rng.integers(1, 6)))


@pytest.mark.parametrize("budget", [2, 3, 5])
def test_refits_without_backtracks_make_one_solve_per_step(monkeypatch, budget):
    # orthonormal atoms and positive codes: every refit is exact and positive,
    # so a step's refit inserts its new column and solves once (a refit from
    # x = 0 would re-insert every selected column, one solve each)
    rng = np.random.default_rng(budget)
    atoms = np.linalg.qr(rng.standard_normal((12, 12)))[0][:, :8]
    codes = rng.uniform(0.5, 2.0, size=(20, 8))
    codes[rng.random((20, 8)) < 0.3] = 0.0
    signals = codes @ atoms.T
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve",
                        lambda a, b: calls.append(a.shape[0]) or solve(a, b))
    supports, out, _, _ = nnomp_kernel(atoms, signals, budget)
    assert len(calls) == budget
    picked = supports >= 0
    assert np.all(out[np.arange(20)[:, None], supports][picked] > 0.0)


def test_warm_start_counts_only_its_own_iterations():
    # from x = 0 the same problem raises (test_nnls_iteration_cap_raises)
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 3))
    b = rng.standard_normal(6)
    grams, rhs = (a.T @ a)[None], (a.T @ b)[None]
    solution = nnls_active_set(a, b)
    # started at its solution, a refit has nothing left to do
    warm = _nnls_gram(grams, rhs, solution[None].copy(), 0)
    assert warm[0].tobytes() == solution.tobytes()


def spy_nnls_gram(monkeypatch):
    """Record every call the kernel makes to ``_nnls_gram``.

    Each entry holds copies of the call's Gram stack, right-hand sides and
    warm start, and its result.
    """
    calls = []

    def spy(grams, rhs, x, max_iter):
        start = x.copy()
        out = _nnls_gram(grams, rhs, x, max_iter)
        calls.append((grams.copy(), rhs.copy(), start, out.copy()))
        return out

    monkeypatch.setattr(solvers, "_nnls_gram", spy)
    return calls


def test_positive_refits_never_enter_lawson_hanson(monkeypatch):
    # orthonormal atoms and positive codes: every refit is exact and positive
    rng = np.random.default_rng(5)
    atoms = np.linalg.qr(rng.standard_normal((12, 12)))[0][:, :8]
    codes = rng.uniform(0.5, 2.0, size=(20, 8))
    codes[rng.random((20, 8)) < 0.3] = 0.0
    calls = spy_nnls_gram(monkeypatch)
    supports, _, _, _ = nnomp_kernel(atoms, codes @ atoms.T, 5)
    assert calls == []
    assert np.all(supports[:, 0] >= 0)


def assert_only_failing_rows_enter_lawson_hanson(calls, atoms, signals, k):
    """``calls`` holds exactly the refits the full-support solve cannot take.

    For each step n, rebuilds every row's Gram system and warm start (the
    previous level's cold refit, 0 at the new column) and checks that
    ``_nnls_gram`` received exactly the rows whose warm start holds a zero,
    whose new column's gradient is within the tolerance, or whose full
    solve has a non-positive entry, and returned their cold refits bit for
    bit. Returns how many rows had each of those, and how many had a zero
    in the warm start but a positive full solve.
    """
    supports, _, _, _ = nnomp_kernel(atoms, signals, k)
    by_columns = {call[1].shape[1]: call for call in calls}
    assert len(by_columns) == len(calls)  # at most one call per step
    seen = dict.fromkeys(["zero", "flat", "non_positive", "zero_positive"], 0)
    for n in range(1, k + 1):
        rows = np.flatnonzero(supports[:, n - 1] >= 0)
        support = supports[rows, :n]
        grams, rhs = gram_systems(atoms, signals[rows], support)
        start = np.zeros((rows.size, n))
        if n > 1:
            start[:, :-1] = cold_refits(atoms, signals[rows], support[:, :-1])
        # the new column's gradient and tolerance as _nnls_gram forms them
        gradient = (rhs - (grams * start[:, None, :]).sum(axis=2))[:, -1]
        tol = 1e-12 * np.maximum(1.0, np.abs(rhs).max(axis=1))
        zero = (start[:, :-1] == 0.0).any(axis=1)
        steep = gradient > tol
        solved = np.linalg.solve(grams[steep], rhs[steep, :, None])[:, :, 0]
        positive = np.zeros(rows.size, dtype=bool)
        positive[steep] = (solved > 0.0).all(axis=1)
        fails = zero | ~steep | ~positive
        seen["zero"] += int(zero.sum())
        seen["flat"] += int((~steep).sum())
        seen["non_positive"] += int((steep & ~positive).sum())
        seen["zero_positive"] += int((zero & positive).sum())
        if not fails.any():
            assert n not in by_columns
            continue
        got_grams, got_rhs, got_start, out = by_columns[n]
        assert got_grams.tobytes() == grams[fails].tobytes()
        assert got_rhs.tobytes() == rhs[fails].tobytes()
        assert got_start.tobytes() == start[fails].tobytes()
        assert out.tobytes() == cold_refits(
            atoms, signals[rows[fails]], support[fails]).tobytes()
    return seen


@pytest.mark.parametrize("dictionary, k, num", [
    ("table", 7, 400),
    ("surrogate", 6, 150),
])
def test_lawson_hanson_gets_only_rows_the_full_solve_cannot_take(
        monkeypatch, table_dictionary, dictionary, k, num):
    # the signals of test_warm_refits_equal_cold_refits
    d = table_dictionary if dictionary == "table" else surrogate_dictionary()
    signals = sample_mixture(
        d, MixtureConfig(sparsity=k, num_samples=num, seed=k)).signals
    rng = np.random.default_rng(k)
    signals = np.vstack([signals, rng.standard_normal((num, d.atoms.shape[0]))])
    calls = spy_nnls_gram(monkeypatch)
    seen = assert_only_failing_rows_enter_lawson_hanson(calls, d.atoms,
                                                        signals, k)
    assert seen["zero"] > 0 and seen["non_positive"] > 0
    refits = sum(call[1].shape[0] for call in calls)
    assert refits < 0.1 * (nnomp_kernel(d.atoms, signals, k)[0] >= 0).sum()


def test_lawson_hanson_gets_rows_with_a_flat_gradient(monkeypatch,
                                                      table_dictionary):
    # exact 3-atom mixtures, scaled up: after three steps the residual is
    # rounding noise above the floor, and the fourth atom's gradient is
    # below the tolerance, which scales with the right-hand side
    signals = 1e4 * sample_mixture(
        table_dictionary, MixtureConfig(sparsity=3, num_samples=300, seed=3)
    ).signals
    calls = spy_nnls_gram(monkeypatch)
    seen = assert_only_failing_rows_enter_lawson_hanson(
        calls, table_dictionary.atoms, signals, 5)
    assert seen["flat"] > 0


def test_lawson_hanson_gets_rows_with_a_zero_even_if_the_full_solve_is_positive(
        monkeypatch):
    # from a zero in the warm start, Lawson-Hanson may stop before the full
    # support, so such a row never takes the full solve; this small random
    # problem has one at its fourth step
    rng = np.random.default_rng(31)
    rows = int(rng.integers(3, 8))
    cols = int(rng.integers(rows + 1, 3 * rows))
    atoms = random_unit_dictionary(rng, rows, cols)
    mixtures = atoms[:, rng.integers(0, cols, size=(3, 20))]  # (M, 3, 20)
    signals = np.vstack([
        np.einsum("mjb,jb->bm", mixtures, rng.random((3, 20))),
        rng.standard_normal((20, rows)),
    ])
    calls = spy_nnls_gram(monkeypatch)
    seen = assert_only_failing_rows_enter_lawson_hanson(
        calls, atoms, signals, min(rows, 4))
    assert seen["zero_positive"] > 0
