"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test records a PASS/FAIL line (printed in the terminal summary) before
asserting, so a red criterion still reports its measured numbers.
"""

import itertools

import numpy as np
import pytest

from deepmp.cli import main as cli_main
from deepmp.datagen import MixtureConfig, generate_synthetic_dictionary, sample_mixture
from deepmp.metrics import (
    coherence,
    coherence_ecdf,
    deepmp_runner,
    hamming_complement,
    nnmp_runner,
    nnomp_runner,
    run_sweep,
)
from deepmp.network import (
    UnfoldedModel,
    build_training_batch,
    forward_infer,
    init_from_dictionary,
    loss_and_gradient,
)
from deepmp.solvers import ProjectionMode, nnls_active_set, nnmp_solve
from deepmp.training import train_model
from deepmp.types import validate_dictionary

DICT_SEED = 20240801
TRAIN_SEED = 11
EVAL_SEED = 909


def check(log, number, name, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    log.append(f"criterion {number} ({name}): {status}{suffix}")
    assert condition, f"criterion {number} ({name}) failed{suffix}"


@pytest.fixture(scope="session")
def reference_dictionary():
    return generate_synthetic_dictionary(30, 200, seed=DICT_SEED)


@pytest.fixture(scope="session")
def trained_models(reference_dictionary):
    """One model per sparsity level, trained at the criterion-5 recipe:
    15000 mixtures (0.1 scale), AdaBound lr 1e-3 / final_lr 0.1, 20 epochs."""
    models = {}
    for k in range(1, 6):
        model, _ = train_model(
            reference_dictionary, k, 15000, epochs=20, batch_size=128,
            seed=TRAIN_SEED,
        )
        models[k] = model
    return models


@pytest.fixture(scope="session")
def sweep_reports(reference_dictionary, trained_models):
    solvers = {
        "nnmp": nnmp_runner(reference_dictionary),
        "nnomp": nnomp_runner(reference_dictionary),
        "deepmp": deepmp_runner(trained_models),
    }
    return run_sweep(reference_dictionary, solvers, range(1, 6),
                     num_test=2000, seed=EVAL_SEED)


def test_criterion_1_init_equivalence_bitwise(acceptance_log):
    rng = np.random.default_rng(1)
    mismatches = 0
    for _ in range(1000):
        d = generate_synthetic_dictionary(30, 200, seed=rng.integers(2**63))
        budget = int(rng.integers(1, 6))
        if rng.random() < 0.5:
            k = int(rng.integers(1, 6))
            idx = rng.choice(200, size=k, replace=False)
            y = d.atoms[:, idx] @ (1.0 - rng.random(k))
        else:
            y = np.abs(rng.standard_normal(30))
        model = init_from_dictionary(d, budget)
        a = forward_infer(model, y)
        b = nnmp_solve(d, y, budget)
        if not (np.array_equal(a.support, b.support)
                and np.array_equal(a.code, b.code)):
            mismatches += 1
    check(acceptance_log, 1, "init equivalence, bit-for-bit",
          mismatches == 0, f"{mismatches}/1000 mismatches")


def test_criterion_2_gradient_oracle(acceptance_log):
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        d = generate_synthetic_dictionary(6, 15, seed=rng.integers(2**63))
        depth = int(rng.integers(1, 4))
        weights = d.atoms + 0.3 * rng.standard_normal((depth, 6, 15))
        model = UnfoldedModel(selection_weights=weights, update_dict=d)
        samples = sample_mixture(
            d, MixtureConfig(sparsity=depth, num_samples=5,
                             seed=rng.integers(2**63)),
        )
        batch = (samples.signals,
                 build_training_batch(model, samples.signals, samples.supports))
        _, grads = loss_and_gradient(model, *batch)
        h = 1e-5
        for k in range(depth):
            w = model.selection_weights[k]
            fd = np.zeros_like(w)
            for i in range(6):
                for j in range(15):
                    orig = w[i, j]
                    w[i, j] = orig + h
                    up, _ = loss_and_gradient(model, *batch)
                    w[i, j] = orig - h
                    down, _ = loss_and_gradient(model, *batch)
                    w[i, j] = orig
                    fd[i, j] = (up - down) / (2 * h)
            denom = np.maximum(np.maximum(np.abs(grads[k]), np.abs(fd)), 1e-5)
            worst = max(worst, float((np.abs(grads[k] - fd) / denom).max()))
    check(acceptance_log, 2, "analytic gradient vs finite differences",
          worst < 1e-4, f"max relative error {worst:.3g}")


def test_criterion_3_metric_oracles(acceptance_log):
    rng = np.random.default_rng(3)
    ok = True
    # hamming vs set-arithmetic oracle
    for _ in range(200):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, n + 1))
        truth = rng.choice(n, size=k, replace=False)
        acquired = rng.choice(n, size=k, replace=True)
        oracle = len(set(acquired.tolist()) & set(truth.tolist())) / k
        ok &= abs(hamming_complement(acquired, truth, k) - oracle) <= 1e-12
    # coherence and ECDF vs brute-force pair enumeration
    for _ in range(50):
        cols = int(rng.integers(2, 13))
        m = rng.standard_normal((int(rng.integers(3, 10)), cols))
        pairs = []
        for i, j in itertools.combinations(range(cols), 2):
            num = abs(float(m[:, i] @ m[:, j]))
            den = np.linalg.norm(m[:, i]) * np.linalg.norm(m[:, j])
            pairs.append(min(num / den, 1.0))
        ok &= abs(coherence(m) - max(pairs)) <= 1e-12
        grid = np.linspace(0, 1, 17)
        for t, fraction in coherence_ecdf(m, grid=grid):
            expected = sum(p <= t for p in pairs) / len(pairs)
            ok &= abs(fraction - expected) <= 1e-12
    check(acceptance_log, 3, "metric brute-force oracles", ok)


def test_criterion_4_nnls_kkt_and_oracle(acceptance_log):
    rng = np.random.default_rng(4)
    kkt_ok = True
    worst_gap = 0.0
    for _ in range(100):
        m = int(rng.integers(4, 16))
        n = int(rng.integers(1, min(m, 8)))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        x = nnls_active_set(a, b)
        grad = a.T @ (a @ x - b)
        kkt_ok &= bool(np.all(grad[x == 0.0] >= -1e-8))
        kkt_ok &= bool(np.all(np.abs(grad[x > 0.0]) <= 1e-8))
        step = 1.0 / np.linalg.norm(a, 2) ** 2
        z = np.zeros(n)
        for _ in range(200000):
            nxt = np.maximum(0.0, z - step * (a.T @ (a @ z - b)))
            if np.max(np.abs(nxt - z)) < 1e-15:
                z = nxt
                break
            z = nxt
        worst_gap = max(worst_gap, float(np.max(np.abs(x - z))))
    check(acceptance_log, 4, "NNLS KKT + projected-gradient oracle",
          kkt_ok and worst_gap < 1e-6, f"max oracle gap {worst_gap:.2g}")


def test_criterion_5_training_improves_recovery(acceptance_log, sweep_reports):
    nnmp = sweep_reports["nnmp"].recovery[3]
    nnomp = sweep_reports["nnomp"].recovery[3]
    deepmp = sweep_reports["deepmp"].recovery[3]
    detail = (f"k=3 recovery: nnmp {nnmp:.4f}, nnomp {nnomp:.4f}, "
              f"trained deepmp {deepmp:.4f}, margin {deepmp - nnmp:+.4f}")
    check(acceptance_log, 5, "training improves recovery by >= 0.03",
          deepmp >= nnmp + 0.03 and nnomp >= nnmp, detail)


def test_criterion_6_recovery_decays_with_sparsity(acceptance_log, sweep_reports):
    ok = True
    details = []
    for label, report in sweep_reports.items():
        decay_ok = report.recovery[5] <= report.recovery[1] + 0.02
        ok &= decay_ok
        details.append(f"{label} {report.recovery[1]:.3f}->{report.recovery[5]:.3f}")
    check(acceptance_log, 6, "recovery decays in k (slack 0.02)", ok,
          "; ".join(details))


def test_criterion_7_coherence_ecdf_curves(acceptance_log, reference_dictionary,
                                           trained_models):
    grid = np.linspace(0.0, 1.0, 200)
    base = coherence_ecdf(reference_dictionary.atoms, grid=grid)
    base_f = np.array([f for _, f in base])
    produced = base_f[-1] == 1.0 and np.all(np.diff(base_f) >= 0)
    dominated_layers = 0
    layers = trained_models[3].selection_weights
    for weights in layers:
        points = coherence_ecdf(weights, grid=grid)
        fractions = np.array([f for _, f in points])
        produced &= fractions[-1] == 1.0 and bool(np.all(np.diff(fractions) >= 0))
        if np.all(fractions >= base_f - 1e-12):
            dominated_layers += 1
    trend = (f"{dominated_layers}/{len(layers)} trained layers dominate the "
             f"dictionary ECDF (informative)")
    check(acceptance_log, 7, "coherence ECDF curves produced and monotone",
          bool(produced), trend)


def test_criterion_8_end_to_end_determinism(acceptance_log, tmp_path):
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        base = ["--seed", "5", "--out", str(out), "--k-range", "1-2",
                "--scale", "0.004"]
        for cmd in ("gen-dict", "gen-data", "train", "eval"):
            assert cli_main(base + [cmd]) == 0
        outputs.append(out)
    a, b = outputs
    same = True
    compared = ["dictionary.csv", "models/model_k1.dmp", "models/model_k2.dmp",
                "metrics.csv", "metrics.json"]
    for rel in compared:
        same &= (a / rel).read_bytes() == (b / rel).read_bytes()
    check(acceptance_log, 8, "byte-identical reruns", same,
          f"{len(compared)} artifacts compared")


def test_criterion_9_residual_monotonicity(acceptance_log):
    rng = np.random.default_rng(9)
    violations = 0
    for _ in range(10000):
        rows = int(rng.integers(5, 31))
        cols = int(rng.integers(rows + 1, 121))
        atoms = np.abs(rng.standard_normal((rows, cols)))
        atoms /= np.linalg.norm(atoms, axis=0)
        d = validate_dictionary(atoms)
        if rng.random() < 0.5:
            k = int(rng.integers(1, 6))
            idx = rng.choice(cols, size=min(k, cols), replace=False)
            y = d.atoms[:, idx] @ (1.0 - rng.random(len(idx)))
        else:
            y = np.abs(rng.standard_normal(rows))
        budget = int(rng.integers(1, 6))
        res = nnmp_solve(d, y, budget, ProjectionMode.POSITIVE_ORTHANT)
        if np.any(np.diff(res.residual_norm_path) > 1e-12):
            violations += 1
    check(acceptance_log, 9, "NNMP residual monotonicity",
          violations == 0, f"{violations}/10000 runs violated")
