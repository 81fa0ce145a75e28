"""Acceptance suite: one test per criterion, each printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The heterogeneity
benchmark (criteria 7-10) runs three full 100-round simulations plus the
plain-averaging reference and takes a few minutes; everything else is fast.
"""

import dataclasses
import time

import numpy as np
import pytest

from kdia import aggregate, freqs, generator, harness, nn, orchestrator, trainer
from kdia.config import heterogeneity_benchmark_config
from kdia.gradcheck import run_suite


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --------------------------------------------------------------------------
# criterion 1: weight laws over randomized ledger states


def test_01_weight_law_suite():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    for _ in range(500):
        n = int(rng.integers(4, 101))
        k = int(rng.integers(1, n + 1))
        n_rounds = int(rng.integers(1, 41))
        sizes = rng.integers(1, 500, size=n)
        ledger = freqs.ClientLedger(sizes)
        selected = None
        for t in range(n_rounds):
            selected = rng.choice(n, size=k, replace=False)
            ledger.record_round(selected, t)
        w = freqs.round_weights(ledger, sorted(selected), n_rounds - 1, "tri-gm")
        assert (w.interval > 0.0).all()
        if k < n:
            assert (w.interval < 1.0 / k).all()
        else:
            # all clients selected: the bound collapses to exact equality
            assert np.abs(w.interval - 1.0 / k).max() < 1e-15
        for vec in (w.interval, w.volume, w.teacher, w.student, w.participation):
            assert abs(vec.sum() - 1.0) < 1e-9
        assert (w.teacher[ledger.part_counts == 0] == 0.0).all()
    elapsed = time.time() - t0
    report(
        1,
        elapsed < 5.0,
        f"500 random ledger states: interval bound, weight sums, zero weight "
        f"for never-participated clients; {elapsed:.2f}s (< 5s)",
    )


# --------------------------------------------------------------------------
# criterion 2: finite-difference gradient suite


def test_02_gradient_suite():
    t0 = time.time()
    worst = run_suite(instances=50, seed=7)
    elapsed = time.time() - t0
    layer_ok = worst["dense"] < 1e-4 and worst["relu"] < 1e-4
    loss_ok = all(worst[n] < 1e-5 for n in ("softmax-ce", "kd", "div"))
    report(
        2,
        layer_ok and loss_ok and elapsed < 30.0,
        "50 instances each, max rel errors "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + f"; {elapsed:.1f}s (< 30s)",
    )


# --------------------------------------------------------------------------
# criterion 3: KL and CE distillation forms share one gradient


def kl_form_grad(student_logits, teacher_logits, tau):
    """KL-divergence gradient via the explicit softmax Jacobian chain."""
    p = nn.softmax(teacher_logits, tau)
    q = nn.softmax(student_logits, tau)
    n = student_logits.shape[0]
    d_loss_d_q = -(p / q) / n
    grad = np.zeros_like(student_logits)
    for r in range(n):
        jac = (np.diag(q[r]) - np.outer(q[r], q[r])) / tau
        grad[r] = jac @ d_loss_d_q[r]
    return grad


def test_03_kl_ce_equivalence():
    rng = np.random.default_rng(11)
    worst = 0.0
    for tau in (1.0, 2.0, 5.0):
        for _ in range(100):
            s = rng.normal(scale=2.0, size=(5, 6))
            t = rng.normal(scale=2.0, size=(5, 6))
            _, ce_grad = trainer.kd_loss(s, t, tau, 1.0)
            worst = max(worst, np.abs(ce_grad - kl_form_grad(s, t, tau)).max())
    report(
        3,
        worst < 1e-10,
        f"CE-form vs KL-form gradients over 100 pairs x tau in {{1,2,5}}: "
        f"max abs diff {worst:.2e} (< 1e-10)",
    )


# --------------------------------------------------------------------------
# criterion 4: aggregation against the scalar-loop oracle


def scalar_loop_aggregate(models, weights):
    layers = []
    for li in range(len(models[0].layers)):
        w0, b0 = models[0].layers[li]
        w_out = np.zeros_like(w0)
        b_out = np.zeros_like(b0)
        for r in range(w0.shape[0]):
            for c in range(w0.shape[1]):
                acc = 0.0
                for m, wt in zip(models, weights):
                    acc += wt * m.layers[li][0][r, c]
                w_out[r, c] = acc
        for j in range(b0.shape[0]):
            acc = 0.0
            for m, wt in zip(models, weights):
                acc += wt * m.layers[li][1][j]
            b_out[j] = acc
        layers.append((w_out, b_out))
    return nn.ModelParams(layers, models[0].split_index)


def test_04_aggregation_oracle():
    rng = np.random.default_rng(13)
    worst = 0.0
    for i in range(100):
        n_models = int(rng.integers(2, 7))
        models = [
            nn.he_uniform_init([3, 4, 2], 1, np.random.default_rng(1000 * i + j))
            for j in range(n_models)
        ]
        raw = rng.uniform(0.05, 1.0, size=n_models)
        weights = raw / raw.sum()
        fast = aggregate.weighted_aggregate(models, weights)
        slow = scalar_loop_aggregate(models, weights)
        for (fw, fb), (sw, sb) in zip(fast.layers, slow.layers):
            worst = max(worst, np.abs(fw - sw).max(), np.abs(fb - sb).max())
    # identical-model fixed point
    model = nn.he_uniform_init([3, 4, 2], 1, np.random.default_rng(9))
    out = aggregate.weighted_aggregate([model] * 4, [0.1, 0.2, 0.3, 0.4])
    fixed = max(
        np.abs(w - ow).max()
        for (w, _), (ow, _) in zip(model.layers, out.layers)
    )
    report(
        4,
        worst < 1e-12 and fixed < 1e-15,
        f"100 random sets vs scalar loop: max |diff| {worst:.2e} (< 1e-12); "
        f"fixed point {fixed:.2e} (< 1e-15)",
    )


# --------------------------------------------------------------------------
# criteria 7-10 share three full benchmark runs


@pytest.fixture(scope="module")
def benchmark_runs():
    runs = []
    t0 = time.time()
    for seed in (0, 1, 2):
        cfg = heterogeneity_benchmark_config(seeds=(seed,))
        result = orchestrator.run_experiment(cfg, master_seed=seed)
        reference = orchestrator.fedavg_reference(cfg, master_seed=seed)
        runs.append((seed, cfg, result, reference))
    return runs, time.time() - t0


# --------------------------------------------------------------------------
# criterion 5: exact degeneration to plain federated averaging


def test_05_fedavg_degeneration():
    cfg = heterogeneity_benchmark_config(seeds=(0,))
    cfg = dataclasses.replace(
        cfg,
        rounds=20,
        disable_kd=True,
        disable_gen=True,
        kd_weight=0.0,
        gen_weight=0.0,
    )
    state = orchestrator.build_state(cfg, master_seed=0)
    ours = []
    for t in range(cfg.rounds):
        orchestrator.run_round(state, t)
        ours.append(state.student.copy())
    ref = orchestrator.fedavg_reference(cfg, master_seed=0)
    identical = all(
        nn.params_equal(mine, theirs)
        for mine, theirs in zip(ours, ref.round_models)
    )
    report(
        5,
        identical,
        "20 disabled-protocol rounds match the reference student parameters "
        "bit for bit",
    )


# --------------------------------------------------------------------------
# criterion 6: label-pool uniformity


def test_06_label_pool_uniformity():
    pool = generator.sample_label_pool(12800, 10, seed=123)
    counts = np.bincount(pool, minlength=10)
    chi2 = float(((counts - 1280.0) ** 2 / 1280.0).sum())
    devs = {64: [], 12800: []}
    for length in devs:
        for seed in range(20):
            p = generator.sample_label_pool(length, 10, seed=seed)
            freq = np.bincount(p, minlength=10) / length
            devs[length].append(np.abs(freq - 0.1).max())
    monotone = np.mean(devs[12800]) < np.mean(devs[64])
    report(
        6,
        chi2 < 27.88 and monotone,
        f"chi-square {chi2:.2f} (< 27.88 at p>0.001, 9 dof); mean max deviation "
        f"{np.mean(devs[12800]):.4f} @12800 < {np.mean(devs[64]):.4f} @64",
    )


# --------------------------------------------------------------------------
# criterion 7: heterogeneity benefit


@pytest.mark.slow
def test_07_heterogeneity_benefit(benchmark_runs):
    runs, elapsed = benchmark_runs
    teacher_best, student_best, fedavg_best = [], [], []
    for _, _, result, reference in runs:
        teacher_best.append(max(r.teacher_acc for r in result.metrics))
        student_best.append(max(r.student_acc for r in result.metrics))
        fedavg_best.append(max(reference.accuracies))
    gap = float(np.mean(teacher_best) - np.mean(fedavg_best))
    t_ge_s = sum(t >= s for t, s in zip(teacher_best, student_best))
    report(
        7,
        gap >= 0.02 and t_ge_s >= 2 and elapsed < 900.0,
        f"mean best teacher {np.mean(teacher_best):.4f} vs mean best plain "
        f"averaging {np.mean(fedavg_best):.4f} (gap {100 * gap:+.2f}pp, need "
        f">= +2pp); teacher >= student in {t_ge_s}/3 seeds; runs took "
        f"{elapsed:.0f}s (< 900s)",
    )


# --------------------------------------------------------------------------
# criterion 8: teacher convergence is smoother


@pytest.mark.slow
def test_08_teacher_smoothness(benchmark_runs):
    runs, _ = benchmark_runs
    smoother = 0
    details = []
    for seed, _, result, _ in runs:
        ta = np.array([r.teacher_acc for r in result.metrics])
        sa = np.array([r.student_acc for r in result.metrics])
        dv_t = float(np.diff(ta).var())
        dv_s = float(np.diff(sa).var())
        smoother += dv_t <= dv_s
        details.append(f"seed {seed}: {dv_t:.5f} vs {dv_s:.5f}")
    report(
        8,
        smoother >= 2,
        f"round-delta variance teacher <= student in {smoother}/3 seeds "
        f"({'; '.join(details)})",
    )


# --------------------------------------------------------------------------
# criterion 9: weight-variance dynamics


@pytest.mark.slow
def test_09_variance_dynamics(benchmark_runs):
    runs, _ = benchmark_runs
    ok = True
    details = []
    for seed, _, result, _ in runs:
        v_num = [r.var_f_num for r in result.metrics]
        v_part = [r.var_f_part for r in result.metrics]
        constant = len(set(v_num)) == 1
        decayed = v_part[99] < v_part[9]
        ok &= constant and decayed
        details.append(
            f"seed {seed}: var_f_num constant={constant}, "
            f"var_f_part {v_part[9]:.5f}@r10 -> {v_part[99]:.5f}@r100"
        )
    report(9, ok, "; ".join(details))


# --------------------------------------------------------------------------
# criterion 10: byte-for-byte determinism


@pytest.mark.slow
def test_10_determinism(benchmark_runs, tmp_path):
    runs, _ = benchmark_runs
    seed, cfg, first_result, _ = runs[0]
    second_result = orchestrator.run_experiment(cfg, master_seed=seed)
    path_a = tmp_path / "run_a.csv"
    path_b = tmp_path / "run_b.csv"
    harness.write_metrics(first_result.metrics, path_a)
    harness.write_metrics(second_result.metrics, path_b)
    identical = path_a.read_bytes() == path_b.read_bytes()
    report(
        10,
        identical,
        f"two serial runs of seed {seed} wrote byte-identical metrics CSVs "
        f"({path_a.stat().st_size} bytes)",
    )
