"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each passing criterion prints one line to the real stdout (bypassing pytest
capture) so the run log always shows the per-criterion verdicts. Statistical
criteria use fixed seeds throughout, so results are reproducible bit for bit
on one platform.
"""

import time

import numpy as np
import pytest
from helpers import (
    cross_kernel,
    objective_value,
    particle_fd_gradient,
    per_particle_loss_grads,
    posterior,
    projection_residual_oracle,
    rel_err,
)

from dpkl import net
from dpkl.classify import fit_classifier, logits, predict_probs, SoftmaxHead
from dpkl.cli import main as cli_main
from dpkl.data import Dataset, normalize, synth_blobs, synth_regression
from dpkl.gp import gp_state_exact
from dpkl.kernels import (
    LatentKernelSpec,
    empirical_kernel_exact,
    rff_feature_matrix,
    sample_rff_basis,
)
from dpkl.linalg import cholesky
from dpkl.trainer import (
    AdamState,
    TrainConfig,
    TrainData,
    fit,
    functional_gradient_step,
    predict_regression,
    _rff_basis_for,
)

SPEC = LatentKernelSpec()


@pytest.fixture
def verdict(capfd):
    """Verdict printer that bypasses output capture, one line per criterion."""

    def _print(num: int, name: str) -> None:
        with capfd.disabled():
            print(f"ACCEPTANCE CRITERION {num:02d} ({name}): PASS", flush=True)

    return _print


def _spearman(x, y) -> float:
    from scipy.stats import spearmanr

    return float(spearmanr(x, y).statistic)


# ---------------------------------------------------------------------------
# 1. gradient fidelity gate
# ---------------------------------------------------------------------------


def test_criterion_01_gradient_fidelity(verdict):
    """Per-particle analytic gradients match finite differences to 1e-4."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    X = rng.uniform(0, 1, size=(6, 3))
    y = rng.normal(size=6)
    X_unl = rng.uniform(0, 1, size=(4, 3))

    worst = 0.0
    for mode, kernel_mode in [
        ("dpkl", "exact"), ("dpkl", "rff"), ("ssdpkl", "exact"), ("ssdpkl", "rff"),
    ]:
        cfg = TrainConfig(
            m=3, q=10, mode=mode, kernel_mode=kernel_mode, hidden_dims=(4,),
            latent_dim=2, seed=7, ssdpkl_alpha=1.0,
        )
        data = TrainData(X, y, X_unl if mode == "ssdpkl" else None)
        ensemble = net.init_ensemble(cfg.architecture(3), cfg.m, 42)
        basis = _rff_basis_for(cfg) if kernel_mode == "rff" else None
        grads = per_particle_loss_grads(ensemble, data, cfg, basis)
        for l in range(cfg.m):
            numeric = particle_fd_gradient(
                ensemble, l, lambda: objective_value(ensemble, data, cfg, basis), step=1e-5
            )
            worst = max(worst, rel_err(grads[l], numeric))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-4, f"worst relative error {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    verdict(1, f"gradient fidelity, worst rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# 2. projection-residual identity
# ---------------------------------------------------------------------------


def test_criterion_02_projection_residual_identity(verdict):
    """Gram-projection residual equals the noise-free posterior variance."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        n_l = int(rng.integers(3, 9))
        m = int(rng.integers(1, 5))
        embeddings = [2.0 * rng.normal(size=(n_l, 2)) for _ in range(m)]
        K = empirical_kernel_exact(SPEC, embeddings)
        query = [2.0 * rng.normal(size=(1, 2)) for _ in range(m)]
        k_star, k_ss = cross_kernel(SPEC, embeddings, query)

        state = gp_state_exact(K, rng.normal(size=n_l), noise_var=0.0, base_jitter=0.0)
        formula = posterior(state, k_star, k_ss).variance
        oracle = projection_residual_oracle(K, k_star, k_ss)
        worst = max(worst, abs(formula - oracle))
    assert worst < 1e-8, f"worst |formula - oracle| = {worst:.3e}"
    verdict(2, f"projection residual identity, worst abs err {worst:.2e}")


# ---------------------------------------------------------------------------
# 3. feature-map convergence
# ---------------------------------------------------------------------------


def test_criterion_03_rff_convergence(verdict):
    """R R^T approaches the exact kernel, monotonically in the feature count."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    embeddings = [rng.normal(size=(10, 2)) for _ in range(5)]
    K = empirical_kernel_exact(SPEC, embeddings)

    def mean_err(q):
        errs = []
        for seed in range(20):
            R = rff_feature_matrix(sample_rff_basis(SPEC, 2, q, seed), embeddings, SPEC)
            errs.append(np.max(np.abs(R @ R.T - K)))
        return float(np.mean(errs))

    err_2000 = mean_err(2000)
    curve = [mean_err(q) for q in (100, 400, 1600)]
    elapsed = time.perf_counter() - t0
    assert err_2000 < 0.05, f"mean max-entry error {err_2000:.4f} at q=2000"
    assert curve[0] >= curve[1] >= curve[2], f"not monotone: {curve}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    verdict(3, f"rff convergence, err(q=2000)={err_2000:.3f}, curve={np.round(curve, 3)}")


# ---------------------------------------------------------------------------
# 4. single-particle reduction to the deterministic baseline
# ---------------------------------------------------------------------------


def test_criterion_04_dkl_reduction_bitwise(verdict):
    """m=1 runs of the particle trainer and the dkl baseline are bit-identical."""
    ds = synth_regression("sine", n=50, D=1, noise_std=0.1, seed=11)
    lab_n, _, _ = normalize(Dataset(ds.X, ds.y))
    data = TrainData(lab_n.X, lab_n.y)

    trajectories = {}
    for mode in ("dpkl", "dkl"):
        cfg = TrainConfig(m=1, mode=mode, max_epochs=50, seed=3)
        snaps = []
        fit(data, cfg, trajectory_hook=lambda e, ens: snaps.append(ens.flat().tobytes()))
        trajectories[mode] = snaps
    assert len(trajectories["dpkl"]) == 51
    assert trajectories["dpkl"] == trajectories["dkl"]
    verdict(4, "dkl reduction, 50-epoch trajectories bitwise identical")


# ---------------------------------------------------------------------------
# 5 & 6. training progress and calibration direction on the sine benchmark
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def sine_trials():
    """Ten seeded sine runs at paper defaults (m=50, q=100, lr 1e-3, noise 0.1).

    The held-out set spans [0, 1.25] — slightly beyond the training support —
    so predictive variance has an extrapolation signal to rank.
    """
    t0 = time.perf_counter()
    trials = []
    for seed in range(10):
        lab_ds = synth_regression("sine", n=50, D=1, noise_std=0.1, seed=1000 + seed)
        rng = np.random.default_rng(2000 + seed)
        X_test = rng.uniform(0.0, 1.25, size=(60, 1))
        y_test = np.sin(2 * np.pi * X_test[:, 0]) + rng.normal(0, 0.1, size=60)
        lab_n, (test_n,), stats = normalize(
            Dataset(lab_ds.X, lab_ds.y), [Dataset(X_test, y_test)]
        )
        cfg = TrainConfig(max_epochs=200, seed=seed)
        trained, report = fit(TrainData(lab_n.X, lab_n.y), cfg)
        untrained, _ = fit(TrainData(lab_n.X, lab_n.y), TrainConfig(max_epochs=0, seed=seed))

        def rmse_and_calibration(ens):
            means_n, vars_n = predict_regression(
                ens, cfg.kernel_spec(), lab_n.X, lab_n.y, test_n.X, cfg.noise_var
            )
            sq_err = (stats.invert_y(means_n) - y_test) ** 2
            return float(np.sqrt(sq_err.mean())), vars_n, sq_err

        rmse_trained, variances, sq_err = rmse_and_calibration(trained)
        rmse_untrained, _, _ = rmse_and_calibration(untrained)
        trials.append(
            {
                "initial_nll": report.epochs[0].train_nll,
                "final_nll": report.final_train_nll,
                "rmse_trained": rmse_trained,
                "rmse_untrained": rmse_untrained,
                "spearman": _spearman(variances, sq_err),
            }
        )
    return trials, time.perf_counter() - t0


def test_criterion_05_training_progress(sine_trials, verdict):
    """NLL drops below 0.8x initial and beats the untrained model, 8+/10 seeds."""
    trials, elapsed = sine_trials
    good = sum(
        t["final_nll"] < 0.8 * t["initial_nll"] and t["rmse_trained"] < t["rmse_untrained"]
        for t in trials
    )
    assert good >= 8, f"only {good}/10 seeds improved"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    verdict(5, f"training progress, {good}/10 seeds, {elapsed:.0f}s")


def test_criterion_06_calibration_direction(sine_trials, verdict):
    """Predicted variance ranks squared error positively, 8+/10 seeds."""
    trials, _ = sine_trials
    positive = sum(t["spearman"] > 0.0 for t in trials)
    assert positive >= 8, f"positive correlation in only {positive}/10 trials"
    rhos = np.round([t["spearman"] for t in trials], 2)
    verdict(6, f"calibration direction, {positive}/10 positive, rhos={rhos}")


# ---------------------------------------------------------------------------
# 7. the semi-supervised regularizer does its job
# ---------------------------------------------------------------------------


def test_criterion_07_ssdpkl_variance_effect(verdict):
    """Pool variance after ssdpkl training is below dpkl's, 7+/10 trials.

    Compares the final-epoch models of both modes (same seeds), since the
    regularized objective is what explicitly minimizes the pool variance.
    """
    wins = 0
    per_trial = []
    for trial in range(10):
        ds = synth_regression("sine", n=220, D=1, noise_std=0.1, seed=3000 + trial)
        lab_n, _, stats = normalize(Dataset(ds.X[:20], ds.y[:20]))
        pool_n = stats.apply_x(ds.X[20:220])
        mean_var = {}
        for mode in ("dpkl", "ssdpkl"):
            cfg = TrainConfig(
                mode=mode, m=10, q=100, max_epochs=120, seed=trial,
                early_stop_check_every=120, ssdpkl_alpha=1.0,
            )
            data = TrainData(lab_n.X, lab_n.y, pool_n if mode == "ssdpkl" else None)
            final = {}
            fit(data, cfg, trajectory_hook=lambda e, ens: final.update(ens=ens))
            _, variances = predict_regression(
                final["ens"], cfg.kernel_spec(), lab_n.X, lab_n.y, pool_n, cfg.noise_var
            )
            mean_var[mode] = float(np.mean(variances))
        per_trial.append(mean_var)
        wins += mean_var["ssdpkl"] < mean_var["dpkl"]
    assert wins >= 7, f"ssdpkl lowered pool variance in only {wins}/10 trials: {per_trial}"
    verdict(7, f"ssdpkl variance effect, {wins}/10 trials")


# ---------------------------------------------------------------------------
# 8. classification toy task
# ---------------------------------------------------------------------------


def test_criterion_08_classification_toy(verdict):
    """Two-blob accuracy at m=5, plus the double-sum/product-of-means identity."""
    # score identity: the O(m^2) double sum equals the product of means
    rng = np.random.default_rng(4)
    for _ in range(10):
        m, n, d, C = int(rng.integers(1, 5)), 5, 2, 3
        embeddings = [rng.normal(size=(n, d)) for _ in range(m)]
        head = SoftmaxHead(C, [rng.normal(size=(C, d)) for _ in range(m)])
        fast = logits(head, embeddings)
        slow = np.zeros((n, C))
        for theta in head.thetas:
            for Z in embeddings:
                slow += Z @ theta.T
        slow /= m**2
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    hits = 0
    for seed in range(10):
        train = synth_blobs(C=2, n_per_class=50, d_in=2, separation=6.0, seed=4000 + seed)
        test = synth_blobs(C=2, n_per_class=50, d_in=2, separation=6.0, seed=5000 + seed)
        train_n, (test_n,), _ = normalize(
            Dataset(train.X, train.y), [Dataset(test.X, test.y)], normalize_labels=False
        )
        cfg = TrainConfig(m=5, max_epochs=100, seed=seed)
        ensemble, head, _ = fit_classifier(TrainData(train_n.X, train_n.y), cfg)
        probs = predict_probs(ensemble, head, test_n.X)
        accuracy = float(np.mean(probs.argmax(axis=1) == test_n.y.astype(int)))
        hits += accuracy >= 0.95
    assert hits >= 9, f"only {hits}/10 seeds reached 95% accuracy"
    verdict(8, f"classification toy, {hits}/10 seeds at >=95%")


# ---------------------------------------------------------------------------
# 9. end-to-end determinism of the command line
# ---------------------------------------------------------------------------


def test_criterion_09_cli_determinism(tmp_path, verdict):
    """Identical configs yield byte-identical CSVs, whatever the worker count."""
    import csv as csv_mod

    ds = synth_regression("sine", n=60, D=1, noise_std=0.1, seed=5)
    data = tmp_path / "sine.csv"
    with open(data, "w", newline="") as fh:
        w = csv_mod.writer(fh)
        w.writerow(["x0", "y"])
        for row, target in zip(ds.X, ds.y):
            w.writerow([row[0], target])

    fast = ["--m", "2", "--q", "8", "--max-epochs", "3", "--hidden-dims", "8"]

    def bench(out, workers):
        args = ["benchmark", "--data", str(data), "--target", "y", "--sizes", "14,18",
                "--trials", "2", "--modes", "dpkl,dkl", "--seed", "9", "--n-test", "20",
                "--workers", str(workers), "--out", str(out), *fast]
        assert cli_main(args) == 0
        return (out / "results.csv").read_bytes(), (out / "summary.csv").read_bytes()

    r1, s1 = bench(tmp_path / "w1", workers=1)
    r3, s3 = bench(tmp_path / "w3", workers=3)
    assert r1 == r3 and s1 == s3
    r1_again, s1_again = bench(tmp_path / "w1", workers=1)  # idempotent rerun
    assert r1_again == r1 and s1_again == s1

    def train_predict(out):
        assert cli_main(["train", "--data", str(data), "--target", "y",
                         "--n-labeled", "20", "--seed", "2", "--out", str(out), *fast]) == 0
        pred = out / "predictions.csv"
        assert cli_main(["predict", "--checkpoint", str(out / "checkpoint.json"),
                         "--data", str(data), "--out", str(pred)]) == 0
        return pred.read_bytes()

    assert train_predict(tmp_path / "t1") == train_predict(tmp_path / "t2")
    verdict(9, "cli determinism, results/predictions byte-identical")


# ---------------------------------------------------------------------------
# 10. kernel and trainer property sweep
# ---------------------------------------------------------------------------


def test_criterion_10_property_suite(verdict):
    """200 random ensembles: symmetry, factorizability, variance bounds,
    permutation invariance of the kernel and equivariance of the mixed update."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    for trial in range(200):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(2, 9))
        embeddings = [rng.normal(size=(n, 2)) for _ in range(m)]
        K = empirical_kernel_exact(SPEC, embeddings)
        assert np.array_equal(K, K.T)

        f = cholesky(K + 0.1 * np.eye(n), base_jitter=1e-8)
        assert f.jitter_used <= 1e-6

        y = rng.normal(size=n)
        state = gp_state_exact(K, y, noise_var=0.1)
        query = [rng.normal(size=(1, 2)) for _ in range(m)]
        k_star, k_ss = cross_kernel(SPEC, embeddings, query)
        p = posterior(state, k_star, k_ss)
        assert 0.0 <= p.variance <= k_ss + 1e-12

        perm = rng.permutation(m)
        K_perm = empirical_kernel_exact(SPEC, [embeddings[i] for i in perm])
        np.testing.assert_allclose(K, K_perm, atol=1e-12)

        if trial % 10 == 0:
            arch = net.MlpArchitecture(2, (4,), 2)
            cfg = TrainConfig(m=max(m, 2), hidden_dims=(4,), latent_dim=2)
            ens_a = net.init_ensemble(arch, cfg.m, trial)
            ens_b = net.ParticleEnsemble(arch, ens_a.flat().copy(), ens_a.seed)
            perm2 = list(rng.permutation(cfg.m))
            ens_b.flat()[:] = ens_b.flat()[perm2]
            grads = [rng.normal(size=arch.num_params) for _ in range(cfg.m)]
            functional_gradient_step(
                ens_a.flat(), np.stack(grads), AdamState.zeros(cfg.m, arch.num_params), cfg
            )
            functional_gradient_step(
                ens_b.flat(), np.stack([grads[i] for i in perm2]),
                AdamState.zeros(cfg.m, arch.num_params), cfg,
            )
            for out_pos, src in enumerate(perm2):
                np.testing.assert_allclose(
                    ens_b.flat()[out_pos],
                    ens_a.flat()[src],
                    atol=1e-10,
                )
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    verdict(10, f"property suite, 200 ensembles in {elapsed:.0f}s")
