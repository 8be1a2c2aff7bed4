"""GP regression and softmax classification over latent probability
distributions produced by particle ensembles of neural networks, trained by
kernel-weighted functional gradient descent on the GP marginal likelihood."""

__version__ = "0.1.0"

from .classify import SoftmaxHead, cross_entropy, fit_classifier, logits, softmax_probs
from .data import Dataset, SplitSpec, load_csv, normalize, split, synth_blobs, synth_regression
from .gp import GpState, gp_state_exact, gp_state_rff, nll, nll_grad_kernel
from .kernels import (
    LatentKernelSpec,
    RffBasis,
    empirical_kernel_exact,
    rff_feature_matrix,
    sample_rff_basis,
)
from .linalg import CholFactor, cholesky, logdet_chol, solve_chol
from .net import MlpArchitecture, ParticleEnsemble, init_ensemble
from .trainer import (
    RunReport,
    TrainConfig,
    TrainData,
    fit,
    functional_gradient_step,
    median_heuristic,
)

__all__ = [
    "__version__",
    "CholFactor", "cholesky", "solve_chol", "logdet_chol",
    "MlpArchitecture", "ParticleEnsemble", "init_ensemble",
    "LatentKernelSpec", "RffBasis",
    "empirical_kernel_exact", "sample_rff_basis", "rff_feature_matrix",
    "GpState", "gp_state_exact", "gp_state_rff", "nll", "nll_grad_kernel",
    "TrainConfig", "TrainData", "RunReport", "fit",
    "median_heuristic", "functional_gradient_step",
    "SoftmaxHead", "logits", "softmax_probs", "cross_entropy", "fit_classifier",
    "Dataset", "SplitSpec", "load_csv", "normalize", "split",
    "synth_regression", "synth_blobs",
]
