"""GP regression and softmax classification over latent probability
distributions produced by particle ensembles of neural networks, trained by
kernel-weighted functional gradient descent on the GP marginal likelihood."""

__version__ = "0.1.0"

from .classify import fit_classifier
from .trainer import TrainConfig, TrainData, fit

__all__ = ["__version__", "TrainConfig", "TrainData", "fit", "fit_classifier"]
