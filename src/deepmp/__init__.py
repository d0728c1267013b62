"""Non-negative greedy sparse decomposition and its trained unfolded variant.

The root exports the README quick start's names; every other name is
imported from its module (``deepmp.solvers``, ``deepmp.training`` and so on).
"""

from .datagen import MixtureConfig, generate_synthetic_dictionary, sample_mixture
from .metrics import hamming_complement
from .network import forward_infer
from .solvers import nnmp_solve
from .training import train_model

__all__ = [
    "MixtureConfig",
    "forward_infer",
    "generate_synthetic_dictionary",
    "hamming_complement",
    "nnmp_solve",
    "sample_mixture",
    "train_model",
]
