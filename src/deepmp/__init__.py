"""Non-negative greedy sparse decomposition and its trained unfolded variant.

Public surface: core types and the dictionary validator, the NNMP/NNOMP
reference solvers, the unfolded DeepMP model with training utilities, the
AdaBound optimizer, data generation, and the evaluation metrics.
"""

from .datagen import (
    MixtureConfig,
    Mixtures,
    generate_raman_surrogate,
    generate_synthetic_dictionary,
    load_raman_library,
    sample_mixture,
)
from .metrics import (
    MetricsReport,
    coherence,
    coherence_ecdf,
    epsilon_error,
    hamming_complement,
    run_sweep,
)
from .network import (
    TrainingBatch,
    UnfoldedModel,
    batched_infer,
    build_training_batch,
    forward_infer,
    init_from_dictionary,
    load_model,
    loss_and_gradient,
    save_model,
)
from .optim import AdaBoundHyper, AdaBoundState, adabound_step, init_adabound
from .solvers import (
    ProjectionMode,
    PursuitResult,
    hard_max_pursuit,
    nnls_active_set,
    nnmp_solve,
    nnomp_pursuit,
    nnomp_solve,
)
from .training import train_model
from .types import (
    Dictionary,
    Sample,
    load_dictionary_csv,
    save_dictionary_csv,
    validate_dictionary,
)

__all__ = [
    "AdaBoundHyper",
    "AdaBoundState",
    "Dictionary",
    "MetricsReport",
    "MixtureConfig",
    "Mixtures",
    "ProjectionMode",
    "PursuitResult",
    "Sample",
    "TrainingBatch",
    "UnfoldedModel",
    "adabound_step",
    "batched_infer",
    "build_training_batch",
    "coherence",
    "coherence_ecdf",
    "epsilon_error",
    "forward_infer",
    "generate_raman_surrogate",
    "generate_synthetic_dictionary",
    "hamming_complement",
    "hard_max_pursuit",
    "init_adabound",
    "init_from_dictionary",
    "load_dictionary_csv",
    "load_model",
    "load_raman_library",
    "loss_and_gradient",
    "nnls_active_set",
    "nnmp_solve",
    "nnomp_pursuit",
    "nnomp_solve",
    "run_sweep",
    "sample_mixture",
    "save_dictionary_csv",
    "save_model",
    "train_model",
    "validate_dictionary",
]
