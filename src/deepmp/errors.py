"""Exception hierarchy.

Two families matter for the CLI: InputError maps to exit code 2 (bad input,
file, or configuration) and NumericalError maps to exit code 1 (a computation
failed at runtime).
"""


class DeepMPError(Exception):
    """Base class for all package errors."""


class InputError(DeepMPError):
    """Invalid user input, file, or configuration."""


class NumericalError(DeepMPError):
    """A computation failed numerically at runtime."""


# -- dictionary / signal validation ----------------------------------------

class NotOvercomplete(InputError):
    """Dictionary must have strictly more atoms than signal dimensions."""


class NegativeEntry(InputError):
    """Dictionary entries must be non-negative."""


class NotNormalized(InputError):
    """A dictionary column norm deviates from 1 by more than the tolerance."""


class DimensionMismatch(InputError):
    """Array shapes do not agree with the dictionary or model."""


class EmptyInput(InputError):
    """An operation received an empty vector or list."""


class NonFiniteSignal(InputError):
    """A signal contains NaN or infinite entries."""


class OutOfRange(InputError):
    """A numeric argument lies outside its documented range."""


# -- solvers ----------------------------------------------------------------

class MaxIterationsExceeded(NumericalError):
    """Active-set NNLS failed to terminate within its iteration cap."""


# -- network / training -------------------------------------------------------

class SparsityMismatch(InputError):
    """Sample sparsity does not equal the model depth."""


class EmptyBatch(InputError):
    """Training batch contains no samples."""


class ShapeMismatch(InputError):
    """Optimizer state, parameters, and gradients disagree in shape."""


class NonFiniteGradient(NumericalError):
    """A gradient contains NaN or infinite entries."""


class NonFiniteLoss(NumericalError):
    """Training loss became NaN or infinite."""


# -- data generation / files --------------------------------------------------

class DegenerateColumn(NumericalError):
    """A generated or loaded column is identically zero."""


class ParseError(InputError):
    """A file could not be parsed in the expected format."""


class EmptyLibrary(InputError):
    """A spectra library file contains no data."""


# -- evaluation ---------------------------------------------------------------

class ZeroSparsity(InputError):
    """A sparsity level, pursuit budget or network depth is below 1."""


class ZeroSignal(InputError):
    """Relative reconstruction error is undefined for zero signals."""


class ZeroColumn(InputError):
    """Coherence is undefined when a column is identically zero."""


class MissingModel(InputError):
    """A trained model was requested for a sparsity level that has none."""


class ConfigError(InputError):
    """Run configuration file is malformed or contains unknown keys."""
