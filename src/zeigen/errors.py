"""Exception types raised by the zeigen package."""


class ZeigenError(Exception):
    """Base class for all zeigen errors."""


class TensorFormatError(ZeigenError, ValueError):
    """A tensor text file could not be parsed; the message names the line."""


class NegativeEntry(ZeigenError, ValueError):
    """A tensor entry is negative (only nonnegative tensors are supported)."""


class IndexOutOfRange(ZeigenError, ValueError):
    """A tensor index lies outside [1, n]."""


class DuplicateIndexTuple(ZeigenError, ValueError):
    """The same index tuple appears more than once in a tensor definition."""


class BadArity(ZeigenError, ValueError):
    """An index tuple does not have exactly m indices."""


class DimensionMismatch(ZeigenError, ValueError):
    """Vector or matrix dimensions are inconsistent with the tensor."""


class ZeroVector(ZeigenError, ValueError):
    """A vector that must be nonzero is zero."""


class NegativeInput(ZeigenError, ValueError):
    """A vector that must be nonnegative has negative components."""


class _DiagnosedError(ZeigenError):
    """An error that carries the solver's ``diagnostics`` (None if none)."""

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class SingularShift(_DiagnosedError):
    """The shifted matrix (lambda*I - T) is singular or nearly singular."""


class SingularBordered(_DiagnosedError):
    """The bordered matrix [[lambda*I - T, x], [e^T, 0]] is singular or
    nearly singular."""


class PerturbationExhausted(_DiagnosedError):
    """No usable shift or step: every shift perturbation in the schedule
    still left the matrix singular, or a scheme gave up on a singular
    system; a solver run it ends reports ``perturbation_exhausted``."""


class ProjectionEmpty(ZeigenError):
    """A vector with no positive components cannot be projected onto the
    simplex."""


class InsufficientData(ZeigenError):
    """Too few usable points to fit a convergence order."""
