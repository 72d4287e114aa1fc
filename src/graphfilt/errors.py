"""Exception hierarchy for the graphfilt package.

Every failure mode raised by the library derives from GraphFiltError so
callers (and the CLI) can map error classes to exit codes.
"""


class GraphFiltError(Exception):
    """Base class for all graphfilt errors."""


class ParameterError(GraphFiltError):
    """Invalid argument value (orders, probabilities, grid sizes, ...)."""


class DimensionError(GraphFiltError):
    """Shape or length mismatch between operands."""


class CsvParseError(GraphFiltError):
    """Malformed CSV input; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DegenerateDistanceError(ParameterError):
    """Duplicate coordinates make the k-NN weight formula ill-defined."""


class ZeroNormError(GraphFiltError):
    """Adjacency matrix has no usable normalization constant."""


class ZeroDegreeError(GraphFiltError):
    """Isolated node encountered where a positive degree is required."""


class NonDiagonalizableError(GraphFiltError):
    """Eigendecomposition failed to reconstruct the operator."""


class ConjugateSymmetryError(GraphFiltError):
    """Data violates the conjugate-pair structure required for real filters."""


class InstabilityError(GraphFiltError):
    """Denominator polynomial vanishes at (or too close to) a design frequency."""

    def __init__(self, message: str, offending=None, history=None):
        super().__init__(message)
        self.offending = offending
        self.history = history


class SingularSystemError(GraphFiltError):
    """Linear system matrix is singular (or a component has no observations)."""


class DivergenceError(GraphFiltError):
    """Iterative solver residual grew persistently; carries the trace."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace
