"""Exception hierarchy shared across the package."""


class VizSampleError(Exception):
    """Base class for all vizsample errors."""


class ZeroExtentError(VizSampleError):
    """All points coincide; no bandwidth can be derived."""


class ExtentRangeError(VizSampleError):
    """The data's extent is outside what a float64 bandwidth can express."""


class EmptyIndexError(VizSampleError):
    """A query requires a non-empty spatial index."""


class KTooLargeError(VizSampleError):
    """Requested sample size exceeds the dataset size."""


class EmptyDatasetError(VizSampleError):
    """The dataset contains no points."""


class InsufficientDataError(VizSampleError):
    """Too few data points: bin capacities below the sample size, or fewer
    than two points for a weight matrix."""


class BudgetExceededError(VizSampleError):
    """Exhaustive enumeration would exceed the configured subset budget."""


class NoEdgesError(VizSampleError):
    """The input graph has no edges."""


class LossRangeError(VizSampleError):
    """The dataset's own loss is infinite in float64, so no loss ratio exists."""


class DomainRejectionError(VizSampleError):
    """Rejection sampling acceptance rate fell below the safety floor."""


class EmptySampleError(VizSampleError):
    """An operation requires a non-empty sample."""


class ParseError(VizSampleError):
    """A CSV line could not be parsed."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class EmptyFileError(VizSampleError):
    """The input file contains no data rows."""


class NonFiniteInputError(VizSampleError):
    """Input coordinates contain NaN or infinity."""
