"""Exception hierarchy shared across the package. An error's class is its
category, which names the CLI's exit code: a ``ParameterError`` exits 1, a
``DataError`` (like an ``OSError``) 2, and any other ``ReviewFuseError`` 3."""


class ReviewFuseError(Exception):
    """Base class for all package errors."""


class DataError(ReviewFuseError):
    """Base class of the faults in an input file or the data read from it."""


class DimensionError(ReviewFuseError, ValueError):
    """Tensor/image shapes incompatible with the requested operation."""


class ParameterError(ReviewFuseError, ValueError):
    """A hyperparameter or argument outside its valid range."""


class ContractError(ReviewFuseError, ValueError):
    """A call violated an API contract (non-scalar backward root, mismatched lengths, ...)."""


class TokenIndexError(DataError, IndexError):
    """Token id outside the vocabulary/table range."""


class LabelError(DataError, ValueError):
    """Class label outside {0, 1}."""


class FormatError(DataError, ValueError):
    """Malformed binary file (PPM image, model bundle)."""


class ManifestError(DataError, ValueError):
    """Malformed dataset CSV manifest."""


class AlignmentError(DataError, ValueError):
    """Samples reference image files that do not exist."""


class SplitError(DataError, ValueError):
    """Dataset cannot be split as requested."""


class TrainingDivergenceError(ReviewFuseError, RuntimeError):
    """Loss became NaN/Inf during training."""
