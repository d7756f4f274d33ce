"""Exception hierarchy shared by the whole package.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
ModelError -> 4.
"""


class NodemendError(Exception):
    """Base class for all package errors."""


class ConfigError(NodemendError):
    """Bad or unparseable experiment configuration (unknown keys included)."""


class DataError(NodemendError):
    """Invalid input data or arguments."""


class InvalidArgument(DataError, ValueError):
    """Argument outside its documented domain."""


class SchemaViolation(DataError):
    """Signals or vectors incompatible with a feature schema."""


class MissingTruth(DataError):
    """Ground truth lacks a record of an event it is asked about."""


class InsufficientData(DataError):
    """Not enough rows to run the requested estimator."""


class DegenerateTreatment(DataError):
    """Dataset contains only one action, or all treatment residuals are zero."""


class ModelError(NodemendError):
    """Model persistence or compatibility failure."""


class ModelVersionError(ModelError):
    """Model file written by an incompatible format version."""


class ModelIntegrityError(ModelError):
    """Model file is corrupt (checksum or structure mismatch)."""
