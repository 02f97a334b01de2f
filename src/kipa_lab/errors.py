"""Exception and warning types shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 2, FitError -> 3,
DomainError -> 4.
"""


class KipaLabError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(KipaLabError):
    """Bad or missing configuration input (files, schema, references)."""


class FitError(KipaLabError):
    """A fit or data-extraction step failed."""


class RankError(FitError):
    """Design/normal matrix is rank deficient."""


class ExtractionError(FitError):
    """A figure of merit could not be extracted from the data."""


class DomainError(KipaLabError, ValueError):
    """Input outside the physical or mathematical domain of an operation.
    ``arg``, when given, names the argument at fault, so that a caller can
    name the input it came from."""

    def __init__(self, *args, arg=None):
        super().__init__(*args)
        self.arg = arg


class SingularityError(DomainError):
    """Evaluation too close to a pole or divergence."""


class InversionError(DomainError):
    """Requested value is outside the attainable range of a model inversion."""


class PhysicsWarning(UserWarning):
    """Operating point is allowed but physically suspect."""


class ConfigWarning(UserWarning):
    """Configuration is internally inconsistent or degenerate but usable."""
