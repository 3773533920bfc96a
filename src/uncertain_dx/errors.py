"""Exception hierarchy shared across the package.

Two branches matter to callers: InputError covers bad files, bad
references, and bad configuration (the CLI exits 2), while
InferenceError covers failures that arise during belief computation on
otherwise valid inputs (the CLI exits 3).
"""


class UncertainDxError(Exception):
    """Base class for all package-specific errors."""


class InputError(UncertainDxError):
    """Invalid input data or configuration."""


class InferenceError(UncertainDxError):
    """Inference could not produce a usable belief distribution."""


class FileFormatError(InputError):
    """A data file could not be parsed; the message carries the location."""


class ValidationError(InputError):
    """Semantic validation failed.

    Carries the full list of violations so callers can report all
    problems at once instead of the first one found.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class UnknownObservation(InputError):
    """An observation references a feature or value not in the knowledge base."""


class UnknownDisease(InputError):
    """A disease id does not exist in the knowledge base."""


class ConflictingObservations(InputError):
    """A case observes more than one value for the same feature."""


class UnmappedDisease(InputError):
    """A disease has no equivalence class in the utility model."""


class NonpositiveValueOfLife(InputError):
    """The small-risk value of life must be strictly positive."""


class MissingTrueDiagnosis(InputError):
    """Case weighting requires a true diagnosis on every case."""


class MissingGoldStandard(InputError):
    """The selected gold-standard distribution is absent from a case."""


class MissingRatings(InputError):
    """An expert rating is absent for a rated method on some case."""


class AllHypothesesRuledOut(InferenceError):
    """Every disease received zero belief; renormalization is undefined."""


class DegeneratePrior(InferenceError):
    """A prior of 1 leaves no probability mass on the negation."""


class ZeroMarginal(InferenceError):
    """An observation has zero marginal probability under the knowledge base."""


class EmptyEvidence(InferenceError):
    """The method requires at least one observation."""


class LinearityRangeExceeded(UserWarning):
    """A money/risk trade was converted outside the small-risk linear range."""
