"""Exception types shared across the package: one class per kind of fault, whichever call it enters through."""


class ErgokitError(ValueError):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(ErgokitError):
    """Operands have incompatible shapes, or vectors compared have different lengths."""


class NotHermitian(ErgokitError):
    """Matrix fails the Hermitian symmetry tolerance."""


class NotUnitary(ErgokitError):
    """Matrix fails the unitarity tolerance."""


class NonFinite(ErgokitError):
    """Input contains NaN or Inf entries."""


class InvalidState(ErgokitError):
    """Operator or vector is not a (normalisable) quantum state."""


class NotStochastic(ErgokitError):
    """Matrix or vector fails the nonnegativity or unit-sum tolerance."""


class InvalidPovm(ErgokitError):
    """Elements are not positive or do not sum to the identity, or a post-processing has a negative weight. A zero
    element is valid: the estimate gives an outcome of volume below TOL no weight."""


class PreconditionFailed(ErgokitError):
    """An argument is outside its documented range or set: an integer size, rank, seed or index out of range, an
    audit configuration, an unknown claim, random kind or sweep family, or a sweep grid that cannot be parsed."""


class InconsistentReport(ErgokitError):
    """Computed work quantities break a bound they satisfy in theory: a negative ergotropy."""


class ParseError(ErgokitError):
    """Instance file is not valid JSON."""


class ValidationError(ErgokitError):
    """Instance file parsed but violates the schema or a domain invariant."""
