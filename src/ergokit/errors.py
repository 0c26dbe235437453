"""Exception types shared across the package."""


class ErgokitError(ValueError):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(ErgokitError):
    """Operands have incompatible shapes."""


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
    """Elements are not positive, do not sum to the identity, or are mislabelled."""


class NoConvergence(ErgokitError):
    """An eigensolver or a resampling loop exhausted its iteration budget."""


class InvalidRank(ErgokitError):
    """Requested state rank is outside 1..dimension."""


class DegeneratePovm(ErgokitError):
    """Post-processing left no nonzero measurement outcome."""


class ZeroMass(ErgokitError):
    """An outcome carries no probability mass, so its refinement is undefined."""


class LengthMismatch(ErgokitError):
    """Vectors of different lengths compared without padding."""


class PreconditionFailed(ErgokitError):
    """A documented precondition does not hold for the given inputs."""


class InconsistentReport(ErgokitError):
    """Computed work quantities break an identity they satisfy exactly in theory."""


class InvalidConfig(ErgokitError):
    """Audit configuration violates its constraints."""


class InvalidClaim(ErgokitError):
    """Unknown claim selector passed to the verifier."""


class UnknownFamily(ErgokitError):
    """Sweep requested a post-processing family that is not registered."""


class InvalidGrid(ErgokitError):
    """Sweep grid specification could not be parsed or is out of range."""


class ParseError(ErgokitError):
    """Instance file is not valid JSON."""


class ValidationError(ErgokitError):
    """Instance file parsed but violates the schema or a domain invariant."""
