"""Exception hierarchy and CLI exit codes."""


class MahlerError(Exception):
    """Base class for every error raised by this package."""


class InputFormatError(MahlerError):
    """A document does not match the polynomial/operator JSON schema."""


class UnsupportedEquationError(MahlerError):
    """The equation is outside what the solvers handle."""


class ZeroTrailingCoefficientError(UnsupportedEquationError):
    """The trailing coefficient is zero where a routine needs it nonzero
    (normalize first, or enable auto-normalization)."""


class MixedRadixError(UnsupportedEquationError):
    """Operators with different radices were combined."""


class ExponentOverflowError(MahlerError):
    """An exponent left the supported index range."""


class ExactDivisionError(MahlerError):
    """An exact polynomial division left a nonzero remainder."""


class NegativeExponentError(MahlerError):
    """An exponent substitution produced a negative exponent."""


class NoAdmissibleEdgeError(MahlerError):
    """No admissible edge with the requested slope constraint exists."""


class IncompatiblePrefixError(MahlerError):
    """A coefficient prefix is not an approximate series solution."""


class InconsistentPrefixError(MahlerError):
    """A coefficient prefix extends to no series solution."""


class InsufficientPrefixError(MahlerError):
    """A coefficient prefix is too short for the requested test."""


class InvalidArgumentError(MahlerError):
    """A numeric argument is outside its documented range."""


class InternalInvariantError(MahlerError):
    """An internal consistency check failed; this indicates a bug."""


# CLI exit codes.
EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_OVERFLOW = 4
EXIT_INTERNAL = 5
