"""Exception hierarchy and CLI exit codes: each class's `exit_code`,
which its subclasses inherit, is the code the CLI exits with."""

# CLI exit codes.
EXIT_BAD_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_OVERFLOW = 4
EXIT_INTERNAL = 5


class MahlerError(Exception):
    """Base class for every error raised by this package."""

    exit_code = EXIT_BAD_INPUT


class InputFormatError(MahlerError):
    """A document does not match the polynomial/operator JSON schema."""


class UnsupportedEquationError(MahlerError):
    """The equation is outside what the solvers handle."""

    exit_code = EXIT_UNSUPPORTED


class ZeroTrailingCoefficientError(UnsupportedEquationError):
    """The trailing coefficient is zero where a routine needs it nonzero."""


class MixedRadixError(UnsupportedEquationError):
    """Operators with different radices were combined."""


class ExponentOverflowError(MahlerError):
    """An exponent left the supported index range."""

    exit_code = EXIT_OVERFLOW


class ExactDivisionError(MahlerError):
    """An exact polynomial division left a nonzero remainder."""


class NegativeExponentError(MahlerError):
    """An exponent substitution produced a negative exponent."""


class NoAdmissibleEdgeError(MahlerError):
    """No admissible edge with the requested slope constraint exists."""


class InconsistentPrefixError(MahlerError):
    """A coefficient prefix extends to no series solution."""


class InsufficientPrefixError(MahlerError):
    """A coefficient prefix is too short for the requested test."""


class InvalidArgumentError(MahlerError):
    """A numeric argument is outside its documented range."""


class InternalInvariantError(MahlerError):
    """An internal consistency check failed; this indicates a bug."""

    exit_code = EXIT_INTERNAL
