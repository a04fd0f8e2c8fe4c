"""Structured error hierarchy shared by all modules.

Each error class carries the ``exit_code`` of the CLI's contract
(2 = invalid input, 3 = unsupported regime, 4 = verification failure);
the CLI reports the class name and the message.
"""


class LsatError(Exception):
    """Base class for all structured errors raised by this package."""

    exit_code = 1


class InvalidInputError(LsatError):
    """Malformed or inconsistent caller-supplied data."""

    exit_code = 2


class CosetMismatchError(InvalidInputError):
    """Two-variable polynomials on different exponent cosets were combined."""


class NotAlexanderSymmetricError(InvalidInputError):
    """No recentering makes the polynomial symmetric under inversion."""


class NotLSpaceLinkError(InvalidInputError):
    """Neither sign of the Alexander data yields a valid H-function."""


class UnsupportedRegimeError(LsatError):
    """The requested (pattern, companion, framing) regime has no formula."""

    exit_code = 3


class VerificationError(LsatError):
    """A cross-check between two independent computations failed."""

    exit_code = 4
