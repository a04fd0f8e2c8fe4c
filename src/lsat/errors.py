"""Structured error hierarchy shared by all modules.

Each error class carries the ``exit_code`` of the CLI's contract
(2 = invalid input, 3 = unsupported regime, 4 = verification failure);
the CLI reports the class name and the message.  The digit bound on input
integers lives here too, so the command line and the JSON reader share it
while ``import lsat.cli`` still runs no other library module.
"""

# Most digits an input integer may have, on the command line or in JSON
# link data.  The largest value a command prints, a cable's p (q + p n),
# has about three times the digits of its inputs, so it stays under
# CPython's 4300-digit int-to-str limit.
MAX_INT_DIGITS = 1000


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
