"""Structured error hierarchy shared by all modules.

Each error carries a short machine-readable ``code`` so the CLI can map
failures onto its exit-code contract (2 = invalid input, 3 = unsupported
regime, 4 = verification failure).
"""


class LsatError(Exception):
    """Base class for all structured errors raised by this package."""

    code = "error"
    exit_code = 1

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class InvalidInputError(LsatError):
    """Malformed or inconsistent caller-supplied data."""

    code = "invalid-input"
    exit_code = 2


class CosetMismatchError(InvalidInputError):
    """Two-variable polynomials on different exponent cosets were combined."""

    code = "coset-mismatch"


class NotAlexanderSymmetricError(InvalidInputError):
    """No recentering makes the polynomial symmetric under inversion."""

    code = "not-alexander-symmetric"


class IncreaseDepthError(InvalidInputError):
    """The coefficient tail has not stabilized at the requested depth."""

    code = "increase-depth"


class NotLSpaceLinkError(InvalidInputError):
    """Neither sign of the Alexander data yields a valid H-function."""

    code = "not-an-lspace-link"


class UnsupportedRegimeError(LsatError):
    """The requested (pattern, companion, framing) regime has no formula."""

    code = "unsupported-regime"
    exit_code = 3


class VerificationError(LsatError):
    """A cross-check between two independent computations failed."""

    code = "verification-failure"
    exit_code = 4
