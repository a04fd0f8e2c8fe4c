"""Thurston-norm and slice-genus quantities derived from the H-function."""

from __future__ import annotations

from typing import Tuple

from .errors import UnsupportedRegimeError
from .patterns import Companion, PatternProfile


def g3rel(prof: PatternProfile) -> int:
    """Relative Seifert genus in the solid torus: R_center - winding/2."""
    return (prof.r_center - prof.l) // 2


def g4_satellite_regime(prof: PatternProfile, K: Companion, n: int) -> Tuple[int, str]:
    """Slice genus of the satellite, and the regime that gave it.

    Holds under the hypothesis tau(K) = g4(K) > 0, which cannot be checked
    from companion data: asserting it is the caller's part, as the CLI's
    ``--g4-eq-tau`` does.  Three regimes are supported: zero framing,
    winding-zero patterns with n < 2 tau, and minimal wrapping with n >= 0.
    """
    if K.tau <= 0:
        raise UnsupportedRegimeError("the hypothesis needs tau(K) > 0")
    if n == 0:
        return g3rel(prof) + prof.l * K.tau, "zero-framing"
    if prof.l == 0 and n < 2 * K.tau:
        return g3rel(prof), "winding-zero,n<2tau"
    if prof.minimal_wrapping and n >= 0:
        return g3rel_framed(prof, n) + prof.l * K.tau, "minimal-wrapping,n>=0"
    raise UnsupportedRegimeError(
        "no slice-genus formula applies to this (pattern, framing) regime"
    )


def g3rel_framed(prof: PatternProfile, n: int) -> int:
    """Relative genus with n-framed longitudes, minimal wrapping only."""
    if not prof.minimal_wrapping:
        raise UnsupportedRegimeError("formula needs minimal wrapping")
    if n < 0:
        raise UnsupportedRegimeError("formula needs n >= 0")
    return prof.g3 + prof.framing_shift(n)
