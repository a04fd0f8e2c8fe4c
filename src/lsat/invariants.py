"""Closed-form tau of satellites and obstructions.

The central entry point is :func:`tau_closed_form`, which dispatches on the
companion's eps invariant and the framing.  Beside it live the eps != -1
guarantee, the homomorphism obstruction classifier, and the comparison
with the family formula of a cable, used as a sweep property.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .errors import UnsupportedRegimeError
from .halfgrid_poly import half
from .hfunction import HFunction, default_window, width, _point, _t22l
from .patterns import Companion, PatternProfile, TauResult, regime, tau_cable


def tau_closed_form(prof: PatternProfile, K: Companion, n: int) -> TauResult:
    """tau of the satellite with pattern ``prof``, companion K, framing n.

    Computed on doubled ints: the R values are doubled already and l/2
    enters as l, so each branch is the paper's formula times two, and the
    sum is even since the R values lie on l/2 + Z.  An eps = 0 companion
    reads the eps = 1 branches at n >= 0 and the eps = -1 branches at
    n < 0, under its own case tag (:func:`~lsat.patterns.regime`).
    """
    l, tau = prof.l, K.tau
    side, eps0_tag = regime(K, n, prof)
    if side == 1:
        if n < 2 * tau:
            doubled, tag = prof.r_center - l, "eps=1,n<2tau"
        else:
            doubled, tag = 2 * prof.g3, "eps=1,n>=2tau"
    elif n < 2 * tau:
        doubled = max(prof.r_minus + l, prof.r_center - l)
        tag = "eps=-1,n<2tau"
    elif n == 2 * tau:
        doubled = max(prof.r_minus + l, prof.r_plus - l)
        tag = "eps=-1,n=2tau"
    elif n == 2 * tau + 1:
        doubled, tag = min(prof.r_minus, prof.r_plus) + l, "eps=-1,n=2tau+1"
    else:
        doubled = min(prof.r_minus + l, 2 * prof.g3 + 2 * l)
        tag = "eps=-1,n>2tau+1"
    doubled += 2 * prof.framing_shift(n) + 2 * l * tau
    return TauResult(doubled // 2, "closed-form", eps0_tag or tag)


def eps_not_minus_one(prof: PatternProfile, K: Companion, n: int) -> str:
    """'guaranteed' when eps of the satellite cannot be -1, else 'inconclusive'."""
    side, _ = regime(K, n)
    return "guaranteed" if side == 1 or prof.cond_eps else "inconclusive"


def classify_operator(h: HFunction) -> Tuple[str, Optional[str]]:
    """Decide whether the operator can induce a concordance homomorphism.

    Returns (verdict, failed_claim), with g3 read from the link's delta2;
    the verdict does not depend on the framing.  The only non-obstructed
    verdicts are ``trivial`` (H-table of the 2-component unlink),
    ``identity`` (positive Hopf link) and ``orientation_reversing``
    (negative Hopf link); every scalar claim below is a necessary
    condition used for fast failure.
    """
    l, g3 = h.linking, h.data.g3
    if abs(l) > 1:
        return ("obstructed", f"winding {l} not in {{0, +-1}}")
    if g3 != 0:
        return ("obstructed", f"g3 = {g3} != 0")
    # Doubled: l is 2 * (l/2), and the R values and the width are doubled.
    # A negative winding mirrors the model, so its step column is l/2 + 1.
    r_center = h.r_of_t(l)
    if r_center != abs(l):
        return ("obstructed", f"R at winding/2 is {half(r_center)} != {half(abs(l))}")
    n_width = width(h.data)
    if n_width != abs(l):
        return ("obstructed", f"width {half(n_width)} != |winding|/2")
    side, step = ("left", l - 2) if l >= 0 else ("right", l + 2)
    r_step = h.r_of_t(step)
    if r_step != -abs(l):
        return (
            "obstructed",
            f"R one column {side} of winding/2 is {half(r_step)} != -|winding|/2",
        )
    # All scalar claims pass; the verdict needs full-table equality with
    # the model link of the same winding on validate's window, which holds
    # delta_tilde's support and past which H only translates.
    ds, rows = h.grid(default_window(h))
    for t, row in zip(ds, rows):
        for r, v in zip(ds, row):
            if v != _t22l(l, t, r):
                mismatch = f"table differs from model at {_point(t, r)}"
                return ("obstructed", mismatch)
    if l == 0:
        return ("trivial", None)
    if l == 1:
        return ("identity", None)
    return ("orientation_reversing", None)


def tau_inequality_check(
    prof: PatternProfile, K: Companion, n: int, closed: Optional[int] = None
) -> Optional[bool]:
    """tau(satellite) >= tau of the comparison cable; None when undefined.

    ``closed`` is the satellite's closed-form tau when the caller already
    has it; otherwise it is computed here.
    """
    left = closed
    if left is None:
        try:
            left = tau_closed_form(prof, K, n).value
        except UnsupportedRegimeError:
            return None
    l = prof.l
    if l == 0:
        return left >= 0
    right = tau_cable(l, 1, K, n).value
    return left >= right
