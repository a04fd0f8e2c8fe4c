"""The sweeps that ``lsat verify`` runs, each defined once.

The two-bridge pairs, the companion grid and the framings below are the
points of every cross-check; the tests and ``demos/01`` read the same
definitions.  Each check returns ``(points, failures)``, and ``CHECKS``
maps its name to it (``lsat.cli`` reads that dict).
"""

from __future__ import annotations

import functools
from typing import List, Optional, Tuple

from .errors import UnsupportedRegimeError
from .genus import g4_satellite_regime
from .halfgrid_poly import half
from .hfunction import LinkAlexData, _point, _t22l, validate
from .invariants import classify_operator, tau_closed_form, tau_inequality_check
from .patterns import (
    Companion,
    PatternProfile,
    twobridge_data,
    twobridge_profile,
    unlink_data,
    unlink_profile,
)
from .zcomplex import tau_oracle

# Two-bridge parameters: the family is odd 3 <= q <= r <= 9; the links of
# the properties and classifier sweeps also take q = 1.
FAMILY_PAIRS = tuple((r, q) for r in (3, 5, 7, 9) for q in range(3, r + 1, 2))
LINK_PAIRS = tuple((r, q) for r in (3, 5, 7, 9) for q in range(1, r + 1, 2))

# Companions with eps = +-1 and |tau| <= 2, plus the eps = 0 one.
COMPANIONS = tuple(
    Companion(tau=tau, eps=eps) for eps in (-1, 1) for tau in range(-2, 3)
) + (Companion(tau=0, eps=0),)
FRAMINGS = range(-4, 5)


def family_profiles() -> List[PatternProfile]:
    """Profiles of the family pairs, in order."""
    return [twobridge_profile(r, q) for r, q in FAMILY_PAIRS]


def sweep_profiles() -> List[PatternProfile]:
    """The family profiles plus the Hopf link (3,1)."""
    return family_profiles() + [twobridge_profile(3, 1)]


def sweep_grid() -> List[Tuple[PatternProfile, Companion, int]]:
    """(profile, companion, framing) points of the oracle and inequality sweeps."""
    return [
        (prof, K, n)
        for prof in sweep_profiles()
        for n in FRAMINGS
        for K in COMPANIONS
    ]


@functools.lru_cache(maxsize=1)
def closed_sweep() -> Tuple[
    Tuple[PatternProfile, Companion, int, Optional[int]], ...
]:
    """The sweep grid with each point's closed-form tau, None if unsupported.

    The oracle and inequality checks both read it, so one process computes
    each closed form once; the grid's profiles are memoized per process too.
    """
    points = []
    for prof, K, n in sweep_grid():
        try:
            value: Optional[int] = tau_closed_form(prof, K, n).value
        except UnsupportedRegimeError:
            value = None
        points.append((prof, K, n, value))
    return tuple(points)


def link_cases() -> List[Tuple[str, LinkAlexData]]:
    """Links of the properties and classifier sweeps: the unlink, then LINK_PAIRS."""
    return [("unlink", unlink_data())] + [
        (f"twobridge({r},{q})", twobridge_data(r, q)) for r, q in LINK_PAIRS
    ]


def check_tables() -> Tuple[int, List[str]]:
    points, failures = 0, []
    model_cases = [
        ("unlink", unlink_profile(), 0),
        ("twobridge(3,1)", twobridge_profile(3, 1), 1),
    ]
    for label, prof, l in model_cases:
        ds, rows = prof.hfunction().grid(6)
        for t, row in zip(ds, rows):
            for r, v in zip(ds, row):
                points += 1
                if v != _t22l(l, t, r):
                    failures.append(f"{label} H{_point(t, r)} != model")
    # Whitehead and Mazur values come from the profiles both tau routes read.
    wh = twobridge_profile(3, 3)
    points += 2
    if wh.r_center != 2:
        failures.append("Whitehead R_0 != 1")
    if wh.n_width != 2:
        failures.append("Whitehead width != 1")
    mz = twobridge_profile(5, 3)
    # Doubled (t, R_t read, R_t wanted) at t = l/2 - 1, l/2, l/2 + 1.
    for t, got, r in ((-1, mz.r_minus, 1), (1, mz.r_center, 3), (3, mz.r_plus, 1)):
        points += 1
        if got != r:
            failures.append(f"Mazur R_{half(t)} != {half(r)}")
    return points, failures


def check_oracle() -> Tuple[int, List[str]]:
    points, failures = 0, []
    for prof, K, n, closed in closed_sweep():
        if closed is None:
            continue
        points += 1
        orc = tau_oracle(prof, K, n)
        if closed != orc.value:
            failures.append(
                f"l={prof.l} eps={K.eps} tau={K.tau} n={n}: "
                f"closed {closed} != oracle {orc.value}"
            )
    return points, failures


def check_properties() -> Tuple[int, List[str]]:
    cases = link_cases()
    failures = []
    for label, data in cases:
        found = validate(data.hfunction())
        if found:
            failures.append(f"{label}: {found[0]}")
    return len(cases), failures


def check_classifier() -> Tuple[int, List[str]]:
    cases = link_cases()
    failures = []
    expected = {"twobridge(3,1)": "identity", "unlink": "trivial"}
    for label, data in cases:
        verdict, _ = classify_operator(data.hfunction())
        want = expected.get(label, "obstructed")
        if verdict != want:
            failures.append(f"{label}: classified {verdict}, expected {want}")
    return len(cases), failures


def check_inequality() -> Tuple[int, List[str]]:
    points, failures = 0, []
    for prof, K, n, closed in closed_sweep():
        if closed is None:
            continue
        points += 1
        if not tau_inequality_check(prof, K, n, closed):
            failures.append(
                f"l={prof.l} eps={K.eps} tau={K.tau} n={n}: inequality fails"
            )
    return points, failures


def check_genus() -> Tuple[int, List[str]]:
    points, failures = 0, []
    for prof in family_profiles():
        for tau in (1, 2):
            K = Companion(tau=tau, eps=1)
            points += 1
            g4, _ = g4_satellite_regime(prof, K, 0)
            want = tau_closed_form(prof, K, 0).value
            if g4 != want:
                failures.append(
                    f"l={prof.l} tau={tau}: g4(n=0) {g4} != tau {want}"
                )
    wh = twobridge_profile(3, 3)
    for tau in (1, 2, 3):
        for n in range(-2, 2 * tau):
            points += 1
            g4, _ = g4_satellite_regime(wh, Companion(tau=tau, eps=1), n)
            if g4 != 1:
                failures.append(f"Whitehead g4(tau={tau},n={n}) = {g4} != 1")
    return points, failures


CHECKS = {
    "tables": check_tables,
    "oracle": check_oracle,
    "properties": check_properties,
    "classifier": check_classifier,
    "inequality": check_inequality,
    "genus": check_genus,
}
