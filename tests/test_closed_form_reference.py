"""The doubled-int closed form agrees with a Fraction reference.

``reference_closed_form`` is the closed form written on
``fractions.Fraction`` arithmetic, branch for branch as the paper states
it: every doubled R value of the profile is read back as its rational
value first.  It lives here only, as the check on
``invariants.tau_closed_form`` and on the profile's ``cond_tau`` and
``cond_eps``: value, method, case tag, and the class and message of every
error must agree.
"""

from fractions import Fraction

import pytest

from conftest import HAND_MADE
from lsat import (
    Companion,
    PatternProfile,
    bridge_braid_profile,
    cable_profile,
    tau_closed_form,
    twobridge_profile,
    unlink_profile,
)
from lsat.errors import InvalidInputError, UnsupportedRegimeError
from lsat.zcomplex import TauResult


def value_of(doubled):
    """The rational value of a doubled profile field (None stays None)."""
    return None if doubled is None else Fraction(doubled, 2)


def reference_cond_tau(prof: PatternProfile) -> bool:
    if prof.r_minus is None:
        return prof.l in (0, 1) or prof.g3 == 0
    return value_of(prof.r_minus) >= prof.g3 + Fraction(prof.l, 2) - 1


def reference_cond_eps(prof: PatternProfile) -> bool:
    if prof.r_minus is None:
        return prof.l == 0
    return value_of(prof.r_minus) >= prof.g3 + Fraction(prof.l, 2)


def _as_tau(value: Fraction, case_tag: str) -> TauResult:
    # Whole on every profile the constructor accepts (R values on l/2 + Z).
    assert value.denominator == 1, (value, case_tag)
    return TauResult(value=int(value), method="closed-form", case_tag=case_tag)


def require_r_minus(prof: PatternProfile) -> None:
    if prof.r_minus is None:
        raise UnsupportedRegimeError(
            "r_minus is unavailable for this profile; "
            "use the family-specific formula instead"
        )


def reference_closed_form(prof: PatternProfile, K: Companion, n: int) -> TauResult:
    if prof.l < 0:
        raise UnsupportedRegimeError("closed form needs winding >= 0")
    half_l = Fraction(prof.l, 2)
    g = prof.g3
    shift = prof.framing_shift(n)
    ltau = prof.l * K.tau
    cond_tau = reference_cond_tau(prof)
    r_minus = value_of(prof.r_minus)
    r_center = value_of(prof.r_center)
    r_plus = value_of(prof.r_plus)

    if K.eps == 1:
        if n < 2 * K.tau:
            return _as_tau(
                r_center - half_l + shift + ltau, "eps=1,n<2tau"
            )
        return _as_tau(Fraction(g + shift + ltau), "eps=1,n>=2tau")

    if K.eps == 0:
        if n >= 0:
            return _as_tau(Fraction(g + shift), "eps=0,n>=0")
        if not cond_tau:
            raise UnsupportedRegimeError(
                "eps=0 with n<0 needs the R_{l/2-1} condition"
            )
        require_r_minus(prof)
        return _as_tau(
            max(r_minus + half_l, r_center - half_l) + shift,
            "eps=0,n<0",
        )

    if not cond_tau:
        raise UnsupportedRegimeError("eps=-1 needs the R_{l/2-1} condition")
    if n < 2 * K.tau:
        require_r_minus(prof)
        return _as_tau(
            max(r_minus + half_l, r_center - half_l) + shift + ltau,
            "eps=-1,n<2tau",
        )
    if n == 2 * K.tau:
        require_r_minus(prof)
        return _as_tau(
            max(r_minus + half_l, r_plus - half_l) + shift + ltau,
            "eps=-1,n=2tau",
        )
    if n == 2 * K.tau + 1:
        require_r_minus(prof)
        return _as_tau(
            min(r_minus + half_l, r_plus + half_l) + shift + ltau,
            "eps=-1,n=2tau+1",
        )
    require_r_minus(prof)
    return _as_tau(
        min(r_minus + half_l, g + half_l + half_l) + shift + ltau,
        "eps=-1,n>2tau+1",
    )


def _outcome(closed_form, prof, K, n):
    try:
        res = closed_form(prof, K, n)
    except (InvalidInputError, UnsupportedRegimeError) as exc:
        return type(exc), str(exc)
    return res.value, res.method, res.case_tag


COMPANIONS = [Companion(tau=0, eps=0)] + [
    Companion(tau=tau, eps=eps) for eps in (-1, 1) for tau in range(-3, 4)
]

# Profiles the constructor refuses: one side value without the other (the
# first and the last), or R values off the coset l/2 + Z (the middle two).
REFUSED = [
    (dict(l=3, g3=2, n_width=5, r_minus=4, r_center=9, r_plus=None),
     "r_minus and r_plus come as a pair"),
    (dict(l=1, g3=0, n_width=3, r_minus=0, r_center=2, r_plus=1),
     "r_minus = 0 is off the lattice l/2 [+] Z"),
    (dict(l=2, g3=0, n_width=4, r_minus=-1, r_center=3, r_plus=3),
     "r_minus = -1/2 is off the lattice l/2 [+] Z"),
    (dict(l=0, g3=0, n_width=2, r_minus=0, r_center=0, r_plus=None),
     "r_minus and r_plus come as a pair"),
]

OTHER_PROFILES = {
    "unlink": unlink_profile(),
    "cable(2,1)": cable_profile(2, 1),
    "cable(3,2)": cable_profile(3, 2),
    "cable(5,3)": cable_profile(5, 3),
    "braid(4,5,2)": bridge_braid_profile(4, 5, 2),
    "braid(5,6,2)": bridge_braid_profile(5, 6, 2),
    **{f"hand-made-{i}": prof for i, prof in enumerate(HAND_MADE)},
}


def _agree_on(prof, framings):
    assert prof.cond_tau == reference_cond_tau(prof)
    assert prof.cond_eps == reference_cond_eps(prof)
    outcomes = set()
    for K in COMPANIONS:
        for n in framings:
            got = _outcome(tau_closed_form, prof, K, n)
            assert got == _outcome(reference_closed_form, prof, K, n), (K, n)
            outcomes.add(got[0] if isinstance(got[0], type) else "value")
    return outcomes


@pytest.mark.parametrize("r, q", [
    (r, q) for r in (3, 5, 7, 9, 11) for q in range(1, r + 1, 2)
])
def test_two_bridge_grid_matches_the_reference(r, q):
    assert "value" in _agree_on(twobridge_profile(r, q), range(-12, 13))


@pytest.mark.parametrize("name", OTHER_PROFILES)
def test_other_profiles_match_the_reference(name):
    _agree_on(OTHER_PROFILES[name], range(-12, 13))


@pytest.mark.parametrize("fields, msg", REFUSED)
def test_one_sided_and_off_coset_profiles_are_refused_when_built(fields, msg):
    with pytest.raises(InvalidInputError, match=msg):
        PatternProfile(**fields)


def test_every_error_path_is_compared():
    # Invalid R values are refused by the constructor, before any closed
    # form reads them.
    seen = set()
    for fields, _ in REFUSED:
        with pytest.raises(InvalidInputError) as refused:
            PatternProfile(**fields)
        seen.add(refused.type)
    for prof in OTHER_PROFILES.values():
        seen |= _agree_on(prof, range(-4, 5))
    assert seen == {"value", InvalidInputError, UnsupportedRegimeError}
    messages = {
        _outcome(tau_closed_form, prof, K, n)[1]
        for prof in HAND_MADE + [OTHER_PROFILES["cable(2,1)"]]
        for K in COMPANIONS for n in range(-4, 5)
    }
    assert "eps=-1 needs the R_{l/2-1} condition" in messages
    assert any(str(m).startswith("r_minus is unavailable") for m in messages)
