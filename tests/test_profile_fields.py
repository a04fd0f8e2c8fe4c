"""Derived fields of PatternProfile: side conditions, wrapping, provenance."""

import pytest

from lsat import (
    bridge_braid_profile,
    cable_profile,
    generic_profile,
    twobridge_data,
    twobridge_profile,
    unlink_profile,
)

FROM_H = tuple(
    (name, "computed-from-H")
    for name in ("n_width", "r_minus", "r_center", "r_plus")
)
BRAIDED = (
    ("n_width", "closed-form"),
    ("r_center", "closed-form"),
    ("r_minus", "unknown"),
    ("r_plus", "unknown"),
    ("g3", "closed-form"),
)

# (cond_tau, cond_eps, minimal_wrapping, provenance) per profile.
CASES = {
    "twobridge(5,3)": (
        lambda: twobridge_profile(5, 3),
        (True, True, False, FROM_H + (("g3", "closed-form"),)),
    ),
    "unlink": (
        unlink_profile,
        (True, True, True, FROM_H + (("g3", "closed-form"),)),
    ),
    "cable(3,2)": (
        lambda: cable_profile(3, 2),
        (False, False, True, BRAIDED),
    ),
    "braid(4,5,2)": (
        lambda: bridge_braid_profile(4, 5, 2),
        (False, False, True, BRAIDED),
    ),
    "generic(9,5),g3=1": (
        lambda: generic_profile(twobridge_data(9, 5), g3=1),
        (True, True, False, FROM_H + (("g3", "user"),)),
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_derived_profile_fields(name):
    build, want = CASES[name]
    prof = build()
    got = (prof.cond_tau, prof.cond_eps, prof.minimal_wrapping, prof.provenance)
    assert got == want


def test_profile_hfunction_is_the_one_it_was_built_from():
    prof = twobridge_profile(9, 5)
    assert prof.hfunction() is prof.hfunction()
    assert prof == twobridge_profile(9, 5)
