"""Derived fields of PatternProfile: side conditions, wrapping, provenance."""

import json
import tempfile
from pathlib import Path

import pytest

from lsat import (
    bridge_braid_profile,
    cable_profile,
    generic_profile,
    twobridge_data,
    twobridge_profile,
    unlink_profile,
)
from lsat.cli import _load_pattern
from lsat.errors import InvalidInputError

FROM_H = tuple(
    (name, "computed-from-H")
    for name in ("n_width", "r_minus", "r_center", "r_plus")
) + (("g3", "computed-from-delta2"),)
BRAIDED = (
    ("n_width", "closed-form"),
    ("r_center", "closed-form"),
    ("r_minus", "unknown"),
    ("r_plus", "unknown"),
    ("g3", "closed-form"),
)


def json_claiming(data, g3):
    """Load ``data`` as a ``json:`` pattern whose file claims ``g3``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "link.json"
        path.write_text(json.dumps(dict(data.to_json_obj(), g3=g3)))
        return _load_pattern(f"json:{path}")[2]


# (cond_tau, cond_eps, minimal_wrapping, provenance) per profile, or the
# refusal message when building it must fail.
CASES = {
    "twobridge(5,3)": (
        lambda: twobridge_profile(5, 3),
        (True, True, False, FROM_H),
    ),
    "unlink": (
        unlink_profile,
        (True, True, True, FROM_H),
    ),
    "cable(3,2)": (
        lambda: cable_profile(3, 2),
        (False, False, True, BRAIDED),
    ),
    "braid(4,5,2)": (
        lambda: bridge_braid_profile(4, 5, 2),
        (False, False, True, BRAIDED),
    ),
    "generic(9,5)": (
        lambda: generic_profile(twobridge_data(9, 5)),
        (True, True, False, FROM_H),
    ),
    "generic(9,5),g3=1": (
        lambda: json_claiming(twobridge_data(9, 5), 1),
        "supplied g3 = 1 disagrees with g3 = 0, the top degree of delta2",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_derived_profile_fields(name):
    build, want = CASES[name]
    if isinstance(want, str):
        with pytest.raises(InvalidInputError) as exc:
            build()
        assert str(exc.value) == want
        return
    prof = build()
    got = (prof.cond_tau, prof.cond_eps, prof.minimal_wrapping, prof.provenance)
    assert got == want


def test_profile_hfunction_is_the_one_it_was_built_from():
    prof = twobridge_profile(9, 5)
    assert prof.hfunction() is prof.hfunction()
    assert prof == twobridge_profile(9, 5)
