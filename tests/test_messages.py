"""The exact text of each error and failure message that prints a half-integer.

Every value is printed as ``p/2`` when it is not whole.  Inputs are built
from doubled-exponent terms or from the two-bridge family, so the cases
read the same whatever type the library holds a half-integer in.
"""

import pytest

from conftest import flipped, link, p2, torus_knot
from lsat import HFunction, symmetrize, twobridge_data, twobridge_profile, validate
from lsat.errors import LsatError


def raised(call):
    """The text of the LsatError that ``call()`` raises."""
    with pytest.raises(LsatError) as info:
        call()
    return [str(info.value)]


def failures(data):
    """The failure list of ``validate`` on ``data``."""
    return validate(HFunction(data))


# name -> (messages produced, the exact message that must be among them).
# The four "validate R_t" cases keep the data of the R_t checks validate
# no longer runs; each is still refused, and the first message is pinned.
# The "at window 0" case runs on validate's one window, as every case does.
CASES = {
    "symmetrize first term": (
        lambda: raised(lambda: symmetrize(p2({(2, 0): 1, (0, 0): -2}))),
        "coefficient at (-1/2,0) breaks inversion symmetry",
    ),
    "symmetrize later term": (
        lambda: raised(lambda: symmetrize(
            p2({(-1, -1): 1, (1, 1): 1, (-1, 1): 1, (1, -1): 2})
        )),
        "coefficient at (-1/2,1/2) breaks inversion symmetry",
    ),
    "symmetrize later term, sign -1": (
        lambda: raised(lambda: symmetrize(p2({(0, 0): 1, (2, 0): 1, (2, 2): -1}))),
        "coefficient at (1/2,-1/2) breaks inversion symmetry",
    ),
    "r_of_t off the lattice": (
        lambda: raised(lambda: twobridge_data(3, 3).hfunction().r_of_t(1)),
        "(1/2,1) is not on the lattice",
    ),
    "r_of_t gap": (
        lambda: raised(lambda: HFunction(flipped(3, 3)).r_of_t(0)),
        "bounded gap violated in column t=0 at r=1",
    ),
    "validate R_t undefined": (
        lambda: failures(link(-1, {(3, 3): 1})),
        "monotonicity/gap fails between (-9/2,1/2) and (-9/2,3/2): step -1",
    ),
    "validate R_t decreases": (
        lambda: failures(link(-1, {(1, 3): -1, (-3, 5): -1})),
        "monotonicity/gap fails between (-5/2,-9/2) and (-3/2,-9/2): step 2",
    ),
    "validate R_t increases": (
        lambda: failures(
            link(3, {(7, 3): 1, (3, -3): 1, (7, 1): 1, (3, -5): 1})
        ),
        "monotonicity/gap fails between (1/2,-13/2) and (3/2,-13/2): step -1",
    ),
    "validate R_t not constant": (
        lambda: failures(link(-1, {(1, 3): -1, (-3, 5): -1})),
        "monotonicity/gap fails between (-5/2,-9/2) and (-3/2,-9/2): step 2",
    ),
    "validate width bound": (
        lambda: failures(link(-1, {})),
        "width bound fails: N=0, l/2=-1/2",
    ),
    "validate width bound with T(2,13) as P(U)": (
        lambda: failures(link(1, {}, None, torus_knot(6))),
        "width bound fails: N=0, l/2=1/2",
    ),
    "validate width bound at window 0": (
        lambda: failures(link(4, {})),
        "width bound fails: N=0, l/2=2",
    ),
    "profile R_center below g3": (
        lambda: raised(lambda: twobridge_profile(5, 3).replace(g3=2)),
        "R_center - l/2 = 1 < g3 = 2",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_message_text_is_pinned(name):
    produce, want = CASES[name]
    assert want in produce()
