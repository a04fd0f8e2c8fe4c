"""H-function checked against brute-force references.

Both references evaluate H(t, r) = H1(t - l/2) + H2(r - l/2) - (sum of
delta_tilde over the quadrant j > t, k > r) in doubled integers.  The
dense one takes suffix sums over the support box of delta_tilde, as
:class:`lsat.HFunction` does, but shares no code with it; the sparse one
filters the terms per query straight from the definition, so it is
independent of the suffix-sum algorithm too.
"""

import pytest

from conftest import two_bridge_pairs
from lsat import HFunction, twobridge_data, unlink_data, width
from lsat.halfgrid_poly import LaurentPoly1
from lsat.hfunction import _KnotH


def reference_table(data, coords):
    """{(t, r): H} on coords x coords (doubled ints) from the definition."""
    for delta in (data.delta1, data.delta2):
        assert delta.terms in (
            LaurentPoly1.one().terms,
            LaurentPoly1.one().neg().terms,
        ), "reference covers unknotted components only"
    terms = dict(data.delta_tilde.terms)
    js = [j for j, _ in terms] or [0]
    ks = [k for _, k in terms] or [0]
    j_lo, j_hi, k_lo, k_hi = min(js), max(js), min(ks), max(ks)
    # suffix[(j, k)] = sum of coefficients at (j', k') with j' >= j, k' >= k,
    # on the box in whole (doubled 2) steps; zero outside the box above.
    suffix = {}
    for j in range(j_hi, j_lo - 1, -2):
        for k in range(k_hi, k_lo - 1, -2):
            suffix[(j, k)] = (
                terms.get((j, k), 0)
                + suffix.get((j + 2, k), 0)
                + suffix.get((j, k + 2), 0)
                - suffix.get((j + 2, k + 2), 0)
            )

    def quadrant(t, r):
        j, k = max(t + 2, j_lo), max(r + 2, k_lo)
        return suffix.get((j, k), 0)

    l = data.linking
    out = {}
    for t in coords:
        for r in coords:
            # An unknot has H(s) = max(-s, 0); s = t - l/2 is integral.
            h1 = max(-(t - l) // 2, 0)
            h2 = max(-(r - l) // 2, 0)
            out[(t, r)] = h1 + h2 - quadrant(t, r)
    return out


def validate_window(data):
    """Doubled lattice coordinates of the window ``validate`` uses."""
    window = width(data) + 6
    return [d for d in range(-window, window + 1) if d % 2 == data.linking % 2]


@pytest.mark.parametrize(
    "rq",
    two_bridge_pairs(15) + [(21, 13), None],
    ids=lambda rq: "unlink" if rq is None else "%d,%d" % rq,
)
def test_hfunction_matches_reference(rq):
    data = unlink_data() if rq is None else twobridge_data(*rq)
    h = HFunction(data)
    for (t, r), value in reference_table(data, validate_window(data)).items():
        assert h(t, r) == value, (rq, t, r)


def sparse_reference(data, t, r):
    """H(t, r) (doubled ints) by filtering every term, unknotted components."""
    l = data.linking
    quadrant = sum(
        c for (j, k), c in data.delta_tilde.terms
        if j > t and k > r
    )
    return max(-(t - l) // 2, 0) + max(-(r - l) // 2, 0) - quadrant


@pytest.mark.parametrize("rq", [(41, 31), (61, 41)], ids="%d,%d".__mod__)
def test_hfunction_matches_sparse_definition_at_scale(rq):
    data = twobridge_data(*rq)
    h = HFunction(data)
    coords = validate_window(data)
    for t in coords:
        for r in coords:
            want = sparse_reference(data, t, r)
            assert h(t, r) == want, (rq, t, r)


def test_knot_h_of_trefoil():
    trefoil = LaurentPoly1.from_terms({2: 1, 0: -1, -2: 1})
    h = _KnotH(trefoil)
    assert [h(s) for s in range(-3, 4)] == [3, 2, 1, 1, 0, 0, 0]
