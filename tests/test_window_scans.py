"""Window scans of the H-function: failure reports, grid values, work counts.

The failure reports of ``validate`` and the error text of
``generic_profile`` are pinned on data that breaks the L-space properties
(sign-flipped two-bridge links, a coefficient-2 Hopf link, asymmetric data,
a width below l/2), so the messages keep their order and wording.  Data
with a knotted first component has no width, so both refuse it.
Windows, coordinates and widths are doubled ints.
"""

import collections
import hashlib
import json

import pytest

import lsat.hfunction
import lsat.patterns
from conftest import invoke, two_bridge_pairs
from lsat import (
    HFunction,
    LinkAlexData,
    classify_operator,
    generic_profile,
    resolve_sign,
    twobridge_data,
    validate,
    width,
)
from lsat.errors import InvalidInputError
from lsat.halfgrid_poly import LaurentPoly1, LaurentPoly2


def torus_knot(top):
    """Alexander polynomial of T(2, 2*top + 1), degree ``top``."""
    return LaurentPoly1.from_terms(
        {2 * k: (-1) ** (top - k) for k in range(-top, top + 1)}
    )


def link(l, terms, delta1=None, delta2=None):
    """Link data from {(doubled j, doubled k): coefficient}."""
    return LinkAlexData(
        linking=l,
        delta_tilde=LaurentPoly2.from_terms(terms),
        delta1=delta1 or LaurentPoly1.one(),
        delta2=delta2 or LaurentPoly1.one(),
    )


def flipped(r, q):
    """Two-bridge data with the wrong overall sign."""
    data = twobridge_data(r, q)
    return data.replace(delta_tilde=data.delta_tilde.neg())


def digest(failures):
    return hashlib.sha256("\n".join(failures).encode()).hexdigest()[:16]


def first_of_each(failures):
    """First message of each kind (its first two words), in report order."""
    firsts = collections.OrderedDict()
    for msg in failures:
        firsts.setdefault(" ".join(msg.split(" ")[:2]), msg)
    return list(firsts.values())


# name -> data factory.  validate scans its one window; the names with a
# window keep the whole-unit window the case was first pinned at.
BROKEN = {
    "flip(3,3) window 3": lambda: flipped(3, 3),
    "flip(5,3)": lambda: flipped(5, 3),
    "flip(9,7)": lambda: flipped(9, 7),
    "hopf coefficient 2": lambda: link(1, {(1, 1): 2}),
    "asymmetric": lambda: link(1, {(1, 1): 1, (3, 1): 1}),
    "unstabilized window 0": lambda: link(0, {}, torus_knot(5), torus_knot(5)),
    "width below l/2": lambda: link(3, {(1, 1): 1}),
}

# name -> (failure count, digest of all failures, first of each kind,
#          generic_profile error text or None); count, digest and firsts
#          are None when validate refuses the data with that same text.
PINNED = {
    "flip(3,3) window 3": (
        5,
        "514f6c8fb7f79c3d",
        [
            "monotonicity/gap fails between (-1,0) and (0,0): step 2",
            "negative value H(0,0) = -1",
        ],
        (
            "Alexander data fails H-function validation: monotonicity/gap fails between (-1,0) and (0,0): step 2; "
            "monotonicity/gap fails between (0,-1) and (0,0): step 2; "
            "negative value H(0,0) = -1"
        ),
    ),
    "flip(5,3)": (
        65,
        "a7c0ed72fac052a7",
        [
            "monotonicity/gap fails between (-9/2,-1/2) and (-9/2,1/2): step 2",
            "negative value H(1/2,1/2) = -1",
            "symmetry fails at (-9/2,-9/2)",
        ],
        (
            "Alexander data fails H-function validation: monotonicity/gap fails between (-9/2,-1/2) and (-9/2,1/2): step 2; "
            "monotonicity/gap fails between (-7/2,-1/2) and (-7/2,1/2): step 2; "
            "monotonicity/gap fails between (-5/2,-1/2) and (-5/2,1/2): step 2"
        ),
    ),
    "flip(9,7)": (
        142,
        "fff90c138ed199b7",
        [
            "monotonicity/gap fails between (-13/2,-1/2) and (-13/2,1/2): step 2",
            "negative value H(1/2,1/2) = -2",
            "symmetry fails at (-13/2,-13/2)",
        ],
        (
            "Alexander data fails H-function validation: monotonicity/gap fails between (-13/2,-1/2) and (-13/2,1/2): step 2; "
            "monotonicity/gap fails between (-11/2,-1/2) and (-11/2,1/2): step 2; "
            "monotonicity/gap fails between (-9/2,-1/2) and (-9/2,1/2): step 2"
        ),
    ),
    "hopf coefficient 2": (
        40,
        "604fa67fd70d4437",
        [
            "monotonicity/gap fails between (-7/2,-1/2) and (-7/2,1/2): step -1",
            "symmetry fails at (-7/2,-7/2)",
        ],
        (
            "Alexander data fails H-function validation: monotonicity/gap fails between (-7/2,-1/2) and (-7/2,1/2): step -1; "
            "monotonicity/gap fails between (-5/2,-1/2) and (-5/2,1/2): step -1; "
            "monotonicity/gap fails between (-3/2,-1/2) and (-3/2,1/2): step -1"
        ),
    ),
    "asymmetric": (
        70,
        "efda05f20ea90b3f",
        [
            "monotonicity/gap fails between (-9/2,-1/2) and (-9/2,1/2): step -1",
            "symmetry fails at (-9/2,-9/2)",
        ],
        (
            "Alexander data fails H-function validation: monotonicity/gap fails between (-9/2,-1/2) and (-9/2,1/2): step -1; "
            "monotonicity/gap fails between (-7/2,-1/2) and (-7/2,1/2): step -1; "
            "monotonicity/gap fails between (-5/2,-1/2) and (-5/2,1/2): step -1"
        ),
    ),
    "unstabilized window 0": (
        None,
        None,
        None,
        "first component must be an unknot",
    ),
    "width below l/2": (
        43,
        "b359615276c8fa73",
        [
            "symmetry fails at (-7/2,-7/2)",
            "width bound fails: N=1/2, l/2=3/2",
        ],
        (
            "Alexander data fails H-function validation: symmetry fails at (-7/2,-7/2); "
            "symmetry fails at (-7/2,-5/2); "
            "symmetry fails at (-7/2,-3/2)"
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_validate_failures_are_pinned(name):
    make = BROKEN[name]
    count, want_digest, firsts, refusal = PINNED[name]
    if count is None:
        with pytest.raises(InvalidInputError) as exc:
            validate(HFunction(make()))
        assert str(exc.value) == refusal
        return
    failures = validate(HFunction(make()))
    assert first_of_each(failures) == firsts
    assert (len(failures), digest(failures)) == (count, want_digest)


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_generic_profile_error_is_pinned(name):
    make = BROKEN[name]
    want = PINNED[name][3]
    if want is None:
        generic_profile(make())
        return
    with pytest.raises(InvalidInputError) as exc:
        generic_profile(make())
    assert str(exc.value) == want


GRID_CASES = {
    **{f"twobridge({r},{q})": (lambda r=r, q=q: twobridge_data(r, q))
       for r, q in two_bridge_pairs(15) + [(41, 31), (61, 41)]},
    "unlink": lambda: link(0, {}),
    "trefoil first component": lambda: link(1, {(1, 1): 1}, torus_knot(1)),
    "T(2,5) second component": lambda: link(0, {(0, 0): 1}, None, torus_knot(2)),
    "flip(5,3)": lambda: flipped(5, 3),
    "flip(21,13)": lambda: flipped(21, 13),
}


@pytest.mark.parametrize("name", sorted(GRID_CASES))
def test_grid_equals_pointwise_h(name):
    data = GRID_CASES[name]()
    h = HFunction(data)
    w = data.support_extent() + 6
    ds, rows = h.grid(w)
    assert ds == [d for d in range(-w, w + 1) if (d - data.linking) % 2 == 0]
    assert len(rows) == len(ds)
    for t, row in zip(ds, rows):
        assert row == [h(t, r) for r in ds], (name, t)


def test_grid_values_go_negative_on_flipped_data():
    _, rows = HFunction(flipped(21, 13)).grid(6)
    assert min(min(row) for row in rows) < 0


def test_verify_builds_each_link_once_and_scans_without_point_queries(
    monkeypatch,
):
    lsat.patterns.twobridge_data.cache_clear()
    walks = collections.Counter()
    point_queries = []
    walk = lsat.patterns.twobridge_walk
    call = lsat.hfunction.HFunction.__call__

    def counting_walk(r, q):
        walks[(r, q)] += 1
        return walk(r, q)

    def counting_call(self, t, r):
        point_queries.append((t, r))
        return call(self, t, r)

    monkeypatch.setattr(lsat.patterns, "twobridge_walk", counting_walk)
    monkeypatch.setattr(lsat.hfunction.HFunction, "__call__", counting_call)
    result = invoke(["verify", "--check", "all"])
    assert result.exit_code == 0, result.output
    assert set(walks) == set(two_bridge_pairs(9))
    assert set(walks.values()) == {1}

    # The sign probe, validate and the classifier read grids only.
    for r, q in two_bridge_pairs(9):
        data = twobridge_data(r, q)
        assert resolve_sign(flipped(r, q)) == data
        assert validate(data.hfunction()) == []
        validate(HFunction(flipped(r, q)))
        classify_operator(data.hfunction())
    assert point_queries == []


@pytest.mark.parametrize("argv, grids", [
    # The two-bridge walk's sign is proved by the tests, not probed, so a
    # two-bridge op scans only the grids its command reads.
    (["tau", "twobridge:41,31", "--tau", "1", "--eps", "1", "--method", "both"],
     0),
    (["hfunc", "twobridge:41,31"], 1),
    (["verify", "--check", "all"], 19),
])
def test_grid_builds_per_op(monkeypatch, argv, grids):
    lsat.patterns.twobridge_data.cache_clear()
    built = []
    grid = HFunction.grid

    def counting_grid(self, window):
        built.append(window)
        return grid(self, window)

    monkeypatch.setattr(HFunction, "grid", counting_grid)
    result = invoke(argv)
    assert result.exit_code == 0, result.output
    assert len(built) == grids


def test_json_path_builds_one_hfunction(tmp_path, monkeypatch):
    good, bad = tmp_path / "good.json", tmp_path / "flipped.json"
    for path, data in ((good, twobridge_data(21, 13)), (bad, flipped(21, 13))):
        obj = dict(data.to_json_obj(), g3=0)
        path.write_text(json.dumps(obj), encoding="utf-8")
    builds = []
    init = HFunction.__init__

    def counting_init(self, data):
        builds.append(data)
        init(self, data)

    monkeypatch.setattr(HFunction, "__init__", counting_init)
    # One HFunction per sign probed: the one that passes is validated and
    # kept by the profile.
    for path, want in ((good, 1), (bad, 2)):
        builds.clear()
        result = invoke(["classify", f"json:{path}"])
        assert result.exit_code == 0, result.output
        assert len(builds) == want


def column_scan(data):
    """Doubled t from which the columns of H stabilize, both ways.

    Walks down from past the support while column t-1 equals column t
    (upper stabilization) and, mirrored, H grows by exactly 1 from column
    -(t-1) to column -t.
    """
    bound = lsat.hfunction._snap_up(data.support_extent() + 4, data.linking)
    ds, rows = data.hfunction().grid(bound + 4)
    column = dict(zip(ds, rows))
    t = bound
    while t > 0:
        upper_ok = column[t - 2] == column[t]
        lower_ok = [v + 1 for v in column[2 - t]] == column[-t]
        if not (upper_ok and lower_ok):
            return t
        t -= 2
    return t


@pytest.mark.parametrize(
    "terms, l, top, want",
    [
        ({(1, 1): 1, (3, 1): 1}, 1, 1, 3),
        ({(2, 0): 1, (-2, 0): 1}, 0, 1, 4),
        ({(-4, 0): 1}, 0, 2, 6),
        ({(-3, 1): 1}, 1, 1, 5),
    ],
)
def test_width_scan_on_asymmetric_data(terms, l, top, want):
    # Asymmetric delta_tilde with a knotted first component: the H columns
    # still stabilize (upper and mirrored lower) at the pinned place, but
    # width reads delta_tilde only over an unknotted axis and refuses.
    data = link(l, terms, torus_knot(top))
    assert column_scan(data) == want
    with pytest.raises(InvalidInputError) as exc:
        width(data)
    assert str(exc.value) == "first component must be an unknot"


# l = 0, unknotted components, delta_tilde = y^-7: the term lies far below
# the width window N + 3 in r, and the data is not symmetric.
FAR_IN_R = {
    "linking": 0,
    "delta_tilde": {"vars": 2, "terms": [{"e": [0, -14], "c": 1}]},
    "delta1": {"vars": 1, "terms": [{"e": [0], "c": 1}]},
    "delta2": {"vars": 1, "terms": [{"e": [0], "c": 1}]},
}


@pytest.mark.parametrize(
    "argv", [["tau", "--tau", "1", "--eps", "1"], ["classify"], ["hfunc"]]
)
def test_data_past_the_width_window_is_refused(tmp_path, argv):
    path = tmp_path / "far-in-r.json"
    path.write_text(json.dumps(FAR_IN_R), encoding="utf-8")
    result = invoke([argv[0], f"json:{path}"] + argv[1:])
    assert result.exit_code == 2, result.output
    assert "symmetry fails" in result.stderr


def test_classifier_sees_data_past_the_width_window():
    data = LinkAlexData.from_json_obj(FAR_IN_R)
    assert classify_operator(HFunction(data)) == (
        "obstructed", "table differs from model at (-9,-9)"
    )
