"""Split local-knot patterns and the column walk's flat edge.

The split link unknot + T(2,2g+1) has linking 0, delta_tilde = 0,
delta1 = 1 and delta2 the Alexander polynomial of T(2,2g+1).  Its pattern
knot lies in a ball, so every satellite P(K, n) is T(2,2g+1) and
tau = g (Ozsvath-Szabo, "Knot Floer homology and the four-ball genus",
Geom. Topol. 7, 2003).  Its H-function steps inside H2's staircase, above
the support of delta_tilde, which is where the column walk must start.

The walk itself is checked against a plain downward scan from well above
the flat edge max(support, l + 2 g2), and its work, and validate's, is
checked to stay bounded however large |l| is.
"""

import json
import time

import pytest

from conftest import invoke
from lsat import (
    Companion,
    HFunction,
    LinkAlexData,
    classify_operator,
    g4_satellite_regime,
    generic_profile,
    resolve_sign,
    tau_closed_form,
    tau_oracle,
    twobridge_data,
    validate,
)
from lsat.errors import InvalidInputError
from lsat.halfgrid_poly import MAX_DOUBLED_EXPONENT
from lsat.hfunction import default_window


def poly(arity, terms):
    return {"vars": arity, "terms": [{"e": e, "c": c} for e, c in terms]}


def split_obj(g, linking=0):
    """JSON link data of unknot + T(2,2g+1), with the given linking."""
    return {
        "linking": linking,
        "delta_tilde": poly(2, []),
        "delta1": poly(1, [([0], 1)]),
        "delta2": poly(1, [([2 * k], (-1) ** (g - k)) for k in range(-g, g + 1)]),
    }


def split_data(g, linking=0):
    return resolve_sign(LinkAlexData.from_json_obj(split_obj(g, linking)))


GENERA = range(1, 7)

# Every companion with |tau| <= 3 (eps = 0 forces tau = 0), framings |n| <= 5.
POINTS = [
    (Companion(tau=tau, eps=eps), n)
    for eps in (-1, 0, 1)
    for tau in (range(-3, 4) if eps else [0])
    for n in range(-5, 6)
]


@pytest.mark.parametrize("g", GENERA)
def test_split_profile(g):
    prof = generic_profile(split_data(g))
    fields = (prof.l, prof.g3, prof.n_width,
              prof.r_minus, prof.r_center, prof.r_plus)
    assert fields == (0, g, 0, 2 * g, 2 * g, 2 * g)


@pytest.mark.parametrize("g", GENERA)
def test_split_tau_is_g_by_both_routes(g):
    prof = generic_profile(split_data(g))
    assert len(POINTS) == 165
    for K, n in POINTS:
        assert tau_closed_form(prof, K, n).value == g, (K, n)
        assert tau_oracle(prof, K, n).value == g, (K, n)


@pytest.mark.parametrize("g", GENERA)
def test_split_classifier_and_genus(g):
    prof = generic_profile(split_data(g))
    assert classify_operator(prof.hfunction()) == ("obstructed", f"g3 = {g} != 0")
    K = Companion(tau=1, eps=1)
    assert g4_satellite_regime(prof, K, 0) == (g, "zero-framing")


def test_a_knot_staircase_past_n_plus_3_is_still_checked():
    # Symmetric with delta2(1) = 1 and top 5, but not an L-space knot: H2
    # drops by 2 between s = 3 and s = 4, outside N + 3 = 3.
    obj = split_obj(0)
    obj["delta2"] = poly(1, [([e], 1) for e in (-10, -8, 0, 8, 10)]
                         + [([e], -1) for e in (-6, -2, 2, 6)])
    data = LinkAlexData.from_json_obj(obj)
    assert "monotonicity/gap fails between (0,3) and (0,4): step 2" in (
        validate(HFunction(data))
    )
    with pytest.raises(InvalidInputError, match="fails H-function validation"):
        generic_profile(resolve_sign(data))


def test_split_tau_at_the_exponent_cap(tmp_path):
    g = MAX_DOUBLED_EXPONENT // 2
    path = tmp_path / "split.json"
    path.write_text(json.dumps(split_obj(g)), encoding="utf-8")
    result = invoke(["tau", f"json:{path}", "--tau", "2", "--eps", "-1",
                     "--n", "3", "--method", "both", "--format", "json"])
    assert result.exit_code == 0, result.output
    out = json.loads(result.stdout)
    assert out["match"] is True
    assert out["closed"]["tau"] == out["oracle"]["tau"] == g


def test_split_hfunc_table_reaches_the_staircase_top(tmp_path):
    # R_t is g = 6 in every column, above floor(N + 3) = 3; the default
    # window widens to N + g + 1 so the table holds it.
    path = tmp_path / "split.json"
    path.write_text(json.dumps(split_obj(6)), encoding="utf-8")
    result = invoke(["hfunc", f"json:{path}", "--format", "json"])
    assert result.exit_code == 0, result.output
    out = json.loads(result.stdout)
    assert set(out["r_of_t_doubled"]) == {12}
    assert out["rows"][0]["r_doubled"] == 14


@pytest.mark.parametrize("linking", [10**9, -10**9])
def test_a_huge_linking_is_refused_quickly(tmp_path, linking):
    # |l|/2 > N = 0, so the width bound refuses it; validate's window must
    # not grow with |l| on the way there (checked first, before any grid).
    far = HFunction(LinkAlexData.from_json_obj(split_obj(0, linking)))
    assert default_window(far) == 6
    start = time.perf_counter()
    assert f"width bound fails: N=0, l/2={linking // 2}" in validate(far)
    path = tmp_path / "far.json"
    path.write_text(json.dumps(split_obj(0, linking)), encoding="utf-8")
    result = invoke(["tau", f"json:{path}", "--tau", "1", "--eps", "1",
                     "--n", "0"])
    assert result.exit_code == 2, result.output
    assert '"error": "InvalidInputError"' in result.stderr
    assert time.perf_counter() - start < 5.0


def flat_edge(data):
    """Doubled r at and past which every column is flat, snapped up."""
    g2 = data.delta2.degree() // 2
    edge = max(data.support_extent(), data.linking + 2 * g2)
    return edge + (edge - data.linking) % 2


def scanned_r(h, t):
    """R_t by reading h(t, r) down from 40 lattice steps above the edge."""
    r = flat_edge(h.data) + 80
    while h(t, r - 2) == h(t, r):
        r -= 2
    assert h(t, r - 2) == h(t, r) + 1
    return r


LINKS = {
    f"twobridge:{r},{q}": (twobridge_data, r, q)
    for r in range(3, 22, 2)
    for q in range(1, r + 1, 2)
}
LINKS.update({f"split:{g}": (split_data, g) for g in GENERA})


@pytest.mark.parametrize("name", LINKS)
def test_walk_matches_a_scan_from_above_the_edge(name):
    build, *params = LINKS[name]
    data = build(*params)
    h = data.hfunction()
    # The t range of validate's window.
    reach = default_window(h)
    ts = range(-reach + (reach - data.linking) % 2, reach + 1, 2)
    for t in ts:
        assert h.r_of_t(t) == scanned_r(h, t), t


@pytest.mark.parametrize("linking", [10**9, -10**9])
def test_walk_work_is_bounded_whatever_the_linking(linking):
    h = HFunction(LinkAlexData.from_json_obj(split_obj(32, linking)))
    start = time.perf_counter()
    assert h.r_of_t(0) == linking + 64
    assert time.perf_counter() - start < 1.0
