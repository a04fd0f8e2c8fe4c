"""Unit tests for the pattern families and profile assembly.

Exponents, R values and widths are doubled ints: 3 is 3/2.
"""

import json
import math

import pytest

from conftest import TWOBRIDGE_PAIRS, p2, twobridge_alexander_closed
from lsat import (
    Companion,
    HFunction,
    LinkAlexData,
    PatternProfile,
    bridge_braid_profile,
    cable_profile,
    generic_profile,
    resolve_sign,
    symmetrize,
    twobridge_alexander,
    twobridge_data,
    twobridge_eta,
    twobridge_profile,
    twobridge_walk,
    unlink_data,
    unlink_profile,
)
from lsat.cli import _load_pattern, parse_pattern_spec
from lsat.errors import InvalidInputError
from lsat.patterns import MAX_BRAID_STRANDS, bridge_braid_knot_check
from lsat.halfgrid_poly import LaurentPoly1, shift
from lsat.sweeps import LINK_PAIRS


def torus_knot_alexander(p, q):
    """Alexander polynomial of T(p, q), symmetrized, doubled exponents.

    (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)) by long division on
    coefficient lists.
    """
    def times(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def minus_one(n):
        return [-1] + [0] * (n - 1) + [1]

    num = times(minus_one(p * q), minus_one(1))
    den = times(minus_one(p), minus_one(q))
    quo = [0] * (len(num) - len(den) + 1)
    for k in range(len(quo) - 1, -1, -1):
        quo[k] = num[k + len(den) - 1]  # den is monic
        for i, d in enumerate(den):
            num[k + i] -= quo[k] * d
    assert not any(num)
    deg = len(quo) - 1
    return LaurentPoly1.from_terms(
        {2 * k - deg: c for k, c in enumerate(quo) if c}
    )


class TestEta:
    def test_14_3(self):
        signs = [twobridge_eta(14, 3, i) for i in range(1, 14)]
        assert signs == [1, 1, 1, 1, -1, -1, -1, -1, -1, 1, 1, 1, 1]

    def test_8_3(self):
        signs = [twobridge_eta(8, 3, i) for i in range(1, 8)]
        assert signs == [1, 1, -1, -1, -1, 1, 1]

    def test_2_1(self):
        assert twobridge_eta(2, 1, 1) == 1

    def test_nonpositive_p_refused(self):
        with pytest.raises(InvalidInputError, match="eta needs positive p and i"):
            twobridge_eta(0, 1, 1)

    def test_linking_from_odd_signs(self):
        # Sum of eta over odd indices equals the linking number (r-q)/2,
        # on every accepted pair.
        for r, q in TWOBRIDGE_PAIRS:
            p = r * q - 1
            total = sum(
                twobridge_eta(p, q, 2 * k + 1) for k in range(p // 2)
            )
            assert total == (r - q) // 2


class TestWalk:
    def test_5_3(self):
        pts = twobridge_walk(5, 3)
        assert pts == [
            (0, 0), (1, 1), (2, 1), (1, 0), (0, -1), (1, -1), (2, 0),
        ]

    def test_3_1_empty_walk(self):
        assert twobridge_walk(3, 1) == [(0, 0)]

    def test_3_3(self):
        assert len(twobridge_walk(3, 3)) == 4

    def test_point_count(self):
        # (rq-1)/2 distinct points on every accepted pair; the walk itself
        # does not recheck this.
        for r, q in TWOBRIDGE_PAIRS:
            pts = twobridge_walk(r, q)
            assert len(pts) == (r * q - 1) // 2
            assert len(set(pts)) == len(pts)


class TestAlexander:
    def test_5_3_unsymmetrized(self):
        # 1 + x1 x2 - x1^2 x2 - x1 - x2^{-1} + x1 x2^{-1} + x1^2
        expected = p2(
            {
                (0, 0): 1, (2, 2): 1, (4, 2): -1, (2, 0): -1,
                (0, -2): -1, (2, -2): 1, (4, 0): 1,
            }
        )
        assert twobridge_alexander(5, 3) == expected

    def test_walk_equals_closed_form(self):
        for r, q in LINK_PAIRS:
            assert twobridge_alexander(r, q) == (
                twobridge_alexander_closed(r, q)
            )

    def test_whitehead_normalized(self):
        # Delta-tilde of (3,3) is -x1 x2 + x1 + x2 - 1.
        data = twobridge_data(3, 3)
        assert data.delta_tilde == p2(
            {(2, 2): -1, (2, 0): 1, (0, 2): 1, (0, 0): -1}
        )

    def test_hopf_normalized(self):
        # Delta-tilde of (3,1) is x1^{1/2} x2^{1/2}.
        assert twobridge_data(3, 1).delta_tilde == p2({(1, 1): 1})


class TestProfiles:
    def test_mazur(self):
        prof = twobridge_profile(5, 3)
        assert prof.l == 1
        assert prof.r_center == 3
        assert prof.r_minus == 1
        assert prof.r_plus == 1
        assert prof.n_width == 3
        assert prof.g3 == 0
        assert prof.cond_tau

    def test_whitehead(self):
        prof = twobridge_profile(3, 3)
        assert prof.l == 0
        assert prof.r_center == 2
        assert prof.r_minus == 0
        assert prof.cond_eps

    def test_hopf(self):
        prof = twobridge_profile(3, 1)
        assert prof.l == 1
        assert prof.r_center == 1
        assert prof.g3 == 0
        assert prof.minimal_wrapping

    def test_unlink(self):
        prof = unlink_profile()
        assert prof.l == 0 and prof.g3 == 0
        assert prof.r_center == 0
        assert prof.minimal_wrapping

    def test_swapped_parameters_normalized(self):
        assert twobridge_profile(3, 5).l == twobridge_profile(5, 3).l

    def test_the_constructor_is_the_one_winding_guard(self):
        # No consumer re-checks the winding, so a profile with l < 0 must
        # never be built, by the constructor or by replace.
        msg = "profiles are normalized to winding >= 0"
        with pytest.raises(InvalidInputError, match=msg):
            PatternProfile(l=-1, g3=0, n_width=1, r_minus=None, r_center=1,
                           r_plus=None)
        with pytest.raises(InvalidInputError, match=msg):
            twobridge_profile(5, 3).replace(l=-1)

    @pytest.mark.parametrize("change, msg", [
        (dict(g3=-1), "negative Seifert genus"),
        (dict(r_center=None), "every profile needs r_center"),
        (dict(r_minus=None), "r_minus and r_plus come as a pair"),
        (dict(r_plus=None), "r_minus and r_plus come as a pair"),
        (dict(n_width=4), "n_width = 2 is off the lattice l/2 [+] Z"),
        (dict(r_minus=-2), "r_minus = -1 is off the lattice l/2 [+] Z"),
        (dict(r_center=4), "r_center = 2 is off the lattice l/2 [+] Z"),
        (dict(r_plus=0), "r_plus = 0 is off the lattice l/2 [+] Z"),
    ])
    def test_the_constructor_is_the_one_r_value_guard(self, change, msg):
        # The Mazur profile: l = 1, so the width and every doubled R value
        # are odd.
        fields = dict(l=1, g3=0, n_width=3, r_minus=1, r_center=3, r_plus=1)
        PatternProfile(**fields)
        with pytest.raises(InvalidInputError, match=msg):
            PatternProfile(**{**fields, **change})

    def test_every_two_bridge_profile_is_accepted(self):
        for r, q in TWOBRIDGE_PAIRS:
            prof = twobridge_profile(r, q)
            assert None not in (prof.r_minus, prof.r_plus), (r, q)

    def test_a_closed_form_profile_has_no_hfunction(self):
        with pytest.raises(InvalidInputError, match="carries no Alexander data"):
            cable_profile(3, 2).hfunction()

    @pytest.mark.parametrize("r, q, msg", [
        (4, 3, "two-bridge parameters must be odd"),
        (3, 5, r"two-bridge parameters need r >= q >= 1"),
        (67, 3, r"two-bridge r = 67 exceeds the limit r <= 65"),
        (1, 1, r"\(1,1\) is not a two-bridge operator"),
    ])
    def test_twobridge_data_refuses_bad_parameters(self, r, q, msg):
        with pytest.raises(InvalidInputError, match=msg):
            twobridge_data(r, q)


class TestCableProfile:
    def test_2_1(self):
        prof = cable_profile(2, 1)
        assert prof.l == 2 and prof.g3 == 0
        assert prof.r_center == 2
        assert prof.minimal_wrapping

    def test_3_2(self):
        prof = cable_profile(3, 2)
        assert prof.l == 3 and prof.g3 == 1
        assert prof.r_center == 5

    def test_rejects_gcd(self):
        with pytest.raises(InvalidInputError):
            cable_profile(4, 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            cable_profile(2, 3)


class TestBridgeBraidProfile:
    def test_4_5_2(self):
        prof = bridge_braid_profile(4, 5, 2)
        assert prof.l == 4
        assert prof.g3 == 7
        assert prof.minimal_wrapping

    def test_parity_rejected(self):
        # (3,4,1) is in range, and its word's strand permutation is not one
        # 3-cycle, so the closure is a link.
        with pytest.raises(InvalidInputError) as exc:
            bridge_braid_profile(3, 4, 1)
        assert str(exc.value) == "closure of B(3,4,1) is a link"

    def test_link_closure_rejected(self):
        # r = 2p is outside the profile's range p < r < 2p, which is checked
        # before the closure.
        with pytest.raises(InvalidInputError) as exc:
            bridge_braid_profile(3, 6, 2)
        assert str(exc.value) == "bridge braid profile needs p < r < 2p"

    def test_link_closure_message(self):
        # B(5,7,2) is in range and closes to a 3-component link.
        with pytest.raises(InvalidInputError) as exc:
            bridge_braid_profile(5, 7, 2)
        assert str(exc.value) == "closure of B(5,7,2) is a link"


def braid_closure_components(p, q, b):
    """Components of the closure of (s_b...s_1)(s_{p-1}...s_1)^q, q >= 0.

    Composes the word one Artin generator at a time: s_i crosses the
    strands at positions i - 1 and i.  The closure joins the strand that
    ends at position j to the one that starts there.
    """
    word = list(range(b, 0, -1)) + list(range(p - 1, 0, -1)) * q
    at = list(range(p))  # at[position] = strand now there
    for i in word:
        at[i - 1], at[i] = at[i], at[i - 1]
    ends = {strand: position for position, strand in enumerate(at)}
    components, seen = 0, set()
    for start in range(p):
        if start not in seen:
            components += 1
            strand = start
            while strand not in seen:
                seen.add(strand)
                strand = ends[strand]
    return components


def braid_refusal(p, q, b):
    try:
        bridge_braid_knot_check(p, q, b)
    except InvalidInputError as exc:
        return str(exc)
    return None


class TestBridgeBraidKnotCheck:
    def test_agrees_with_the_composed_word(self):
        # Every (p, q mod p, b) with 2 <= p <= 12; the answer depends on q
        # only mod p, so q - p, q - 2p and q + 5p (negative words among
        # them) must answer as q does.
        checked = 0
        for p in range(2, 13):
            for q in range(p, 2 * p):
                for b in range(1, p - 1):
                    knot = braid_closure_components(p, q, b) == 1
                    for q2 in (q, q - p, q - 2 * p, q + 5 * p):
                        want = None if knot else (
                            f"closure of B({p},{q2},{b}) is a link"
                        )
                        assert braid_refusal(p, q2, b) == want, (p, q2, b)
                    checked += 1
        assert checked == sum(p * (p - 2) for p in range(2, 13))

    def test_principal_range_to_nine(self):
        # p < q < 2p, p <= 9: the residue and parity tests this check
        # replaced accepted 62 triples, 14 of which close to links.
        accepted = [
            (p, q, b) for p in range(3, 10) for q in range(p + 1, 2 * p)
            for b in range(1, p - 1) if braid_refusal(p, q, b) is None
        ]
        assert len(accepted) == 48
        assert (4, 5, 2) in accepted and (5, 6, 2) in accepted
        assert braid_refusal(5, 7, 2) == "closure of B(5,7,2) is a link"

    def test_only_the_last_accepted_triple_is_kept(self):
        bridge_braid_knot_check.cache_clear()
        for triple in [(5, 7, 2), (5, 7, 2), (4, 5, 2), (4, 5, 2), (5, 6, 2),
                       (4, 5, 2)]:
            braid_refusal(*triple)
        info = bridge_braid_knot_check.cache_info()
        # Each refusal walks again, and so does an accept after another
        # accept; only the immediate repeat does not.
        assert (info.misses, info.hits, info.currsize) == (5, 1, 1)

    @pytest.mark.parametrize("p, b, msg", [
        (1, 0, "1-bridge braid needs p >= 2, 0 < b < p-1"),
        (4, 3, "1-bridge braid needs p >= 2, 0 < b < p-1"),
        (MAX_BRAID_STRANDS + 1, 1,
         f"1-bridge braid p = {MAX_BRAID_STRANDS + 1} exceeds the limit "
         f"p <= {MAX_BRAID_STRANDS}"),
    ])
    def test_range_and_strand_cap(self, p, b, msg):
        assert braid_refusal(p, p + 1, b) == msg

    def test_knot_at_the_cap(self):
        # B(p, p + 1, 2) closes to a knot at every even p; the cap is even.
        assert all(
            braid_closure_components(p, p + 1, 2) == 1 for p in range(4, 40, 2)
        )
        cap = MAX_BRAID_STRANDS
        assert braid_refusal(cap, cap + 1, 2) is None


class TestGenericProfile:
    def test_whitehead_data(self):
        prof = generic_profile(twobridge_data(3, 3))
        assert prof.l == 0
        assert prof.r_center == 2
        assert prof.cond_tau and prof.cond_eps

    def test_hopf_data(self):
        prof = generic_profile(twobridge_data(3, 1))
        assert prof.l == 1
        assert prof.r_center == 1
        assert prof.g3 == 0

    def test_g3_conflict_under_minimal_wrapping(self, tmp_path):
        # A JSON g3 is a claim, refused where it disagrees with delta2.
        path = tmp_path / "hopf.json"
        path.write_text(json.dumps(dict(twobridge_data(3, 1).to_json_obj(), g3=1)))
        with pytest.raises(InvalidInputError, match="g3 = 1 disagrees"):
            _load_pattern(f"json:{path}")

    def test_g3_required_without_minimal_wrapping(self):
        # Without minimal wrapping g3 is still read from delta2.
        prof = generic_profile(twobridge_data(3, 3))
        assert not prof.minimal_wrapping
        assert prof.g3 == 0

    @pytest.mark.parametrize(
        "p, q",
        [(p, q) for p in range(2, 7) for q in range(1, p) if math.gcd(p, q) == 1],
    )
    def test_cable_link_with_knotted_second_component(self, p, q):
        # The link axis + C_{p,q}: its second component is the torus knot
        # T(p,q), so g3 comes from a delta2 of positive degree.
        walk = p2({(2 * i, 2 * q * i): 1 for i in range(p)})
        data = resolve_sign(LinkAlexData(
            linking=p,
            delta_tilde=shift(symmetrize(walk), 1, 1),
            delta1=LaurentPoly1.one(),
            delta2=torus_knot_alexander(p, q),
        ))
        prof = generic_profile(data)
        assert prof.minimal_wrapping
        assert prof.g3 == (prof.r_center - prof.l) // 2
        assert prof.g3 == cable_profile(p, q).g3


class TestCompanion:
    def test_eps_zero_forces_tau_zero(self):
        with pytest.raises(InvalidInputError):
            Companion(tau=1, eps=0)

    def test_eps_range(self):
        with pytest.raises(InvalidInputError):
            Companion(tau=0, eps=2)


class TestParseSpec:
    def test_families(self):
        assert parse_pattern_spec("twobridge:5,3") == ("twobridge", 5, 3)
        assert parse_pattern_spec("cable:2,3") == ("cable", 2, 3)
        assert parse_pattern_spec("braid:4,5,2") == ("braid", 4, 5, 2)
        assert parse_pattern_spec("json:/tmp/x.json") == ("json", "/tmp/x.json")

    def test_rejects_malformed(self):
        for bad in ("twobridge", "twobridge:5", "cable:a,b", "nope:1,2"):
            with pytest.raises(InvalidInputError):
                parse_pattern_spec(bad)
