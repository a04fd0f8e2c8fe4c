"""Unit tests for the pattern families and profile assembly.

Exponents, R values and widths are doubled ints: 3 is 3/2.
"""

import pytest

from conftest import twobridge_alexander_closed
from lsat import (
    Companion,
    HFunction,
    bridge_braid_profile,
    cable_profile,
    generic_profile,
    twobridge_alexander,
    twobridge_data,
    twobridge_eta,
    twobridge_profile,
    twobridge_walk,
    unlink_data,
    unlink_profile,
)
from lsat.errors import InvalidInputError
from lsat.halfgrid_poly import LaurentPoly2
from lsat.patterns import parse_pattern_spec
from lsat.sweeps import LINK_PAIRS


def p2(terms):
    return LaurentPoly2.from_terms(terms)


class TestEta:
    def test_14_3(self):
        signs = [twobridge_eta(14, 3, i) for i in range(1, 14)]
        assert signs == [1, 1, 1, 1, -1, -1, -1, -1, -1, 1, 1, 1, 1]

    def test_8_3(self):
        signs = [twobridge_eta(8, 3, i) for i in range(1, 8)]
        assert signs == [1, 1, -1, -1, -1, 1, 1]

    def test_2_1(self):
        assert twobridge_eta(2, 1, 1) == 1

    def test_linking_from_odd_signs(self):
        # Sum of eta over odd indices equals the linking number (r-q)/2.
        for r, q in LINK_PAIRS:
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
        for r, q in LINK_PAIRS:
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
        with pytest.raises(InvalidInputError):
            bridge_braid_profile(3, 4, 1)

    def test_link_closure_rejected(self):
        # q = 0 mod p closes to a link, not a knot.
        with pytest.raises(InvalidInputError):
            bridge_braid_profile(3, 6, 2)


class TestGenericProfile:
    def test_whitehead_data(self):
        prof = generic_profile(twobridge_data(3, 3), g3=0)
        assert prof.l == 0
        assert prof.r_center == 2
        assert prof.cond_tau and prof.cond_eps

    def test_hopf_data(self):
        prof = generic_profile(twobridge_data(3, 1))
        assert prof.l == 1
        assert prof.r_center == 1
        assert prof.g3 == 0

    def test_g3_conflict_under_minimal_wrapping(self):
        with pytest.raises(InvalidInputError):
            generic_profile(twobridge_data(3, 1), g3=1)

    def test_g3_required_without_minimal_wrapping(self):
        with pytest.raises(InvalidInputError):
            generic_profile(twobridge_data(3, 3))


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
