"""Unit tests for exact half-integer Laurent polynomial arithmetic.

Every exponent is written doubled: 3 stands for x^{3/2}.
"""

import pytest

from lsat import LaurentPoly1, LaurentPoly2, half, shift, symmetrize
from lsat.errors import CosetMismatchError, InvalidInputError
from lsat.halfgrid_poly import knot_chi_expansion


class TestHalf:
    def test_str(self):
        assert half(3) == "3/2"
        assert half(-1) == "-1/2"
        assert half(4) == "2"


def p2(terms):
    return LaurentPoly2.from_terms(terms)


def add(p, q):
    """Coefficientwise sum: from_terms merges the concatenated terms."""
    return LaurentPoly2.from_terms(p.terms + q.terms)


class TestAddShift:
    def test_add_cancellation(self):
        # (x1 + 1) + (-x1) = 1
        left = p2({(2, 0): 1, (0, 0): 1})
        right = p2({(2, 0): -1})
        assert add(left, right) == p2({(0, 0): 1})

    def test_add_zero(self):
        zero = LaurentPoly2.zero()
        assert add(zero, zero).is_zero

    def test_add_disjoint(self):
        left = p2({(2, 2): 1, (2, 0): 1})
        right = p2({(0, 2): 1, (0, 0): -1})
        assert add(left, right) == p2({(2, 2): 1, (2, 0): 1, (0, 2): 1, (0, 0): -1})

    def test_add_coset_mismatch(self):
        with pytest.raises(CosetMismatchError):
            add(p2({(0, 0): 1}), p2({(1, 1): 1}))

    def test_shift_half(self):
        wh = p2({(1, 1): -1, (1, -1): 1, (-1, 1): 1, (-1, -1): -1})
        shifted = shift(wh, 1, 1)
        assert shifted == p2({(2, 2): -1, (2, 0): 1, (0, 2): 1, (0, 0): -1})

    def test_shift_identity(self):
        poly = p2({(2, 0): 3, (0, 2): -3})
        assert shift(poly, 0, 0) == poly

    def test_shift_one(self):
        # shift(1, 1/2, 1/2) = x1^{1/2} x2^{1/2}
        assert shift(p2({(0, 0): 1}), 1, 1) == p2({(1, 1): 1})


class TestSymmetrize:
    def test_recenter_by_newton_midpoint(self):
        # -x1^2 x2 + x1 x2 + x1 - 1 recenters by (x1 x2^{1/2})^{-1}.
        poly = p2({(4, 2): -1, (2, 2): 1, (2, 0): 1, (0, 0): -1})
        sym = symmetrize(poly)
        assert sym == p2({(2, 1): -1, (0, 1): 1, (0, -1): 1, (-2, -1): -1})
        assert sym == shift(poly, -2, -1)

    def test_whitehead_translate(self):
        # x1 * (-x1 x2 + x1 + x2 - 1): a unit translate of the Whitehead
        # polynomial recenters back to it.
        poly = p2({(4, 2): -1, (4, 0): 1, (2, 2): 1, (2, 0): -1})
        sym = symmetrize(poly)
        assert sym == p2({(1, 1): -1, (1, -1): 1, (-1, 1): 1, (-1, -1): -1})
        assert sym == shift(poly, -3, -1)

    def test_constant(self):
        assert symmetrize(p2({(0, 0): 1})) == p2({(0, 0): 1})

    def test_half_recentering(self):
        # x1 - 1 recenters to x1^{1/2} - x1^{-1/2}
        sym = symmetrize(p2({(2, 0): 1, (0, 0): -1}))
        assert sym == p2({(1, 0): 1, (-1, 0): -1})

    def test_rejects_asymmetric(self):
        from lsat.errors import NotAlexanderSymmetricError

        with pytest.raises(NotAlexanderSymmetricError):
            symmetrize(p2({(2, 0): 1, (0, 0): -2}))

    def test_rejects_asymmetry_after_the_first_term(self):
        from lsat.errors import NotAlexanderSymmetricError

        # Recenters to x1^-1 x2^-1 + x1^-1 x2 - 2 x1 x2^-1 - x1 x2: the first
        # term fixes the sign -1, and the second term's partner breaks it.
        poly = p2({(0, 0): 1, (0, 4): 1, (4, 0): -2, (4, 4): -1})
        with pytest.raises(NotAlexanderSymmetricError) as info:
            symmetrize(poly)
        assert str(info.value) == (
            "coefficient at (-1,1) breaks inversion symmetry"
        )

    # The first term sets the global sign and has no test of its own: an
    # asymmetric first term fails the loop at that term.  Class and message
    # as pinned before that test went.
    @pytest.mark.parametrize("terms, where", [
        # asymmetric first term: partner of another size, or none
        ({(2, 0): 1, (0, 0): -2}, "(-1/2,0)"),
        ({(0, 0): 1, (2, 2): 1, (4, 0): 3}, "(-1,-1/2)"),
        # a pair whose sign is flipped against the first term's
        ({(-1, -1): 1, (1, 1): -1, (-1, 1): 1, (1, -1): 1}, "(-1/2,1/2)"),
        # a later term whose partner has another size
        ({(-1, -1): 1, (1, 1): 1, (-1, 1): 1, (1, -1): 2}, "(-1/2,1/2)"),
    ])
    def test_first_failing_term_is_named(self, terms, where):
        from lsat.errors import NotAlexanderSymmetricError

        with pytest.raises(NotAlexanderSymmetricError) as info:
            symmetrize(p2(terms))
        assert type(info.value) is NotAlexanderSymmetricError
        assert str(info.value) == (
            f"coefficient at {where} breaks inversion symmetry"
        )

    def test_idempotent(self):
        poly = p2({(1, 1): -1, (1, -1): 1, (-1, 1): 1, (-1, -1): -1})
        sym = symmetrize(poly)
        assert symmetrize(sym) == sym


def p1(terms):
    return LaurentPoly1.from_terms(terms)


def chi_of(delta):
    """chi(s) at every doubled s, read from knot_chi_expansion's terms.

    The terms run from one step below delta's bottom degree to its top
    degree; below them chi is the constant 1 and above them 0.
    """
    terms = dict(knot_chi_expansion(delta).terms)
    low = delta.valuation() - 2
    return lambda s: terms.get(s, 1 if s < low else 0)


class TestChiExpansion:
    def test_unknot(self):
        assert knot_chi_expansion(LaurentPoly1.one()).terms == ((-2, 1), (0, 1))
        chi = chi_of(LaurentPoly1.one())
        for s in range(-5, 1):
            assert chi(2 * s) == 1
        assert chi(2) == 0

    def test_trefoil(self):
        # x - 1 + x^{-1}
        delta = p1({2: 1, 0: -1, -2: 1})
        assert knot_chi_expansion(delta).terms == ((-4, 1), (-2, 1), (2, 1))
        chi = chi_of(delta)
        assert chi(2) == 1
        assert chi(0) == 0
        for s in range(-4, 0):
            assert chi(2 * s) == 1

    def test_above_top_degree(self):
        chi = chi_of(LaurentPoly1.one())
        assert chi(6) == 0

    def test_rejects_nonunit(self):
        with pytest.raises(InvalidInputError):
            knot_chi_expansion(p1({2: 1, 0: 1}))

    @pytest.mark.parametrize("depth, terms", [
        (-6, ((-6, 1), (-4, 1), (-2, 1), (2, 1))),
        (-4, ((-4, 1), (-2, 1), (2, 1))),
        (-2, ((-2, 1), (2, 1))),
        (0, ((2, 1),)),
    ])
    def test_even_depths_on_the_trefoil(self, depth, terms):
        # The nonzero chi(s) for depth <= s: the tail of 1 below the
        # returned terms reaches every even depth.
        chi = chi_of(p1({2: 1, 0: -1, -2: 1}))
        assert tuple((s, chi(s)) for s in range(depth, 4, 2) if chi(s)) == terms

    def test_t25_staircase(self):
        # x^2 - x + 1 - x^{-1} + x^{-2}: chi alternates 1, 0 down to the tail.
        delta = p1({4: 1, 2: -1, 0: 1, -2: -1, -4: 1})
        assert knot_chi_expansion(delta).terms == (
            (-6, 1), (-4, 1), (0, 1), (4, 1)
        )

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidInputError, match="not inversion-symmetric"):
            knot_chi_expansion(p1({2: 1, 0: -1, -4: 1}))

    def test_rejects_half_integral_exponents(self):
        # Symmetric with delta(1) = 1, but x^{1/2} has no integer degree.
        with pytest.raises(InvalidInputError, match="integer exponents"):
            knot_chi_expansion(p1({2: -1, 1: 1, 0: 1, -1: 1, -2: -1}))

    def test_negative_sign_normalized(self):
        assert chi_of(p1({0: -1}))(0) == 1

    def test_tail_matches_unknot_h(self):
        # sum_{s' >= a} chi_U(s') = max(1 - a, 0) for integral a
        chi = chi_of(LaurentPoly1.one())
        for a in range(-8, 4):
            total = sum(chi(2 * s) for s in range(a, 2))
            assert total == max(1 - a, 0)


class TestJson:
    def test_round_trip_poly1(self):
        poly = p1({3: 2, -3: 2, 1: -5, -1: -5})
        assert LaurentPoly1.from_json_obj(poly.to_json_obj()) == poly

    def test_round_trip_poly2(self):
        poly = p2({(1, 1): -1, (1, -1): 7, (-1, 1): 7, (-1, -1): -1})
        assert LaurentPoly2.from_json_obj(poly.to_json_obj()) == poly

    def test_doubled_exponents_on_wire(self):
        obj = p2({(1, -1): 4}).to_json_obj()
        assert obj == {"vars": 2, "terms": [{"e": [1, -1], "c": 4}]}
