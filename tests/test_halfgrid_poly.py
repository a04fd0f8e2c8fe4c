"""Unit tests for exact half-integer Laurent polynomial arithmetic."""

import pytest

from lsat import HalfInt, LaurentPoly1, LaurentPoly2, shift, symmetrize
from lsat.errors import CosetMismatchError, InvalidInputError
from lsat.halfgrid_poly import knot_chi_expansion


def hi(doubled):
    return HalfInt(doubled)


class TestHalfInt:
    def test_arithmetic(self):
        assert hi(1) + hi(1) == HalfInt.whole(1)
        assert hi(3) - 1 == hi(1)
        assert -hi(5) == hi(-5)
        assert hi(1) * 3 == hi(3)

    def test_ordering(self):
        assert hi(1) < hi(3) <= hi(3) < HalfInt.whole(2)
        assert max(hi(-1), hi(1)) == hi(1)

    def test_integrality(self):
        assert HalfInt.whole(4).is_integral
        assert not hi(3).is_integral
        assert HalfInt.whole(4).as_int() == 4
        with pytest.raises(InvalidInputError):
            hi(3).as_int()

    def test_str(self):
        assert str(hi(3)) == "3/2"
        assert str(hi(-1)) == "-1/2"
        assert str(HalfInt.whole(2)) == "2"


def p2(terms):
    return LaurentPoly2.from_terms(
        {(hi(a), hi(b)): c for (a, b), c in terms.items()}
    )


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
        shifted = shift(wh, hi(1), hi(1))
        assert shifted == p2({(2, 2): -1, (2, 0): 1, (0, 2): 1, (0, 0): -1})

    def test_shift_identity(self):
        poly = p2({(2, 0): 3, (0, 2): -3})
        assert shift(poly, 0, 0) == poly

    def test_shift_one(self):
        # shift(1, 1/2, 1/2) = x1^{1/2} x2^{1/2}
        assert shift(p2({(0, 0): 1}), hi(1), hi(1)) == p2({(1, 1): 1})


class TestSymmetrize:
    def test_recenter_by_newton_midpoint(self):
        # -x1^2 x2 + x1 x2 + x1 - 1 recenters by (x1 x2^{1/2})^{-1}.
        poly = p2({(4, 2): -1, (2, 2): 1, (2, 0): 1, (0, 0): -1})
        sym = symmetrize(poly)
        assert sym == p2({(2, 1): -1, (0, 1): 1, (0, -1): 1, (-2, -1): -1})
        assert sym == shift(poly, hi(-2), hi(-1))

    def test_whitehead_translate(self):
        # x1 * (-x1 x2 + x1 + x2 - 1): a unit translate of the Whitehead
        # polynomial recenters back to it.
        poly = p2({(4, 2): -1, (4, 0): 1, (2, 2): 1, (2, 0): -1})
        sym = symmetrize(poly)
        assert sym == p2({(1, 1): -1, (1, -1): 1, (-1, 1): 1, (-1, -1): -1})
        assert sym == shift(poly, hi(-3), hi(-1))

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

    def test_idempotent(self):
        poly = p2({(1, 1): -1, (1, -1): 1, (-1, 1): 1, (-1, -1): -1})
        sym = symmetrize(poly)
        assert symmetrize(sym) == sym


def p1(terms):
    return LaurentPoly1.from_terms({hi(a): c for a, c in terms.items()})


class TestChiExpansion:
    def test_unknot(self):
        chi = knot_chi_expansion(LaurentPoly1.one(), HalfInt.whole(-5))
        for s in range(-5, 1):
            assert chi.coeff(HalfInt.whole(s)) == 1
        assert chi.coeff(HalfInt.whole(1)) == 0

    def test_trefoil(self):
        # x - 1 + x^{-1}
        delta = p1({2: 1, 0: -1, -2: 1})
        chi = knot_chi_expansion(delta, HalfInt.whole(-4))
        assert chi.coeff(HalfInt.whole(1)) == 1
        assert chi.coeff(HalfInt.whole(0)) == 0
        for s in range(-4, 0):
            assert chi.coeff(HalfInt.whole(s)) == 1

    def test_above_top_degree(self):
        chi = knot_chi_expansion(LaurentPoly1.one(), HalfInt.whole(-1))
        assert chi.coeff(HalfInt.whole(3)) == 0

    def test_rejects_nonunit(self):
        with pytest.raises(InvalidInputError):
            knot_chi_expansion(p1({2: 1, 0: 1}), HalfInt.whole(-3))

    def test_negative_sign_normalized(self):
        chi = knot_chi_expansion(p1({0: -1}), HalfInt.whole(-3))
        assert chi.coeff(HalfInt.whole(0)) == 1

    def test_tail_matches_unknot_h(self):
        # sum_{s' >= a} chi_U(s') = max(1 - a, 0) for integral a
        chi = knot_chi_expansion(LaurentPoly1.one(), HalfInt.whole(-10))
        for a in range(-8, 4):
            total = sum(
                chi.coeff(HalfInt.whole(s)) for s in range(a, 2)
            )
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
