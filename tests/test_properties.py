"""Property-based tests over randomized inputs (hypothesis).

Half-integers are drawn as their doubled ints, as the library holds them.
"""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from lsat import (
    Companion,
    HFunction,
    half,
    shift,
    symmetrize,
    tau_cable,
    tau_closed_form,
    twobridge_data,
    twobridge_profile,
)
from lsat.errors import UnsupportedRegimeError
from lsat.halfgrid_poly import LaurentPoly2
from lsat.sweeps import COMPANIONS, FRAMINGS, LINK_PAIRS
from lsat.zcomplex import tau_oracle


halfints = st.integers(min_value=-40, max_value=40)  # doubled

family = st.sampled_from(LINK_PAIRS)

companions = st.sampled_from(COMPANIONS)


class TestHalf:
    @given(halfints)
    def test_str_round_trip_parity(self, a):
        text = half(a)
        assert ("/2" in text) == (a % 2 != 0)
        assert Fraction(text) == Fraction(a, 2)


def coset_polys(parity):
    exps = st.integers(-4, 4).map(lambda k: 2 * k + parity)
    term = st.tuples(st.tuples(exps, exps), st.integers(-5, 5))
    return st.lists(term, max_size=6).map(
        lambda items: LaurentPoly2.from_terms(
            {e: c for e, c in items if c != 0}
        )
    )


def add(p, q):
    """Coefficientwise sum: from_terms merges the concatenated terms."""
    return LaurentPoly2.from_terms(p.terms + q.terms)


class TestPolynomialAlgebra:
    @given(coset_polys(0), coset_polys(0))
    def test_add_commutative(self, p, q):
        assert add(p, q) == add(q, p)

    @given(coset_polys(1), coset_polys(1), coset_polys(1))
    def test_add_associative(self, p, q, r):
        assert add(add(p, q), r) == add(p, add(q, r))

    @given(coset_polys(0), halfints, halfints)
    def test_shift_additive(self, p, a, b):
        assert shift(shift(p, a, 0), 0, b) == shift(p, a, b)

    @given(coset_polys(0))
    def test_json_round_trip(self, p):
        assert LaurentPoly2.from_json_obj(p.to_json_obj()) == p

    @given(coset_polys(1))
    def test_symmetrize_fixed_point(self, p):
        # Symmetrizing a symmetric output changes nothing further.
        try:
            sym = symmetrize(p)
        except Exception:
            return  # asymmetric inputs are rejected; nothing to test
        assert symmetrize(sym) == sym


class TestHFunctionProperties:
    @settings(max_examples=30, deadline=None)
    @given(family, st.integers(-3, 3), st.integers(-3, 3))
    def test_pointwise_structure_laws(self, rq, ti, ri):
        data = twobridge_data(*rq)
        h = HFunction(data)
        parity = data.linking % 2
        t = 2 * ti + parity
        r = 2 * ri + parity
        value = h(t, r)
        assert value >= 0
        assert value - h(t + 2, r) in (0, 1)
        assert value - h(t, r + 2) in (0, 1)
        # Symmetry: H(t,r) + t + r = H(-t,-r), doubled.
        assert 2 * value + t + r == 2 * h(-t, -r)

    @settings(max_examples=20, deadline=None)
    @given(family, st.integers(-3, 3))
    def test_r_shape_monotone_up_to_center(self, rq, ti):
        prof = twobridge_profile(*rq)
        h = prof.hfunction()
        t = prof.l + 2 * ti  # doubled l/2 + ti
        r_here = h.r_of_t(t)
        assert r_here <= prof.r_center
        if t < prof.l:
            assert r_here <= h.r_of_t(t + 2)


class TestTauProperties:
    @settings(max_examples=40, deadline=None)
    @given(family, companions, st.sampled_from(FRAMINGS))
    def test_oracle_agrees_with_closed_form(self, rq, K, n):
        prof = twobridge_profile(*rq)
        try:
            cf = tau_closed_form(prof, K, n)
        except UnsupportedRegimeError:
            return
        assert tau_oracle(prof, K, n).value == cf.value

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(2, 7),
        st.integers(-7, 7).filter(lambda q: q != 0),
        st.integers(-3, 3),
    )
    def test_cable_mirror(self, p, q, tau):
        if math.gcd(p, abs(q)) != 1:
            return
        left = tau_cable(p, q, Companion(tau=tau, eps=-1)).value
        right = tau_cable(p, -q, Companion(tau=-tau, eps=1)).value
        assert left == -right
