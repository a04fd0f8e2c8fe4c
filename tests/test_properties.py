"""Property-based tests over randomized inputs (hypothesis).

Half-integers are drawn as their doubled ints, as the library holds them.
"""

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from lsat import (
    Companion,
    HFunction,
    generic_profile,
    half,
    resolve_sign,
    shift,
    symmetrize,
    tau_cable,
    tau_closed_form,
    twobridge_data,
    twobridge_profile,
    unlink_data,
    validate,
    width,
)
from lsat.errors import LsatError, UnsupportedRegimeError
from lsat.halfgrid_poly import LaurentPoly1, LaurentPoly2
from lsat.hfunction import _t22l
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


def torus_knot(g):
    """Alexander polynomial of T(2, 2g + 1), doubled degree 2g."""
    return LaurentPoly1.from_terms(
        {2 * k: (-1) ** (g - k) for k in range(-g, g + 1)}
    )


base_links = st.one_of(
    st.sampled_from(
        [(r, q) for r in range(3, 42, 2) for q in range(1, r + 1, 2)]
    ).map(lambda rq: twobridge_data(*rq)),
    st.integers(0, 6).map(
        lambda g: unlink_data().replace(delta2=torus_knot(g)) if g else unlink_data()
    ),
)


@st.composite
def near_links(draw):
    """A small valid link with 0-2 edits that may break it.

    Edits: a pair of equal terms symmetric about doubled (1,1), a term (or
    such a pair) far out in r, a linking shift of +-2, a torus-knot delta2
    and a negated delta_tilde.  Every edit keeps the lattice coset.
    """
    data = draw(base_links)
    parity = data.linking % 2
    lattice = st.integers(-3, 3).map(lambda k: 2 * k + parity)
    far = st.sampled_from(
        [e for e in range(-30, 31) if abs(e) >= 10 and (e - parity) % 2 == 0]
    )
    for edit in draw(st.lists(st.sampled_from(
            ["pair", "far", "linking", "delta2", "negate"]), max_size=2)):
        terms = dict(data.delta_tilde.terms)
        if edit in ("pair", "far"):
            e = (draw(lattice), draw(lattice if edit == "pair" else far))
            c = draw(st.sampled_from([-1, 1]))
            paired = edit == "pair" or draw(st.booleans())
            for at in {e, (2 - e[0], 2 - e[1])} if paired else {e}:
                terms[at] = terms.get(at, 0) + c
            data = data.replace(delta_tilde=LaurentPoly2.from_terms(terms))
        elif edit == "linking":
            data = data.replace(linking=data.linking + draw(st.sampled_from([-2, 2])))
        elif edit == "delta2":
            data = data.replace(delta2=torus_knot(draw(st.integers(1, 3))))
        else:
            data = data.replace(delta_tilde=data.delta_tilde.neg())
    return data


def removed_checks_hold(data):
    """Whether validate accepts ``data``; if so, assert what it no longer checks.

    On a grid past the flat edge: H >= H of T(2,2l), R_t defined for every
    t, nondecreasing up to l/2, nonincreasing after it and constant outside
    [-N, N].
    """
    h = HFunction(data)
    if validate(h):
        return False
    l, n_width, reach = h.linking, width(data), h._edge + 4
    ds, rows = h.grid(reach)
    for t, row in zip(ds, rows):
        for r, v in zip(ds, row):
            assert v >= _t22l(l, t, r), (t, r)
    rs = [h.r_of_t(t) for t in ds]
    for a, b, ra, rb in zip(ds, ds[1:], rs, rs[1:]):
        assert b > l or ra <= rb, (a, b)
        assert a < l or ra >= rb, (a, b)
        assert not (b <= -n_width or a >= n_width) or ra == rb, (a, b)
    return True


class TestValidateImpliesRemovedChecks:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(near_links())
    def test_accepted_data_passes_the_removed_checks(self, data):
        removed_checks_hold(data)


def pair_edited_links():
    """Profiles of the accepted links one near_links pair edit from a base.

    The bases are the unlink and the even-winding two-bridge links with
    r <= 5, each given winding 2 and the trefoil delta2; the pair is any
    symmetric one near_links draws, with either sign, and the edited data
    gets its sign resolved as CLI input does.  Each distinct link is kept
    once.
    """
    bases = [unlink_data()] + [twobridge_data(r, q) for r, q in ((3, 3), (5, 1), (5, 5))]
    found = {}
    for base in bases:
        base = base.replace(linking=2, delta2=torus_knot(1))
        for e, c in itertools.product(
                itertools.product(range(-6, 7, 2), repeat=2), (-1, 1)):
            terms = dict(base.delta_tilde.terms)
            for at in {e, (2 - e[0], 2 - e[1])}:
                terms[at] = terms.get(at, 0) + c
            try:
                data = resolve_sign(
                    base.replace(delta_tilde=LaurentPoly2.from_terms(terms))
                )
                found.setdefault(data, generic_profile(data))
            except LsatError:
                continue
    return list(found.values())


def _outcome(route, prof, K, n):
    try:
        res = route(prof, K, n)
    except LsatError as exc:
        return type(exc), str(exc)
    return res.value, res.case_tag


class TestCondTauRefusal:
    def test_both_routes_refuse_alike_where_cond_tau_fails(self):
        # On the eps = -1 formulas (eps = -1, and eps = 0 with n < 0) a
        # profile failing cond_tau is refused by both routes with one
        # message; everywhere else the two routes give one value and tag.
        profiles = pair_edited_links()
        failing = [p for p in profiles if not p.cond_tau]
        # test_cli's COND_TAU_FAILS link is one of the failing ones.
        assert {(0, -2): 1, (2, 4): 1} in [
            dict(p.data.delta_tilde.terms) for p in failing
        ]
        refused = 0
        for prof in profiles:
            for K in COMPANIONS:
                for n in FRAMINGS:
                    closed = _outcome(tau_closed_form, prof, K, n)
                    oracle = _outcome(tau_oracle, prof, K, n)
                    minus_side = K.eps == -1 or (K.eps == 0 and n < 0)
                    if minus_side and not prof.cond_tau:
                        what = "eps=-1" if K.eps else "eps=0 with n<0"
                        message = f"{what} needs the R_{{l/2-1}} condition"
                        assert closed == oracle == (UnsupportedRegimeError, message)
                        refused += 1
                    else:
                        assert closed == oracle and isinstance(closed[0], int)
        assert refused > 0


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
        left = tau_cable(p, q, Companion(tau=tau, eps=-1), 0).value
        right = tau_cable(p, -q, Companion(tau=-tau, eps=1), 0).value
        assert left == -right
