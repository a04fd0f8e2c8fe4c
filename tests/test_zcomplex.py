"""Unit tests for the F2[Z] chain-complex oracle and staircases."""

import random
import re

import pytest

from conftest import hi
from lsat import (
    Companion,
    HFunction,
    HalfInt,
    ZComplex,
    build_summand,
    staircase_from_column,
    tau_closed_form,
    tau_oracle,
    tower_alexander,
    twobridge_data,
    twobridge_profile,
    unlink_data,
    unlink_profile,
)
from lsat import zcomplex
from lsat.errors import (
    InvalidInputError,
    LsatError,
    UnsupportedRegimeError,
    VerificationError,
)
from lsat.zcomplex import summand_case


WHITEHEAD = twobridge_profile(3, 3)
MAZUR = twobridge_profile(5, 3)


class TestZComplexInvariants:
    def test_d_squared_enforced(self):
        # b -> a and c -> b and c -> a with inconsistent weights break
        # homogeneity; a genuine d^2 != 0 needs a longer zig-zag, so
        # build one: two composable arrows with an odd composite count.
        gens = [("a", 0, 0), ("b", 1, -1), ("c", 2, -2)]
        arrows = [("c", "b", 1), ("b", "a", 1)]
        with pytest.raises(VerificationError):
            ZComplex.build(gens, arrows).check()

    def test_homogeneity_enforced(self):
        gens = [("a", 0, 0), ("b", 1, -1)]
        # A(b) - A(a) = 1 but the arrow claims Z-exponent 2, so gr_z drops
        # by 1 where Z^2 needs 1 - 4 = -3.  Alexander homogeneity follows
        # from the gr_w and gr_z shifts, so this is the gr_z check.
        with pytest.raises(VerificationError, match="gr_z shift"):
            ZComplex.build(gens, [("b", "a", 2)]).check()

    def test_arrows_mod_two(self):
        gens = [("a", 0, 0), ("b", 1, -1)]
        c = ZComplex.build(gens, [("b", "a", 1), ("b", "a", 1)])
        assert c.arrows == ()


CHECK_MESSAGES = [
    # (generators, arrows in check order, error class, full message)
    ((("a", 0, 0), ("a", 1, -1)), (), InvalidInputError,
     "duplicate generator names"),
    ((("a", 0, 0),), (("b", "a", 1),), InvalidInputError,
     "arrow b->a off the complex"),
    ((("a", 0, 0),), (("a", "c", 1),), InvalidInputError,
     "arrow a->c off the complex"),
    ((("a", 0, 0), ("b", 1, 3)), (("b", "a", -1),), InvalidInputError,
     "negative Z-exponent on b->a"),
    ((("a", 0, 0), ("b", 2, -3)), (("b", "a", 2),), VerificationError,
     "arrow b->a does not drop gr_w by 1"),
    ((("a", 0, 0), ("b", 1, -1)), (("b", "a", 2),), VerificationError,
     "arrow b->a: gr_z shift inconsistent with Z^2"),
    ((("a", 0, 0), ("b", 1, -1), ("c", 2, -2)),
     (("c", "b", 1), ("b", "a", 1)), VerificationError,
     "d^2 != 0: surviving composite ('c', 'a', 2)"),
    # The first failing arrow decides, whatever fails after it.
    ((("a", 0, 0), ("b", 1, -1)), (("b", "a", 2), ("b", "x", 0)),
     VerificationError, "arrow b->a: gr_z shift inconsistent with Z^2"),
    ((("a", 0, 0), ("b", 1, -1)), (("b", "x", 0), ("b", "a", 2)),
     InvalidInputError, "arrow b->x off the complex"),
    # Two paths c->a cancel mod 2; the odd composite d->a survives.
    ((("a", 0, 0), ("b", 1, -1), ("e", 1, 1), ("c", 2, 0), ("d", 2, -2)),
     (("c", "b", 0), ("c", "e", 1), ("b", "a", 1), ("e", "a", 0),
      ("d", "b", 1)), VerificationError,
     "d^2 != 0: surviving composite ('d', 'a', 2)"),
]


@pytest.mark.parametrize("gens, arrows, error, message", CHECK_MESSAGES)
def test_check_messages(gens, arrows, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        ZComplex(gens, arrows).check()


TOWER_MESSAGES = [
    ((("a", 0, 0), ("b", 1, -1), ("c", 2, -2), ("d", 3, -3)),
     (("d", "c", 1), ("c", "b", 1), ("b", "a", 1)), "", InvalidInputError,
     "not a two-step complex: b has arrows both ways"),
    ((("b0", 0, 0), ("b1", 0, -2), ("s0", 1, -1), ("s1", 1, 1)),
     (("s0", "b0", 0), ("s0", "b1", 0), ("s1", "b0", 0), ("s1", "b1", 1)),
     "", VerificationError, "non-homogeneous entry collision in reduction"),
    ((("x", 0, 0), ("y", 0, 0)), (), "two", VerificationError,
     "free homology rank 2 != 1 in 'two'"),
    ((("b0", 0, 0), ("s0", 1, -1)), (("s0", "b0", 1),), "", VerificationError,
     "free homology rank 0 != 1 in ''"),
    # An unchecked complex with an arrow off it gets check's message.
    ((("a", 0, 0),), (("b", "a", 0),), "", InvalidInputError,
     "arrow b->a off the complex"),
    ((("a", 0, 0),), (("a", "c", 0), ("b", "c", 0)), "", InvalidInputError,
     "arrow a->c off the complex"),
]


@pytest.mark.parametrize("gens, arrows, tag, error, message", TOWER_MESSAGES)
def test_tower_messages(gens, arrows, tag, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        tower_alexander(ZComplex(gens, arrows, tag))


class TestTowerAlexander:
    def test_single_generator(self):
        c = ZComplex.build([("x", 0, 0)], [])
        assert tower_alexander(c) == HalfInt.whole(0)

    def test_hand_smith_reduction(self):
        # d(s) = Z b0 + b1 with A(b0)=0, A(b1)=1, A(s)=1:
        # homology is F2[Z] generated by b0, so tau = 0.
        gens = [("b0", 0, 0), ("b1", 0, -2), ("s", 1, -1)]
        c = ZComplex.build(gens, [("s", "b0", 1), ("s", "b1", 0)])
        assert tower_alexander(c) == HalfInt.whole(0)

    def test_free_rank_must_be_one(self):
        c = ZComplex.build([("x", 0, 0), ("y", 0, 0)], [])
        with pytest.raises(VerificationError):
            tower_alexander(c)

    def test_whitehead_summand(self):
        c = build_summand("eps1", WHITEHEAD, Companion(tau=1, eps=1), 0)
        assert tower_alexander(c) == HalfInt.whole(1)


class TestBuildSummand:
    def test_whitehead_eps1_shape(self):
        c = build_summand("eps1", WHITEHEAD, Companion(tau=1, eps=1), 0)
        # 2 tau - n = 2 zig-zag sources over 3 sinks, plus the two
        # identity-weight end generators.
        assert len(c.generators) == 7
        weights = sorted(k for _, _, k in c.arrows)
        assert weights == [0, 0, 1, 1, 1, 1]  # L_sigma = L_tau = Z^1 here

    def test_mazur_eps0_positive(self):
        c = build_summand("eps0_pos", MAZUR, Companion(tau=0, eps=0), 2)
        # 2 sources over 3 sinks; weights Z^1 (L_sigma) and Z^2 (L_tau).
        names = [g[0] for g in c.generators]
        assert len(names) == 5
        ks = sorted(k for _, _, k in c.arrows)
        assert ks == [1, 1, 2, 2]
        assert tower_alexander(c) == HalfInt.whole(MAZUR.g3)

    def test_mazur_epsm1_cone(self):
        c = build_summand("epsm1", MAZUR, Companion(tau=0, eps=-1), 1)
        assert len(c.generators) == 3
        ks = sorted(k for _, _, k in c.arrows)
        assert ks == [1, 1]  # L_W and L_Z both weigh Z^1

    def test_unsupported_regime_refused(self):
        from lsat import cable_profile

        prof = cable_profile(2, 1)
        with pytest.raises(UnsupportedRegimeError):
            build_summand("epsm1", prof, Companion(tau=0, eps=-1), 0)

    def test_every_summand_checks(self):
        for n in (-3, 0, 2, 4):
            for K in (
                Companion(tau=1, eps=1),
                Companion(tau=0, eps=0),
                Companion(tau=-1, eps=-1),
            ):
                res = tau_oracle(MAZUR, K, n)
                assert isinstance(res.value, int)

    def test_weights_are_computed_once_per_profile(self):
        from lsat.zcomplex import _weights

        assert _weights(MAZUR) is _weights(MAZUR)

    def test_negative_weight_raises_on_every_call(self):
        from lsat import PatternProfile

        prof = PatternProfile(
            l=0, g3=0, n_width=HalfInt(0),
            r_minus=HalfInt(-4), r_center=HalfInt(0), r_plus=HalfInt(0),
        )
        for _ in range(2):
            with pytest.raises(
                InvalidInputError, match="negative arrow weight tau_minus = -2"
            ):
                build_summand("eps0_pos", prof, Companion(tau=0, eps=0), 1)

    def test_json_dump(self):
        c = build_summand("eps1", WHITEHEAD, Companion(tau=1, eps=1), 0)
        obj = c.to_json_obj()
        assert set(obj) >= {"generators", "arrows"}


class TestStaircase:
    def test_whitehead_t0(self, whitehead_h):
        st = staircase_from_column(whitehead_h, 0)
        gradings = [(g[1], g[2]) for g in st.generators]
        assert gradings == [(0, -2), (-1, -1), (-2, 0)]
        assert all(a > 0 for a in st.alpha)
        assert all(b > 0 for b in st.beta)

    def test_whitehead_t2_single(self, whitehead_h):
        st = staircase_from_column(whitehead_h, 2)
        assert len(st.generators) == 1

    def test_unlink_t1_single(self):
        h = HFunction(unlink_data())
        st = staircase_from_column(h, 1)
        assert [(g[1], g[2]) for g in st.generators] == [(0, -2)]

    def test_top_generator_at_center(self, mazur_h):
        st = staircase_from_column(mazur_h, hi(1))
        assert st.top_a2() == mazur_h.r_of_t(hi(1))
        assert st.generators[0][1] == 0  # gr_w of the top generator


class TestTauOracle:
    def test_matches_closed_form_examples(self):
        cases = [
            (twobridge_profile(5, 3), Companion(tau=-1, eps=1), -3),
            (twobridge_profile(7, 3), Companion(tau=1, eps=-1), 2),
            (twobridge_profile(5, 3), Companion(tau=0, eps=-1), 5),
        ]
        for prof, K, n in cases:
            assert (
                tau_oracle(prof, K, n).value
                == tau_closed_form(prof, K, n).value
            )

    def test_unlink_operator(self):
        prof = unlink_profile()
        for K in (Companion(tau=2, eps=1), Companion(tau=0, eps=0)):
            for n in (-2, 0, 3):
                try:
                    res = tau_oracle(prof, K, n)
                except UnsupportedRegimeError:
                    continue
                assert res.value == 0

    def test_method_tag(self):
        res = tau_oracle(MAZUR, Companion(tau=1, eps=1), 0)
        assert res.method == "oracle"


# Two-bridge r <= 13, companions eps = +-1 with |tau| <= 4 and eps = 0,
# framings |n| <= 12: 27 profiles x 19 companions x 25 framings.
GRID = [
    (twobridge_profile(r, q), K, n)
    for r in range(3, 14, 2)
    for q in range(1, r + 1, 2)
    for K in [Companion(tau=t, eps=e) for e in (-1, 1) for t in range(-4, 5)]
    + [Companion(tau=0, eps=0)]
    for n in range(-12, 13)
]
CASES = ("eps1", "eps0_pos", "eps0_neg", "epsm1")


def _translation(prof, K, n):
    return prof.framing_shift(n) + prof.l * K.tau


def _outcome(fn):
    """fn() or, when it refuses, the error class and message."""
    try:
        return fn()
    except LsatError as exc:
        return type(exc), str(exc)


class TestSummandTranslation:
    def test_summand_depends_on_n_minus_2tau_up_to_translation(self):
        # Every case, matching the companion or not: equal n - 2 tau gives
        # the same arrows, case tag, names and gr_w, and doubled A-gradings
        # minus 2T; a refusal gives the same class and message.
        def shape(case, prof, K, n):
            c = build_summand(case, prof, K, n)
            doubled_t = 2 * _translation(prof, K, n)
            return (
                c.arrows,
                c.case_tag,
                [(x, w) for x, w, _ in c.generators],
                [w - z - doubled_t for _, w, z in c.generators],
            )

        first, pairs = {}, 0
        for prof, K, n in GRID:
            for case in CASES:
                key = (id(prof), case, K.eps, n - 2 * K.tau)
                got = _outcome(lambda: shape(case, prof, K, n))
                if key in first:
                    pairs += 1
                    assert got == first[key], (prof, K, n, case)
                else:
                    first[key] = got
        # Per case: 27 profiles x 2 signs of eps x 184 repeated n - 2 tau.
        assert len(GRID) == 12825 and pairs == 4 * 9936

    def test_oracle_memo_matches_a_fresh_reduction(self, monkeypatch):
        def reference(prof, K, n):
            c = build_summand(summand_case(K, n), prof, K, n)
            value = tower_alexander(c)
            assert value.is_integral
            return value.as_int(), c.case_tag

        def oracle(prof, K, n):
            res = tau_oracle(prof, K, n)
            return res.value, res.case_tag

        points = list(GRID)
        random.Random(11).shuffle(points)
        want = [_outcome(lambda: reference(*p)) for p in points]
        built = []
        real = zcomplex.build_summand

        def counting(*args):
            c = real(*args)
            built.append(c)
            return c

        monkeypatch.setattr(zcomplex, "build_summand", counting)
        fresh = {id(p): p.replace() for p, _, _ in points}  # empty memos
        copies = [(fresh[id(p)], K, n) for p, K, n in points]
        assert all(not prof._oracle_memo for prof, _, _ in copies)
        assert [_outcome(lambda: oracle(*p)) for p in copies] == want
        distinct = {
            (id(p), summand_case(K, n), n - 2 * K.tau) for p, K, n in copies
        }
        assert len(built) == len(distinct)
        del built[:]
        assert [_outcome(lambda: oracle(*p)) for p in copies] == want
        assert built == []

    def test_a_refusal_stores_nothing(self):
        from lsat import cable_profile

        prof = cable_profile(2, 1)
        for _ in range(2):
            with pytest.raises(UnsupportedRegimeError):
                tau_oracle(prof, Companion(tau=0, eps=-1), 0)
        assert prof._oracle_memo == {}


class TestGradingLookup:
    def test_first_generator_of_a_name_wins(self):
        c = ZComplex((("a", 0, 0), ("b", 1, -1), ("a", 2, 2)), ())
        assert c.grading("a") == (0, 0)
        assert c.alexander("b") == HalfInt(2)

    def test_unknown_generator_rejected(self):
        c = ZComplex((("a", 0, 0),), ())
        with pytest.raises(InvalidInputError, match="unknown generator 'z'"):
            c.grading("z")
