"""Unit tests for the F2[Z] chain complexes and the tau oracle."""

import random
import re
from collections import Counter

import pytest

from conftest import HAND_MADE
from lsat import (
    Companion,
    ZComplex,
    build_summand,
    eps_not_minus_one,
    tau_bridge_braid,
    tau_cable,
    tau_closed_form,
    tau_oracle,
    tower_alexander,
    twobridge_data,
    twobridge_profile,
    unlink_profile,
)
from lsat import sweeps, zcomplex
from lsat.errors import (
    InvalidInputError,
    LsatError,
    UnsupportedRegimeError,
    VerificationError,
)

WHITEHEAD = twobridge_profile(3, 3)
MAZUR = twobridge_profile(5, 3)


class TestZComplexInvariants:
    def test_d_squared_enforced(self):
        # d^2 != 0 needs two composable arrows, 2 -> 1 -> 0; a complex is
        # two-step, so 1, with arrows both ways, is refused when it is built.
        gens = [(0, 0), (1, -1), (2, -2)]
        arrows = [(2, 1, 1), (1, 0, 1)]
        with pytest.raises(InvalidInputError,
                           match="generator 1 has arrows both ways"):
            ZComplex(gens, arrows)

    def test_homogeneity_enforced(self):
        gens = [(0, 0), (1, -1)]
        # A(1) - A(0) = 1 but the arrow claims Z-exponent 2, so gr_z drops
        # by 1 where Z^2 needs 1 - 4 = -3.  Alexander homogeneity follows
        # from the gr_w and gr_z shifts, so this is the gr_z check.
        with pytest.raises(VerificationError, match="gr_z shift"):
            ZComplex(gens, [(1, 0, 2)])

    def test_arrows_mod_two(self):
        gens = [(0, 0), (1, -1)]
        c = ZComplex(gens, [(1, 0, 1), (1, 0, 1)])
        assert c.arrows == ()

    def test_arrows_are_stored_sorted(self):
        gens = ((0, 0), (1, -1), (1, 1), (0, -2))
        given = ((2, 0, 0), (1, 3, 0), (1, 0, 1))
        c = ZComplex(gens, given)
        assert c.arrows == tuple(sorted(given))
        assert c == ZComplex(gens, given[::-1])


CHECK_MESSAGES = [
    # (generators, arrows, error class, full message); arrows are (source
    # index, target index, Z-exponent) and the constructor checks them in
    # sorted order.  Every message names generators by their indices.
    # The chain 3 -> 0 -> 2 -> 1 gives 0 and 2 arrows both ways; the least
    # index is named.
    (((2, -2), (0, 0), (1, -1), (3, -3)),
     ((3, 0, 1), (0, 2, 1), (2, 1, 1)), InvalidInputError,
     "not a two-step complex: generator 0 has arrows both ways"),
    (((0, 0),), ((1, 0, 1),), InvalidInputError,
     "arrow 1->0 off the complex"),
    (((0, 0),), ((0, 2, 1),), InvalidInputError,
     "arrow 0->2 off the complex"),
    (((0, 0), (1, 3)), ((1, 0, -1),), InvalidInputError,
     "negative Z-exponent on 1->0"),
    (((0, 0), (2, -3)), ((1, 0, 2),), VerificationError,
     "arrow 1->0 does not drop gr_w by 1"),
    (((0, 0), (1, -1)), ((1, 0, 2),), VerificationError,
     "arrow 1->0: gr_z shift inconsistent with Z^2"),
    # Composable arrows 2->1->0: 1 has arrows both ways.
    (((0, 0), (1, -1), (2, -2)),
     ((2, 1, 1), (1, 0, 1)), InvalidInputError,
     "not a two-step complex: generator 1 has arrows both ways"),
    # The first failing arrow in sorted order decides, whatever fails after
    # it and in whatever order the arrows are given.
    (((0, 0), (1, -1)), ((1, 0, 2), (1, 2, 0)),
     VerificationError, "arrow 1->0: gr_z shift inconsistent with Z^2"),
    (((0, 0), (1, -1), (1, -1)),
     ((2, 0, 2), (1, 3, 0)),
     InvalidInputError, "arrow 1->3 off the complex"),
]


@pytest.mark.parametrize("gens, arrows, error, message", CHECK_MESSAGES)
def test_check_messages(gens, arrows, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        ZComplex(gens, arrows)


TOWER_MESSAGES = [
    # d^2 = 0 because the two paths 3->1->0 and 3->2->0 cancel, yet 1 and
    # 2 have arrows both ways; the complex is refused when it is built.
    (((0, 0), (1, -1), (1, 1), (2, 0)),
     ((3, 1, 0), (3, 2, 1), (1, 0, 1), (2, 0, 0)), "",
     InvalidInputError,
     "not a two-step complex: generator 1 has arrows both ways"),
    # A non-homogeneous arrow, which would collide in the reduction, is
    # refused when the complex is built.
    (((0, 0), (0, -2), (1, -1), (1, 1)),
     ((2, 0, 0), (2, 1, 0), (3, 0, 0), (3, 1, 1)),
     "", VerificationError, "arrow 2->0: gr_z shift inconsistent with Z^0"),
    (((0, 0), (0, 0)), (), "two", VerificationError,
     "free homology rank 2 != 1 in 'two'"),
    (((0, 0), (1, -1)), ((1, 0, 1),), "", VerificationError,
     "free homology rank 0 != 1 in ''"),
    # A complex with an arrow off it is refused when it is built.
    (((0, 0),), ((1, 0, 0),), "", InvalidInputError,
     "arrow 1->0 off the complex"),
    (((0, 0),), ((0, 1, 0), (2, 1, 0)), "", InvalidInputError,
     "arrow 0->1 off the complex"),
]


@pytest.mark.parametrize("gens, arrows, tag, error, message", TOWER_MESSAGES)
def test_tower_messages(gens, arrows, tag, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        tower_alexander(ZComplex(gens, arrows, tag))


class TestTowerAlexander:
    # tower_alexander returns the doubled grading gr_w - gr_z.
    def test_single_generator(self):
        c = ZComplex([(0, 0)], [])
        assert tower_alexander(c) == 0

    def test_hand_smith_reduction(self):
        # d(g2) = Z g0 + g1 with A(g0)=0, A(g1)=1, A(g2)=1:
        # homology is F2[Z] generated by g0, so tau = 0.
        gens = [(0, 0), (0, -2), (1, -1)]
        c = ZComplex(gens, [(2, 0, 1), (2, 1, 0)])
        assert tower_alexander(c) == 0

    def test_free_rank_must_be_one(self):
        c = ZComplex([(0, 0), (0, 0)], [])
        with pytest.raises(VerificationError):
            tower_alexander(c)

    def test_whitehead_summand(self):
        c = build_summand(WHITEHEAD, Companion(tau=1, eps=1), 0)
        assert tower_alexander(c) == 2


class TestBuildSummand:
    def test_whitehead_eps1_shape(self):
        c = build_summand(WHITEHEAD, Companion(tau=1, eps=1), 0)
        # 2 tau - n = 2 zig-zag sources over 3 sinks, plus the two
        # identity-weight end generators.
        assert len(c.generators) == 7
        weights = sorted(k for _, _, k in c.arrows)
        assert weights == [0, 0, 1, 1, 1, 1]  # L_sigma = L_tau = Z^1 here

    def test_mazur_eps0_positive(self):
        c = build_summand(MAZUR, Companion(tau=0, eps=0), 2)
        # 2 sources over 3 sinks; weights Z^1 (L_sigma) and Z^2 (L_tau).
        assert len(c.generators) == 5
        ks = sorted(k for _, _, k in c.arrows)
        assert ks == [1, 1, 2, 2]
        assert tower_alexander(c) == 2 * MAZUR.g3  # doubled grading

    def test_mazur_epsm1_cone(self):
        c = build_summand(MAZUR, Companion(tau=0, eps=-1), 1)
        assert len(c.generators) == 3
        ks = sorted(k for _, _, k in c.arrows)
        assert ks == [1, 1]  # L_W and L_Z both weigh Z^1

    def test_unsupported_regime_refused(self):
        from lsat import cable_profile

        prof = cable_profile(2, 1)
        with pytest.raises(UnsupportedRegimeError):
            build_summand(prof, Companion(tau=0, eps=-1), 0)

    def test_every_summand_checks(self):
        for n in (-3, 0, 2, 4):
            for K in (
                Companion(tau=1, eps=1),
                Companion(tau=0, eps=0),
                Companion(tau=-1, eps=-1),
            ):
                res = tau_oracle(MAZUR, K, n)
                assert isinstance(res.value, int)

    def test_negative_weight_raises_on_every_call(self):
        from lsat import PatternProfile

        # Only the eps = 0, n < 0 and eps = -1, n <= 2tau summands read
        # tau_minus; a refused call stores nothing, so the next refuses too.
        prof = PatternProfile(
            l=0, g3=0, n_width=0,
            r_minus=-2, r_center=0, r_plus=0,
        )
        for _ in range(2):
            with pytest.raises(
                InvalidInputError, match="negative arrow weight tau_minus = -1"
            ):
                tau_oracle(prof, Companion(tau=0, eps=0), -1)
        # The summands that read only sigma and tau answer as the closed
        # form does, tau_minus = -2 notwithstanding.
        prof = prof.replace(r_minus=-4)
        for K, n in ((Companion(tau=0, eps=0), 1), (Companion(tau=0, eps=1), 0)):
            assert tau_oracle(prof, K, n).value == tau_closed_form(prof, K, n).value
        assert tau_oracle(prof, Companion(tau=0, eps=1), 0).value == 0


class TestSummandsArePaths:
    def test_every_summand_is_a_zigzag_path(self):
        # The sweep grid, plus n - 2 tau in {1, 2, 40} at eps = -1 (the
        # cone, the shortest interior and a long one) on every sweep
        # profile where cond_tau holds: each summand is a path, m arrows
        # joining m + 1 generators with none in more than two arrows.
        # Index order is path order, which build_summand relies on when it
        # anchors by position and reads generators[2]: arrow i (in stored
        # order) joins generators i and i + 1, and gr_w alternates.
        points = list(sweeps.sweep_grid())
        points += [
            (prof, K, 2 * K.tau + d)
            for prof in sweeps.sweep_profiles() if prof.cond_tau
            for K in sweeps.COMPANIONS if K.eps == -1
            for d in (1, 2, 40)
        ]
        tags = Counter()
        for prof, K, n in points:
            c = build_summand(prof, K, n)
            tags[c.case_tag] += 1
            size = len(c.generators)
            assert len(c.arrows) == size - 1, (prof, K, n)
            nbrs = [[] for _ in range(size)]
            for s, t, _ in c.arrows:
                nbrs[s].append(t)
                nbrs[t].append(s)
            assert max(map(len, nbrs)) <= 2, (prof, K, n)
            seen, todo = {0}, [0]
            while todo:
                for y in nbrs[todo.pop()]:
                    if y not in seen:
                        seen.add(y)
                        todo.append(y)
            assert len(seen) == size, (prof, K, n)
            for i, (s, t, _) in enumerate(c.arrows):
                assert {s, t} == {i, i + 1}, (prof, K, n, i)
            gr_w = [w for w, _ in c.generators]
            assert set(gr_w) <= {0, 1}, (prof, K, n)
            assert all(a != b for a, b in zip(gr_w, gr_w[1:])), (prof, K, n)
            # gr_w - gr_z = 2A with A an int, so tau_oracle halves exactly.
            assert all((w - z) % 2 == 0 for w, z in c.generators), (prof, K, n)
        # Every sweep profile meets cond_tau, so no point is refused, and
        # every shape is built.
        assert len(points) == 1089 + 165
        assert tags == {
            "eps=1,n>=2tau": 275, "eps=1,n<2tau": 220, "eps=0,n>=0": 55,
            "eps=0,n<0": 44, "eps=-1,n<2tau": 220, "eps=-1,n=2tau": 55,
            "eps=-1,n=2tau+1": 99, "eps=-1,n>2tau+1": 286,
        }


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
# One profile per (r, q), so each profile's memo sees all its points.
GRID = [
    (prof, K, n)
    for prof in [
        twobridge_profile(r, q)
        for r in range(3, 14, 2)
        for q in range(1, r + 1, 2)
    ]
    for K in [Companion(tau=t, eps=e) for e in (-1, 1) for t in range(-4, 5)]
    + [Companion(tau=0, eps=0)]
    for n in range(-12, 13)
]


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
        # Equal eps and n - 2 tau give the same arrows, case tag and gr_w,
        # and doubled A-gradings minus 2T; a refusal gives the same class
        # and message.
        def shape(prof, K, n):
            c = build_summand(prof, K, n)
            doubled_t = 2 * _translation(prof, K, n)
            return (
                c.arrows,
                c.case_tag,
                [w for w, _ in c.generators],
                [w - z - doubled_t for w, z in c.generators],
            )

        first, pairs = {}, 0
        for prof, K, n in GRID:
            key = (id(prof), K.eps, n - 2 * K.tau)
            got = _outcome(lambda: shape(prof, K, n))
            if key in first:
                pairs += 1
                assert got == first[key], (prof, K, n)
            else:
                first[key] = got
        # 27 profiles x 2 signs of eps x 184 repeated n - 2 tau; eps = 0
        # forces tau = 0, so its n - 2 tau never repeats.
        assert len(GRID) == 12825 and pairs == 9936

    def test_oracle_memo_matches_a_fresh_reduction(self, monkeypatch):
        def reference(prof, K, n):
            c = build_summand(prof, K, n)
            value = tower_alexander(c)  # doubled
            assert value % 2 == 0
            return value // 2, c.case_tag

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
        assert all(prof._oracle == {} for prof, _, _ in copies)
        assert [_outcome(lambda: oracle(*p)) for p in copies] == want
        distinct = {
            (id(p), K.eps, n - 2 * K.tau) for p, K, n in copies
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
        assert prof._oracle == {}


def _signed(eps0_message):
    """The eps = -1 message of an eps = 0, n < 0 refusal (the rest match)."""
    return eps0_message.replace("eps=0 with n<0", "eps=-1")


class TestEpsZeroIsASignedEpsAtTauZero:
    # An eps = 0 companion has tau = 0 and answers as the eps = 1 companion
    # of tau = 0 at n >= 0 and as the eps = -1 one at n < 0, on each route,
    # refusals included; only its case tag and cond_tau message are its own.
    PROFILES = list({id(p): p for p, _, _ in GRID}.values()) + HAND_MADE

    @pytest.mark.parametrize("route", [tau_closed_form, tau_oracle])
    def test_tau_routes(self, route):
        refused = set()
        for prof in self.PROFILES:
            for n in range(-12, 13):
                signed = Companion(tau=0, eps=1 if n >= 0 else -1)
                got = _outcome(lambda: route(prof, Companion(tau=0, eps=0), n))
                want = _outcome(lambda: route(prof, signed, n))
                if isinstance(got, tuple):
                    refused.add(got[0])
                    assert (got[0], _signed(got[1])) == want, (prof, n)
                    continue
                assert got.value == want.value, (prof, n)
                assert got.case_tag == ("eps=0,n>=0" if n >= 0 else "eps=0,n<0")
        # The hand-made profiles reach the cond_tau refusal, and the
        # oracle's negative-weight refusal too.
        assert UnsupportedRegimeError in refused
        assert (InvalidInputError in refused) == (route is tau_oracle)

    def test_eps_guarantee(self):
        for prof in self.PROFILES:
            for n in range(-12, 13):
                signed = Companion(tau=0, eps=1 if n >= 0 else -1)
                assert eps_not_minus_one(prof, Companion(tau=0, eps=0), n) == (
                    eps_not_minus_one(prof, signed, n)
                )

    def test_family_formulas_read_the_sign_of_q(self):
        answered = 0
        for p in range(1, 8):
            for q in range(-16, 17):
                signed = Companion(tau=0, eps=1 if q >= 0 else -1)
                for b in [None] + list(range(p)):
                    def route(K):
                        if b is None:
                            return tau_cable(p, q, K, 0)
                        return tau_bridge_braid(p, q, b, K, 0)
                    got = _outcome(lambda: route(Companion(tau=0, eps=0)))
                    want = _outcome(lambda: route(signed))
                    if isinstance(got, tuple):
                        assert got == want, (p, q, b)
                        continue
                    answered += 1
                    assert got.value == want.value, (p, q, b)
        assert answered > 0


class TestGradingLookup:
    def test_unknown_generator_rejected(self):
        # check refuses an arrow end that is not a generator index.
        with pytest.raises(InvalidInputError, match="arrow 0->1 off the"):
            ZComplex(((0, 0),), ((0, 1, 0),))
        with pytest.raises(InvalidInputError, match="arrow -1->0 off the"):
            ZComplex(((0, 0), (1, -1)), ((-1, 0, 0),))
