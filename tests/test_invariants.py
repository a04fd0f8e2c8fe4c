"""Unit tests for closed-form tau, family formulas, and obstructions."""

import json
import math

import pytest

from conftest import invoke, negative_hopf_data
from lsat import (
    Companion,
    LinkAlexData,
    classify_operator,
    eps_not_minus_one,
    cable_profile,
    generic_profile,
    resolve_sign,
    tau_bridge_braid,
    tau_cable,
    tau_closed_form,
    tau_inequality_check,
    tau_oracle,
    twobridge_profile,
    unlink_profile,
)
from lsat.errors import InvalidInputError, UnsupportedRegimeError
from lsat.sweeps import FAMILY_PAIRS


WHITEHEAD = twobridge_profile(3, 3)
MAZUR = twobridge_profile(5, 3)


class TestClosedForm:
    def test_whitehead_eps1(self):
        res = tau_closed_form(WHITEHEAD, Companion(tau=1, eps=1), 0)
        assert res.value == 1
        assert res.case_tag == "eps=1,n<2tau"

    def test_mazur_eps1_split(self):
        K = Companion(tau=2, eps=1)
        assert tau_closed_form(MAZUR, K, 0).value == 3
        assert tau_closed_form(MAZUR, K, 5).value == 2

    def test_eps0_zero_framing_is_g3(self):
        for prof in (WHITEHEAD, MAZUR, unlink_profile(), cable_profile(3, 2)):
            res = tau_closed_form(prof, Companion(tau=0, eps=0), 0)
            assert res.value == prof.g3

    def test_mazur_epsm1(self):
        res = tau_closed_form(MAZUR, Companion(tau=-1, eps=-1), 0)
        assert res.value == 0
        assert res.case_tag == "eps=-1,n>2tau+1"

    def test_branch_continuity_eps1(self):
        # Evaluated at the boundary n = 2 tau, the two eps=1 branches
        # differ by R_center - l/2 - g3, which must be nonnegative.
        for r, q in FAMILY_PAIRS:
            prof = twobridge_profile(r, q)
            # Doubled: 2 R_center - l - 2 g3.
            gap = prof.r_center - prof.l - 2 * prof.g3
            assert gap >= 0

    def test_cable_needs_family_formula_for_negative_eps(self):
        prof = cable_profile(2, 1)
        with pytest.raises(UnsupportedRegimeError):
            tau_closed_form(prof, Companion(tau=1, eps=-1), 0)

    def test_integer_result_tag(self):
        res = tau_closed_form(MAZUR, Companion(tau=0, eps=0), -2)
        assert res.method == "closed-form"
        assert isinstance(res.value, int)


class TestCableFormula:
    def test_examples(self):
        assert tau_cable(2, 3, Companion(tau=1, eps=1), 0).value == 3
        assert tau_cable(3, 2, Companion(tau=0, eps=-1), 0).value == 3
        assert tau_cable(2, -3, Companion(tau=0, eps=0), 0).value == -1

    def test_mirror_consistency(self):
        for p in range(2, 8):
            for q in range(-7, 8):
                if q == 0 or math.gcd(p, abs(q)) != 1:
                    continue
                for tau in range(-3, 4):
                    left = tau_cable(p, q, Companion(tau=tau, eps=-1), 0).value
                    right = tau_cable(p, -q, Companion(tau=-tau, eps=1), 0).value
                    assert left == -right

    def test_rejects_non_coprime(self):
        with pytest.raises(InvalidInputError):
            tau_cable(4, 2, Companion(tau=0, eps=1), 0)


class TestBridgeBraidFormula:
    def test_examples(self):
        assert tau_bridge_braid(4, 5, 2, Companion(tau=0, eps=1), 0).value == 7
        assert tau_bridge_braid(4, 5, 2, Companion(tau=0, eps=-1), 0).value == 10
        assert tau_bridge_braid(4, 5, 2, Companion(tau=0, eps=0), 0).value == 7

    def test_rejects_parity(self):
        with pytest.raises(InvalidInputError):
            tau_bridge_braid(3, 4, 1, Companion(tau=0, eps=1), 0)


class TestFramingFold:
    """A family formula at framing n is the formula at slope q + p n."""

    COMPANIONS = [Companion(tau=0, eps=0)] + [
        Companion(tau=tau, eps=eps) for tau in range(-3, 4) for eps in (-1, 1)
    ]

    def _check(self, route, params):
        try:
            route(*params, Companion(tau=0, eps=1), 0)
        except InvalidInputError:
            return 0
        p, q = params[:2]
        for n in range(-4, 5):
            for K in self.COMPANIONS:
                folded = route(p, q + p * n, *params[2:], K, 0)
                assert route(*params, K, n) == folded, (params, K, n)
        return 1

    def test_cable(self):
        checked = sum(self._check(tau_cable, (p, q))
                      for p in range(1, 8) for q in range(-16, 17))
        assert checked == 151

    def test_bridge_braid(self):
        checked = sum(self._check(tau_bridge_braid, (p, q, b))
                      for p in range(2, 8) for q in range(-16, 17)
                      for b in range(p))
        assert checked == 104


class TestEpsPredicate:
    def test_eps1_always_guaranteed(self):
        for prof in (WHITEHEAD, MAZUR, cable_profile(2, 1)):
            assert eps_not_minus_one(prof, Companion(tau=2, eps=1), -3) == (
                "guaranteed"
            )

    def test_whitehead_epsm1_guaranteed(self):
        for n in (-4, 0, 4):
            assert eps_not_minus_one(
                WHITEHEAD, Companion(tau=0, eps=-1), n
            ) == "guaranteed"

    def test_cable_eps0_negative_framing_inconclusive(self):
        assert eps_not_minus_one(
            cable_profile(2, 1), Companion(tau=0, eps=0), -1
        ) == "inconclusive"

    def test_eps0_nonnegative_framing_guaranteed(self):
        assert eps_not_minus_one(
            cable_profile(2, 1), Companion(tau=0, eps=0), 0
        ) == "guaranteed"


class TestClassifier:
    def test_identity(self):
        prof = twobridge_profile(3, 1)
        assert classify_operator(prof.hfunction()) == (
            "identity",
            None,
        )

    def test_trivial(self):
        prof = unlink_profile()
        assert classify_operator(prof.hfunction()) == (
            "trivial",
            None,
        )

    def test_orientation_reversing(self):
        h = negative_hopf_data().hfunction()
        assert classify_operator(h) == ("orientation_reversing", None)

    def test_whitehead_obstructed_at_r_center(self):
        verdict, claim = classify_operator(WHITEHEAD.hfunction())
        assert verdict == "obstructed"
        assert "R at winding/2" in claim

    def test_mazur_obstructed(self):
        verdict, _ = classify_operator(MAZUR.hfunction())
        assert verdict == "obstructed"


# P(K) = K # T(2,3): the Hopf link with a trefoil tied into the pattern
# component, so l = 1 and delta2 is the trefoil's polynomial.
TREFOIL_SUM = {
    "linking": 1,
    "delta_tilde": {"vars": 2, "terms": [
        {"e": [1, -1], "c": 1}, {"e": [1, 1], "c": -1}, {"e": [1, 3], "c": 1},
    ]},
    "delta1": {"vars": 1, "terms": [{"e": [0], "c": 1}]},
    "delta2": {"vars": 1, "terms": [
        {"e": [-2], "c": 1}, {"e": [0], "c": -1}, {"e": [2], "c": 1},
    ]},
}


class TestTrefoilSumPattern:
    """A g3 > 0 pattern read from link data: g3 = 1 comes from delta2."""

    prof = generic_profile(resolve_sign(LinkAlexData.from_json_obj(TREFOIL_SUM)))

    def test_profile(self):
        p = self.prof
        assert (p.l, p.g3, p.n_width, p.r_minus, p.r_center, p.r_plus) == (
            1, 1, 1, 1, 3, 3
        )

    def test_tau_adds_tau_of_the_trefoil(self):
        # tau is additive under # and tau(T(2,3)) = 1 (Ozsvath-Szabo 2003).
        points = 0
        for eps in (-1, 0, 1):
            for tau in range(-3, 4) if eps else (0,):
                K = Companion(tau=tau, eps=eps)
                for n in range(-5, 6):
                    points += 1
                    assert tau_closed_form(self.prof, K, n).value == tau + 1
                    assert tau_oracle(self.prof, K, n).value == tau + 1
        assert points == 165

    def test_classify_names_g3(self, tmp_path):
        assert classify_operator(self.prof.hfunction()) == (
            "obstructed", "g3 = 1 != 0"
        )
        path = tmp_path / "trefoil_sum.json"
        path.write_text(json.dumps(TREFOIL_SUM), encoding="utf-8")
        result = invoke(["classify", f"json:{path}"])
        assert result.exit_code == 0, result.output
        assert result.stdout == "obstructed\tg3 = 1 != 0\n"


class TestInequality:
    def test_winding_zero(self):
        for tau in (-2, 0, 2):
            for eps in (-1, 0, 1):
                K = Companion(tau=tau if eps else 0, eps=eps)
                for n in (-3, 0, 3):
                    result = tau_inequality_check(WHITEHEAD, K, n)
                    assert result in (None, True)

    def test_mazur_example(self):
        assert tau_inequality_check(MAZUR, Companion(tau=1, eps=1), 0) is True

    def test_cable_compared_with_itself(self):
        prof = cable_profile(2, 1)
        assert tau_inequality_check(prof, Companion(tau=1, eps=1), 0) is True

    def test_none_when_undefined(self):
        prof = cable_profile(2, 1)
        assert tau_inequality_check(prof, Companion(tau=1, eps=-1), 0) is None
