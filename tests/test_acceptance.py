"""Acceptance suite: the ten end-to-end criteria, each exact.

Every test here compares computed output against independently frozen
values (reference tables, published polynomials, hand-derived closed
forms) or cross-validates two independent computation routes.
"""

from conftest import (
    HOPF_MINUS_TABLE,
    HOPF_PLUS_TABLE,
    MAZUR_TABLE,
    UNLINK_TABLE,
    WHITEHEAD_TABLE,
    assert_table_matches,
    negative_hopf_data,
    twobridge_alexander_closed,
)
from lsat import (
    Companion,
    HFunction,
    bridge_braid_profile,
    cable_profile,
    classify_operator,
    g4_satellite_regime,
    tau_bridge_braid,
    tau_cable,
    tau_closed_form,
    tau_inequality_check,
    twobridge_alexander,
    twobridge_data,
    twobridge_profile,
    unlink_data,
    unlink_profile,
    validate,
    width,
)
from lsat.errors import InvalidInputError, UnsupportedRegimeError
from lsat.halfgrid_poly import LaurentPoly2
from lsat.hfunction import _t22l
from lsat.sweeps import (
    COMPANIONS,
    FAMILY_PAIRS,
    FRAMINGS,
    LINK_PAIRS,
    link_cases,
    sweep_profiles,
)
from lsat.zcomplex import tau_oracle


def test_01_reference_h_tables():
    """Unlink and Hopf-link H-tables match the reference figures exactly."""
    assert_table_matches(HFunction(unlink_data()), UNLINK_TABLE)
    assert_table_matches(HFunction(twobridge_data(3, 1)), HOPF_PLUS_TABLE)
    assert_table_matches(HFunction(negative_hopf_data()), HOPF_MINUS_TABLE)


def test_02_whitehead():
    """Walk polynomial, H-table, R_0 = 1 and N = 1 for the (3,3) pattern."""
    data = twobridge_data(3, 3)
    # Delta-tilde from the Hoste walk equals -x1 x2 + x1 + x2 - 1 after
    # normalization (recentering, half-shift, sign resolution).
    expected = LaurentPoly2.from_terms(
        {
            (2, 2): -1,
            (2, 0): 1,
            (0, 2): 1,
            (0, 0): -1,
        }
    )
    assert data.delta_tilde == expected
    h = HFunction(data)
    assert_table_matches(h, WHITEHEAD_TABLE)
    # R values and widths are doubled: 2 stands for 1.
    assert h.r_of_t(0) == 2
    assert width(data) == 2


def test_03_mazur_and_twobridge_r_formulas():
    """Mazur H-table and the closed R-value formulas across the family."""
    h = HFunction(twobridge_data(5, 3))
    assert_table_matches(h, MAZUR_TABLE)
    # Doubled: R_{-1/2} = 1/2, R_{1/2} = 3/2, R_{3/2} = 1/2.
    assert h.r_of_t(-1) == 1
    assert h.r_of_t(1) == 3
    assert h.r_of_t(3) == 1
    for r, q in FAMILY_PAIRS:
        hf = HFunction(twobridge_data(r, q))
        l = hf.linking  # the doubled l/2
        # 4R = 2 * (doubled R)
        assert hf.r_of_t(l) * 2 == r + q - 2
        assert hf.r_of_t(l - 2) * 2 == r + q - 6
        assert hf.r_of_t(l + 2) * 2 == r + q - 6


def test_04_hoste_polynomials():
    """The printed 7-term L(14,3) polynomial; walk = closed form familywide."""
    expected = LaurentPoly2.from_terms(
        {
            (0, 0): 1,
            (2, 2): 1,
            (4, 2): -1,
            (2, 0): -1,
            (0, -2): -1,
            (2, -2): 1,
            (4, 0): 1,
        }
    )
    assert twobridge_alexander(5, 3) == expected
    for r, q in LINK_PAIRS:
        assert twobridge_alexander(r, q) == twobridge_alexander_closed(r, q)


def test_05_tau_recoveries():
    """Known satellite tau formulas: Whitehead, Mazur, cables, braids."""
    whitehead = twobridge_profile(3, 3)
    mazur = twobridge_profile(5, 3)
    for tau in range(-3, 4):
        K = Companion(tau=tau, eps=1)
        for n in range(-4, 2 * tau):
            assert tau_closed_form(whitehead, K, n).value == 1
        # Mazur splits at n = 2 tau: tau(K)+1 below, tau(K) at and above.
        for n in range(-4, 2 * tau):
            assert tau_closed_form(mazur, K, n).value == tau + 1
        for n in range(2 * tau, 2 * tau + 4):
            assert tau_closed_form(mazur, K, n).value == tau
    import math

    for p in range(2, 8):
        for q in range(-7, 8):
            if q == 0 or math.gcd(p, abs(q)) != 1:
                continue
            for tau in range(-3, 4):
                plus = tau_cable(p, q, Companion(tau=tau, eps=1), 0).value
                assert plus == (p - 1) * (q - 1) // 2 + p * tau
                minus = tau_cable(p, q, Companion(tau=tau, eps=-1), 0).value
                assert minus == (p - 1) * (q + 1) // 2 + p * tau
    for p in range(3, 8):
        for q in range(p + 1, 2 * p):
            for b in range(1, p - 1):
                try:
                    tau_bridge_braid(p, q, b, Companion(tau=0, eps=1), 0)
                except InvalidInputError:
                    continue
                for tau in range(-3, 4):
                    up = tau_bridge_braid(p, q, b, Companion(tau=tau, eps=1), 0)
                    assert up.value == ((p - 1) * (q - 1) + b) // 2 + p * tau
                    dn = tau_bridge_braid(p, q, b, Companion(tau=tau, eps=-1), 0)
                    assert dn.value == ((p - 1) * (q + 1) + b) // 2 + p * tau
    # The closed form on a family profile recovers the family formula at
    # the n-framed slope r + p n wherever it answers.  The slope is folded
    # here and passed with n = 0, apart from the formula's own fold.
    companions = [Companion(tau=0, eps=0)] + [
        Companion(tau=tau, eps=eps) for tau in range(-3, 4) for eps in (-1, 1)
    ]
    cases = [(p, r, None) for p in range(2, 8) for r in range(1, p)
             if math.gcd(p, r) == 1]
    for p in range(3, 8):
        for r in range(p + 1, 2 * p):
            for b in range(1, p - 1):
                try:
                    bridge_braid_profile(p, r, b)
                except InvalidInputError:
                    continue
                cases.append((p, r, b))
    agreed = {"cable": 0, "braid": 0}
    for p, r, b in cases:
        prof = cable_profile(p, r) if b is None else bridge_braid_profile(p, r, b)
        for K in companions:
            for n in range(-4, 5):
                try:
                    closed = tau_closed_form(prof, K, n).value
                except UnsupportedRegimeError:
                    continue
                if b is None:
                    family = tau_cable(p, r + p * n, K, 0)
                else:
                    family = tau_bridge_braid(p, r + p * n, b, K, 0)
                assert closed == family.value, (p, r, b, K, n)
                agreed["cable" if b is None else "braid"] += 1
    assert agreed == {"cable": 1156, "braid": 1224}


def test_06_oracle_equivalence():
    """Closed form = chain-complex oracle on >= 1000 sweep points."""
    supported = 0
    for prof in sweep_profiles():
        for n in FRAMINGS:
            for K in COMPANIONS:
                try:
                    cf = tau_closed_form(prof, K, n)
                except UnsupportedRegimeError:
                    continue
                orc = tau_oracle(prof, K, n)
                assert cf.value == orc.value, (
                    f"l={prof.l} eps={K.eps} tau={K.tau} n={n}: "
                    f"{cf.value} != {orc.value}"
                )
                supported += 1
    assert supported >= 1000


def test_07_property_suite():
    """Structural H-function properties hold for every generated pattern."""
    datas = [data for _, data in link_cases()]
    for data in datas:
        h = HFunction(data)
        failures = validate(h)
        assert not failures, failures
        n_width = width(data)  # doubled, like l as the doubled l/2
        assert -n_width <= data.linking <= n_width
        # Width equals the top x1-power of the normalized polynomial.
        if not data.delta_tilde.is_zero:
            assert n_width == data.delta_tilde.max_exp1()
        # Pointwise domination of the model torus link H-function.
        parity = data.linking % 2
        for ti in range(-3, 4):
            for ri in range(-3, 4):
                t, r = 2 * ti + parity, 2 * ri + parity
                assert h(t, r) >= _t22l(data.linking, t, r)


def test_08_classifier_exactness():
    """Only the (3,1) pattern and the unlink are non-obstructed."""
    outcomes = {}
    cases = [("unlink", unlink_profile())]
    for r, q in LINK_PAIRS:
        cases.append(((r, q), twobridge_profile(r, q)))
    for label, prof in cases:
        verdict, _ = classify_operator(prof.hfunction())
        if verdict != "obstructed":
            outcomes[label] = verdict
    assert outcomes == {(3, 1): "identity", "unlink": "trivial"}


def test_09_tau_inequality():
    """tau(satellite) >= tau of the comparison cable at every sweep point."""
    for prof in sweep_profiles():
        for n in FRAMINGS:
            for K in COMPANIONS:
                result = tau_inequality_check(prof, K, n)
                assert result is not False
                if prof.l == 0 and result is not None:
                    assert tau_closed_form(prof, K, n).value >= 0


def test_10_genus_formulas():
    """Slice-genus formulas: Whitehead doubles and the n=0 tau equality."""
    whitehead = twobridge_profile(3, 3)
    for tau in (1, 2, 3):
        K = Companion(tau=tau, eps=1)
        for n in range(-3, 2 * tau):
            assert g4_satellite_regime(whitehead, K, n)[0] == 1
    for prof in sweep_profiles():
        for tau in (1, 2, 3):
            K = Companion(tau=tau, eps=1)
            assert g4_satellite_regime(prof, K, 0)[0] == (
                tau_closed_form(prof, K, 0).value
            )
