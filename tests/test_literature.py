"""Published satellite tau formulas, read by both tau routes.

Each formula reads only tau(K), eps(K) and the framing, so it checks the
closed form and the chain-complex oracle against a value derived outside
this package.

- Hedden, "Knot Floer homology of Whitehead doubles" (Geom. Topol. 11,
  2007): tau(D+(K, t)) = 1 if t < 2 tau(K), else 0.
- Levine, "Nonsurjective satellite operators and piecewise-linear
  concordance" (Forum Math. Sigma 4, 2016), for the Mazur pattern Q at
  n = 0: tau(Q(K)) = tau(K) if tau(K) <= 0 and eps(K) in {0, 1}, else
  tau(K) + 1.
"""

import pytest

from lsat import Companion, tau_closed_form, tau_oracle, twobridge_profile

ROUTES = {"closed": tau_closed_form, "oracle": tau_oracle}


def companions(taus):
    """Every (tau, eps) a knot can have with tau in TAUS: eps = 0 forces tau = 0."""
    return [Companion(tau=tau, eps=eps) for tau in taus for eps in (-1, 0, 1)
            if eps or not tau]


@pytest.mark.parametrize("route", ROUTES)
def test_hedden_whitehead_double(route):
    whitehead = twobridge_profile(3, 3)
    points = [(K, t) for K in companions(range(-4, 5)) for t in range(-12, 13)]
    assert len(points) == 475
    for K, t in points:
        want = 1 if t < 2 * K.tau else 0
        assert ROUTES[route](whitehead, K, t).value == want, (K, t)


@pytest.mark.parametrize("route", ROUTES)
def test_levine_mazur_pattern(route):
    mazur = twobridge_profile(5, 3)
    points = companions(range(-5, 6))
    assert len(points) == 23
    for K in points:
        want = K.tau if K.tau <= 0 and K.eps in (0, 1) else K.tau + 1
        assert ROUTES[route](mazur, K, 0).value == want, K
