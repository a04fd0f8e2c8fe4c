"""Unit tests for Thurston-norm and slice-genus formulas."""

import pytest

from lsat import (
    Companion,
    bridge_braid_profile,
    cable_profile,
    g3rel,
    g3rel_framed,
    g4_satellite_regime,
    tau_closed_form,
    twobridge_profile,
)
from lsat.errors import UnsupportedRegimeError
from lsat.sweeps import FAMILY_PAIRS


WHITEHEAD = twobridge_profile(3, 3)
MAZUR = twobridge_profile(5, 3)


class TestG3Rel:
    def test_whitehead(self):
        assert g3rel(WHITEHEAD) == 1

    def test_cable_equals_seifert_genus(self):
        prof = cable_profile(3, 2)
        assert g3rel(prof) == prof.g3 == 1

    def test_identity_operator(self):
        assert g3rel(twobridge_profile(3, 1)) == 0

    def test_integrality_across_family(self):
        for r, q in FAMILY_PAIRS:
            prof = twobridge_profile(r, q)
            value = g3rel(prof)
            assert value >= prof.g3


class TestG4Satellite:
    def test_mazur_zero_framing(self):
        value, regime = g4_satellite_regime(MAZUR, Companion(tau=1, eps=1), 0)
        assert (value, regime) == (2, "zero-framing")

    def test_whitehead_small_framing(self):
        value, regime = g4_satellite_regime(
            WHITEHEAD, Companion(tau=2, eps=1), 3
        )
        assert value == 1
        assert regime == "winding-zero,n<2tau"

    def test_cable_minimal_wrapping(self):
        value, regime = g4_satellite_regime(
            cable_profile(2, 1), Companion(tau=1, eps=1), 2
        )
        assert (value, regime) == (4, "minimal-wrapping,n>=0")

    def test_positive_tau_required(self):
        with pytest.raises(UnsupportedRegimeError):
            g4_satellite_regime(MAZUR, Companion(tau=0, eps=1), 0)

    def test_no_regime(self):
        # Winding 1, not minimal wrapping, nonzero negative framing.
        with pytest.raises(UnsupportedRegimeError):
            g4_satellite_regime(MAZUR, Companion(tau=1, eps=1), -1)

    def test_matches_tau_at_zero_framing(self):
        for prof in (MAZUR, WHITEHEAD, cable_profile(3, 2)):
            for tau in (1, 2, 3):
                K = Companion(tau=tau, eps=1)
                assert g4_satellite_regime(prof, K, 0)[0] == (
                    tau_closed_form(prof, K, 0).value
                )


class TestG3RelFramed:
    def test_cable(self):
        assert g3rel_framed(cable_profile(3, 2), 1) == 4

    def test_zero_framing_is_seifert_genus(self):
        for prof in (cable_profile(2, 1), bridge_braid_profile(4, 5, 2)):
            assert g3rel_framed(prof, 0) == prof.g3

    def test_braid(self):
        assert g3rel_framed(bridge_braid_profile(4, 5, 2), 2) == 19

    def test_needs_minimal_wrapping(self):
        with pytest.raises(UnsupportedRegimeError):
            g3rel_framed(MAZUR, 1)

    def test_needs_nonnegative_framing(self):
        with pytest.raises(UnsupportedRegimeError):
            g3rel_framed(cable_profile(2, 1), -1)
