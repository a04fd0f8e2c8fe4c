"""Concordance invariants of satellite knots from L-space operators.

The package computes H-functions of 2-component L-space links from exact
Alexander data, derives pattern profiles for two-bridge, cable and 1-bridge
braid operators, evaluates tau of satellites by closed forms, and
cross-validates every closed form against an independent chain-complex
homology oracle over F2[Z].
"""

from .halfgrid_poly import (
    LaurentPoly1,
    LaurentPoly2,
    half,
    knot_chi_expansion,
    shift,
    symmetrize,
)
from .hfunction import (
    HFunction,
    LinkAlexData,
    hf_table_tsv,
    resolve_sign,
    validate,
    width,
)
from .patterns import (
    Companion,
    PatternProfile,
    TauResult,
    bridge_braid_profile,
    cable_profile,
    generic_profile,
    twobridge_alexander,
    twobridge_data,
    twobridge_eta,
    twobridge_profile,
    twobridge_walk,
    unlink_data,
    unlink_profile,
)
from .invariants import (
    classify_operator,
    eps_not_minus_one,
    tau_bridge_braid,
    tau_cable,
    tau_closed_form,
    tau_inequality_check,
)
from .zcomplex import (
    ZComplex,
    build_summand,
    tau_oracle,
    tower_alexander,
)
from .genus import g3rel, g3rel_framed, g4_satellite_regime

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
