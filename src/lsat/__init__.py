"""Concordance invariants of satellite knots from L-space operators.

The package computes H-functions of 2-component L-space links from exact
Alexander data, derives pattern profiles for two-bridge, cable and 1-bridge
braid operators, evaluates tau of satellites by closed forms, and
cross-validates every closed form against an independent chain-complex
homology oracle over F2[Z].

Each library module is registered lazily: ``lsat.<module>`` is in
``sys.modules`` from the start, but its code runs on first attribute use,
so an ``lsat`` process compiles only the modules its command reaches.
"""

import importlib.util
import sys

# Each library module, with the public names the package re-exports from it.
_MODULES = {
    "errors": "",
    "halfgrid_poly": "LaurentPoly1 LaurentPoly2 half knot_chi_expansion shift symmetrize",
    "hfunction": "HFunction LinkAlexData hf_table_tsv resolve_sign validate width",
    "patterns": "Companion PatternProfile TauResult bridge_braid_profile cable_profile "
    "generic_profile tau_bridge_braid tau_cable twobridge_alexander twobridge_data "
    "twobridge_eta twobridge_profile twobridge_walk unlink_data unlink_profile",
    "invariants": "classify_operator eps_not_minus_one tau_closed_form tau_inequality_check",
    "zcomplex": "ZComplex build_summand tau_oracle tower_alexander",
    "genus": "g3rel g3rel_framed g4_satellite_regime",
}
# Public name -> the module that defines it.
_HOME = {name: mod for mod, names in _MODULES.items() for name in names.split()}


def _lazy(name: str):
    """Register ``lsat.<name>``; its code runs when an attribute is first read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


# Not lsat.cli: ``python -m lsat.cli`` warns when it is already imported.
globals().update({name: _lazy(name) for name in (*_MODULES, "sweeps")})


def __getattr__(name: str):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted([*_MODULES, *_HOME])
__version__ = "0.1.0"
