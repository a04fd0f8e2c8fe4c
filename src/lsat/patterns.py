"""Pattern profiles for the supported satellite-operator families.

Three generated families are supported:

- two-bridge operators, whose two-component Alexander polynomial is built
  from a lattice walk;
- cables, whose scalar profile is fully determined by braidedness;
- 1-bridge braids B(p, q, b), the closures of the word
  (s_b...s_1)(s_{p-1}...s_1)^q in the Artin generators s_i
  (Greene-Lewallen-Vafaee), likewise scalar-profiled from the genus
  formula; a cable is B(p, q, 0) and shares their profile and tau formula.

:data:`FAMILIES` holds each family's row.  JSON link data is no family:
:func:`generic_profile` fills its profile by H-function queries.
"""

from __future__ import annotations

import functools
import math
from typing import List, Optional, Tuple

from .errors import InvalidInputError, UnsupportedRegimeError
from .halfgrid_poly import (
    MAX_DOUBLED_EXPONENT, LaurentPoly1, LaurentPoly2, Record, half, setslot,
    shift, symmetrize,
)
from .hfunction import HFunction, LinkAlexData, validate, width


class PatternProfile(Record):
    """Scalar data of a pattern operator used by every closed form.

    ``r_minus``, ``r_center``, ``r_plus`` are the R values at winding/2 - 1,
    winding/2 and winding/2 + 1.  ``n_width`` and the three R values are
    doubled ints (2N, 2R); ``l`` and ``g3`` are plain ints.  The side
    conditions, minimal wrapping and provenance are derived from these
    fields.  The constructor is the one guard of three invariants, so no
    consumer checks them again: the winding is >= 0; ``r_center`` is
    always given, and ``r_minus`` and ``r_plus`` both or neither (braided
    families give neither); the width and every R value lie on the coset
    l/2 + Z, so each doubled value is congruent to l mod 2.  The oracle
    keeps its reduced summands in the ``_oracle`` dict, outside the fields.
    """

    _fields = ("l", "g3", "n_width", "r_minus", "r_center", "r_plus", "data")
    __slots__ = _fields + ("_oracle",)

    def __init__(self, l: int, g3: int, n_width: int, r_minus: Optional[int],
                 r_center: int, r_plus: Optional[int],
                 data: Optional[LinkAlexData] = None):
        if l < 0:
            raise InvalidInputError("profiles are normalized to winding >= 0")
        if g3 < 0:
            raise InvalidInputError("negative Seifert genus")
        if r_center is None:
            raise InvalidInputError("every profile needs r_center")
        if (r_minus is None) != (r_plus is None):
            raise InvalidInputError("r_minus and r_plus come as a pair")
        for name, value in (("n_width", n_width), ("r_minus", r_minus),
                            ("r_center", r_center), ("r_plus", r_plus)):
            if value is not None and (value - l) % 2:
                raise InvalidInputError(
                    f"{name} = {half(value)} is off the lattice l/2 + Z"
                )
        for other in (r_minus, r_plus):
            if other is not None and other > r_center:
                raise InvalidInputError("R at the winding/2 column must be maximal")
        excess = r_center - l - 2 * g3
        if excess < 0:
            raise InvalidInputError(
                f"R_center - l/2 = {half(r_center - l)} < g3 = {g3}"
            )
        if n_width == l and excess != 0:
            raise InvalidInputError("minimal wrapping forces R_center - l/2 = g3")
        setslot(self, "l", l)
        setslot(self, "g3", g3)
        setslot(self, "n_width", n_width)
        setslot(self, "r_minus", r_minus)
        setslot(self, "r_center", r_center)
        setslot(self, "r_plus", r_plus)
        setslot(self, "data", data)
        setslot(self, "_oracle", {})

    @property
    def cond_tau(self) -> bool:
        """R_{l/2-1} >= g3 + l/2 - 1, the tau-side condition."""
        if self.r_minus is None:
            # Unknotted patterns and small winding satisfy it automatically.
            return self.l in (0, 1) or self.g3 == 0
        return self.r_minus >= 2 * self.g3 + self.l - 2

    @property
    def cond_eps(self) -> bool:
        """R_{l/2-1} >= g3 + l/2, the eps-side condition."""
        if self.r_minus is None:
            # Automatic only at winding 0.
            return self.l == 0
        return self.r_minus >= 2 * self.g3 + self.l

    @property
    def minimal_wrapping(self) -> bool:
        """Whether the width N equals l/2."""
        return self.n_width == self.l

    @property
    def provenance(self) -> Tuple[Tuple[str, str], ...]:
        """Per field: closed form, H-function queries, delta2 or unknown.

        Every profile with Alexander data reads g3 from delta2; none takes
        it from the user.
        """
        if self.data is None:
            return (
                ("n_width", "closed-form"),
                ("r_center", "closed-form"),
                ("r_minus", "unknown"),
                ("r_plus", "unknown"),
                ("g3", "closed-form"),
            )
        return tuple(
            (name, "computed-from-H")
            for name in ("n_width", "r_minus", "r_center", "r_plus")
        ) + (("g3", "computed-from-delta2"),)

    def hfunction(self) -> HFunction:
        """The one HFunction of ``data`` (see LinkAlexData.hfunction)."""
        if self.data is None:
            raise InvalidInputError(
                "this profile carries no Alexander data (closed-form family)"
            )
        return self.data.hfunction()

    def framing_shift(self, n: int) -> int:
        """Genus shift l(l-1)n/2 of the n-framed satellite."""
        return self.l * (self.l - 1) * n // 2


class Companion(Record):
    """Concordance data of the companion knot."""

    _fields = __slots__ = ("tau", "eps")

    def __init__(self, tau: int, eps: int):
        if eps not in (-1, 0, 1):
            raise InvalidInputError(f"eps must be in {{-1,0,1}}, got {eps}")
        if eps == 0 and tau != 0:
            raise InvalidInputError(
                "eps = 0 forces tau = 0 (local equivalence to the unknot)"
            )
        setslot(self, "tau", tau)
        setslot(self, "eps", eps)


def regime(K: Companion, x: int,
           prof: Optional[PatternProfile] = None) -> Tuple[int, Optional[str]]:
    """The eps = +-1 formulas that hold at (K, x), and an eps = 0 point's tag.

    eps = 0 forces tau = 0 (Hom), and an eps = 0 companion takes the
    eps = 1 value at x >= 0 and the eps = -1 value at x < 0, where x is
    a profile's framing n or the framed slope q of a cable or braid.  So
    the formulas are those of K.eps, or of the sign of x at eps = 0, and
    only an eps = 0 point gets a tag: "eps=0,n>=0" or "eps=0,n<0".

    Given a profile, the eps = -1 formulas are gated: they need the
    R_{l/2-1} condition and then the value r_minus, and refuse with
    UnsupportedRegimeError otherwise.
    """
    if K.eps:
        side, tag = K.eps, None
    else:
        side, tag = (1, "eps=0,n>=0") if x >= 0 else (-1, "eps=0,n<0")
    if side < 0 and prof is not None:
        if not prof.cond_tau:
            what = "eps=-1" if K.eps else "eps=0 with n<0"
            raise UnsupportedRegimeError(f"{what} needs the R_{{l/2-1}} condition")
        if prof.r_minus is None:
            raise UnsupportedRegimeError(
                "r_minus is unavailable for this profile; "
                "use the family-specific formula instead"
            )
    return side, tag


class TauResult(Record):
    """A tau value with the method and case (branch) that produced it."""

    _fields = __slots__ = ("value", "method", "case_tag")

    def __init__(self, value: int, method: str, case_tag: str):
        setslot(self, "value", value)
        setslot(self, "method", method)
        setslot(self, "case_tag", case_tag)

    def to_json_obj(self) -> dict:
        return {"tau": self.value, "case": self.case_tag, "method": self.method}


def twobridge_eta(p: int, q: int, i: int) -> int:
    """Sign sequence (-1)^floor(iq/p) of the two-bridge walk."""
    if p <= 0 or i <= 0:
        raise InvalidInputError("eta needs positive p and i")
    return -1 if (i * q // p) % 2 else 1


# Largest two-bridge r accepted.  The normalized delta_tilde of (r, q)
# spans a doubled extent of at most r - 1, so this keeps generated links
# within the MAX_DOUBLED_EXPONENT bound that JSON input obeys.
MAX_TWOBRIDGE_R = MAX_DOUBLED_EXPONENT + 1


def twobridge_walk(r: int, q: int) -> List[Tuple[int, int]]:
    """Lattice walk whose visited points carry the Alexander coefficients.

    Starts at (0,0) with (r-3)/2 diagonal steps, then (q-1)/2 repetitions of
    the block [(1,0); (r-1)/2 times (-1,-1); (1,0); (r-3)/2 times (1,1)].
    Visits (rq-1)/2 distinct points: the tests pin this for every accepted
    (r, q), so the walk does not recheck it.
    """
    if r % 2 == 0 or q % 2 == 0:
        raise InvalidInputError("two-bridge parameters must be odd")
    if q < 1 or r < q:
        raise InvalidInputError("two-bridge parameters need r >= q >= 1")
    if r > MAX_TWOBRIDGE_R:
        raise InvalidInputError(
            f"two-bridge r = {r} exceeds the limit r <= {MAX_TWOBRIDGE_R}"
        )
    if (r, q) == (1, 1):
        raise InvalidInputError("(1,1) is not a two-bridge operator")
    pos = (0, 0)
    visited = [pos]

    def step(dx: int, dy: int, times: int) -> None:
        nonlocal pos
        for _ in range(times):
            pos = (pos[0] + dx, pos[1] + dy)
            visited.append(pos)

    step(1, 1, (r - 3) // 2)
    for _ in range((q - 1) // 2):
        step(1, 0, 1)
        step(-1, -1, (r - 1) // 2)
        step(1, 0, 1)
        step(1, 1, (r - 3) // 2)
    return visited


def twobridge_alexander(r: int, q: int) -> LaurentPoly2:
    """Unsymmetrized two-component Alexander polynomial from the walk."""
    return LaurentPoly2.from_terms({
        (2 * i, 2 * j): -1 if (i + j) % 2 else 1 for i, j in twobridge_walk(r, q)
    })


# The two-bridge data is a pure function of (r, q); verify rebuilds the
# same links in most of its checks, so it is built once per process, with
# its one HFunction, and profiles are re-read from it.  The bound keeps the
# memo small for long-lived callers.
_TWOBRIDGE_MEMO = 64


@functools.lru_cache(maxsize=_TWOBRIDGE_MEMO)
def twobridge_data(r: int, q: int) -> LinkAlexData:
    """Normalized Alexander data of the two-bridge operator.

    The walk's sign is the one ``resolve_sign`` picks: the tests prove
    it for every accepted (r, q), so it is not probed here.  Memoized per
    process on (r, q): repeated calls return the same (immutable) data,
    which carries its one HFunction.  The parameters are checked by
    :func:`twobridge_walk`.
    """
    return LinkAlexData(
        linking=(r - q) // 2,
        delta_tilde=shift(symmetrize(twobridge_alexander(r, q)), 1, 1),
        delta1=LaurentPoly1.one(),
        delta2=LaurentPoly1.one(),
    )


def _profile_from_h(h: HFunction) -> PatternProfile:
    """Profile of an HFunction: width and R values from H, g3 from delta2."""
    l = h.linking
    return PatternProfile(
        l=l,
        g3=h.data.g3,
        n_width=width(h.data),
        r_minus=h.r_of_t(l - 2),
        r_center=h.r_of_t(l),
        r_plus=h.r_of_t(l + 2),
        data=h.data,
    )


def twobridge_profile(r: int, q: int) -> PatternProfile:
    """Profile of the two-bridge operator; (r,q) and (q,r) agree.

    Each call reads a new profile from the memoized twobridge_data.
    """
    if q > r:
        r, q = q, r
    return _profile_from_h(twobridge_data(r, q).hfunction())


def unlink_data() -> LinkAlexData:
    """Alexander data of the 2-component unlink (the trivial operator)."""
    return LinkAlexData(
        linking=0,
        delta_tilde=LaurentPoly2.zero(),
        delta1=LaurentPoly1.one(),
        delta2=LaurentPoly1.one(),
    )


def unlink_profile() -> PatternProfile:
    return _profile_from_h(unlink_data().hfunction())


def _braided_profile(p: int, r: int, b: int) -> PatternProfile:
    """Scalar profile of the braided pattern B(p, r, b); a cable is b = 0."""
    g3 = ((p - 1) * (r - 1) + b) // 2
    return PatternProfile(
        l=p,
        g3=g3,
        n_width=p,
        r_minus=None,
        r_center=2 * g3 + p,
        r_plus=None,
    )


def cable_knot_check(p: int, q: int) -> None:
    """Reject cable parameters whose closure is a link, not a knot."""
    if p <= 0 or math.gcd(p, q) != 1:
        raise InvalidInputError(f"cable needs p > 0 and gcd(p,q)=1, got ({p},{q})")


def cable_profile(p: int, r: int) -> PatternProfile:
    """Scalar profile of the (p, r) cable pattern, 0 < r < p, gcd 1."""
    if p < 2 or not (0 < r < p):
        raise InvalidInputError("cable needs p >= 2 and 0 < r < p")
    cable_knot_check(p, r)
    return _braided_profile(p, r, 0)


# Largest braid p accepted: the knot check walks up to p strands, about
# 150 ns each (2 cores, CPython 3.11.7), so it stays near 10 ms per op.
MAX_BRAID_STRANDS = 65536


# The CLI checks a braid when it loads the spec, and the family function it
# then calls checks the same triple again: the last accepted triple is kept
# so that an op walks the orbit once.  A refusal raises and is not kept.
@functools.lru_cache(maxsize=1)
def bridge_braid_knot_check(p: int, q: int, b: int) -> None:
    """Reject parameters whose braid closure is a link, not a knot.

    The closure of B(p, q, b) is a knot iff the word's strand permutation,
    x -> (x + 1 if x < b, 0 if x = b, else x) + q mod p, is one p-cycle.
    """
    if p < 2 or not (0 < b < p - 1):
        raise InvalidInputError("1-bridge braid needs p >= 2, 0 < b < p-1")
    if p > MAX_BRAID_STRANDS:
        raise InvalidInputError(
            f"1-bridge braid p = {p} exceeds the limit p <= {MAX_BRAID_STRANDS}"
        )
    step, x, orbit = q % p, 0, 0
    while x or not orbit:
        x = ((x + 1 if x < b else 0 if x == b else x) + step) % p
        orbit += 1
    if orbit < p:
        raise InvalidInputError(f"closure of B({p},{q},{b}) is a link")


def bridge_braid_profile(p: int, r: int, b: int) -> PatternProfile:
    """Scalar profile of the 1-bridge braid pattern B(p, r, b), p < r < 2p."""
    if not (p < r < 2 * p):
        raise InvalidInputError("bridge braid profile needs p < r < 2p")
    bridge_braid_knot_check(p, r, b)
    return _braided_profile(p, r, b)


def _tau_braided(p: int, q: int, b: int, K: Companion, n: int,
                 family: str) -> TauResult:
    """B(p, q, b) (a cable is b = 0) at the slope q + p n; eps = -1 by mirror."""
    slope = q + p * n
    side, _ = regime(K, slope)
    value = ((p - 1) * (slope - side) + b) // 2 + p * K.tau
    mirror = "(mirror)" if K.eps < 0 else ""
    return TauResult(value, "family-formula", f"{family},eps={K.eps}{mirror}")


def tau_cable(p: int, q: int, K: Companion, n: int) -> TauResult:
    """tau of the n-framed (p, q) cable satellite: its slope is q + p n."""
    cable_knot_check(p, q)
    return _tau_braided(p, q, 0, K, n, "cable")


def tau_bridge_braid(p: int, q: int, b: int, K: Companion, n: int) -> TauResult:
    """tau of the n-framed B(p, q, b) satellite: its slope is q + p n."""
    bridge_braid_knot_check(p, q, b)
    return _tau_braided(p, q, b, K, n, "braid")


# Spec kind -> (arity, loader, scalar profile, tau formula); the loader checks
# the parameters and returns the profile with Alexander data, or None.  The
# lambda looks twobridge_profile up per call, so a wrapper that replaces the
# module's name (bench/tracer.py hooks it) sees every load.
FAMILIES = {
    "twobridge": (2, lambda r, q: twobridge_profile(r, q), None, None),
    "cable": (2, cable_knot_check, cable_profile, tau_cable),
    "braid": (3, bridge_braid_knot_check, bridge_braid_profile, tau_bridge_braid),
}


def generic_profile(data: LinkAlexData) -> PatternProfile:
    """Assemble a profile from user Alexander data by H-function queries.

    The data must pass :func:`validate`.  Like every profile with
    Alexander data, g3 is the top degree of delta2; the profile's own
    checks refuse data whose R values disagree with it.
    """
    if data.linking < 0:
        raise InvalidInputError(
            "orient the pattern so the winding number is nonnegative"
        )
    h = data.hfunction()
    failures = validate(h)
    if failures:
        raise InvalidInputError(
            "Alexander data fails H-function validation: "
            + "; ".join(failures[:3])
        )
    return _profile_from_h(h)

