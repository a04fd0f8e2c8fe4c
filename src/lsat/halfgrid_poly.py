"""Exact sparse Laurent-polynomial arithmetic with half-integer exponents.

Values on the shifted lattice (l/2 + Z)^2 are represented exactly by storing
every half-integer as its doubled ``int``, here and in every other module,
so no floating point appears anywhere; :func:`half` prints one as ``p/2``.
Polynomials are sparse maps from exponents to nonzero integer coefficients
with a canonical (sorted) term order.

The module also provides the two normalization steps every Alexander
polynomial goes through before H-function evaluation:

- :func:`symmetrize` recenters a two-variable polynomial at the midpoint of
  its Newton polytope and checks invariance under inverting both variables;
- :func:`knot_chi_expansion` expands a one-variable knot polynomial against
  the geometric series in x^{-1}, producing the Euler-characteristic
  coefficients whose tail is eventually the constant 1.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Tuple, Union

from .errors import (
    MAX_INT_DIGITS,
    CosetMismatchError,
    InvalidInputError,
    NotAlexanderSymmetricError,
)

# A record's __init__ sets its slots through this; plain assignment raises.
setslot = object.__setattr__


class Record:
    """An immutable value: the fields named in ``_fields`` live in slots.

    Equality and hashing compare the class and the field tuple, and
    ``repr`` reads ``Name(field=value, ...)``.  Each subclass writes its
    own ``__init__`` (taking the fields in order, by position or name), so
    pickling, copying and :meth:`replace` rebuild through its checks.
    Slots outside ``_fields`` hold derived caches that none of these see.
    """

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A copy with ``changes`` applied, built by ``__init__``."""
        fields = dict(zip(self._fields, self._values()))
        return type(self)(**{**fields, **changes})


def half(doubled: int) -> str:
    """The half-integer ``doubled / 2`` as text: ``n`` when whole, else ``p/2``."""
    if doubled % 2 == 0:
        return str(doubled // 2)
    return f"{doubled}/2"


# Largest |doubled exponent| accepted in JSON input.  The sign probe and the
# validator scan a lattice square whose side grows with the exponents, and
# each HFunction precomputes a suffix-sum table over the support box of
# delta_tilde (at most 65 lattice points a side, plus a zero row and
# column), so this bounds the work and memory per input; every accepted
# two-bridge pair stays within it (the largest extent is 64, at (65,65)).
MAX_DOUBLED_EXPONENT = 64


# The least int of MAX_INT_DIGITS + 1 digits.
_INT_LIMIT = 10 ** MAX_INT_DIGITS


def json_int(value: object, what: str) -> int:
    """``value`` if it is a JSON integer (not a bool) of at most
    MAX_INT_DIGITS digits, else InvalidInputError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidInputError(f"{what} must be an integer, got {value!r}")
    if not -_INT_LIMIT < value < _INT_LIMIT:
        raise InvalidInputError(f"{what} has more than {MAX_INT_DIGITS} digits")
    return value


def _json_terms(obj: object, arity: int) -> list:
    """(doubled exponents, coefficient) pairs of a polynomial JSON object."""
    # type(): True and 2.0 compare equal to 1 and 2 but are not JSON integers.
    if not (isinstance(obj, dict) and type(obj.get("vars")) is int
            and obj["vars"] == arity):
        name = "one" if arity == 1 else "two"
        raise InvalidInputError(f"expected a {name}-variable polynomial")
    terms = obj.get("terms", [])
    if not isinstance(terms, list):
        raise InvalidInputError("polynomial terms must be a list")
    items = []
    for t in terms:
        if not (isinstance(t, dict) and isinstance(t.get("e"), list)
                and len(t["e"]) == arity):
            raise InvalidInputError(f"malformed polynomial term {t!r}")
        exps = tuple(json_int(e, "exponent") for e in t["e"])
        if any(abs(e) > MAX_DOUBLED_EXPONENT for e in exps):
            raise InvalidInputError(
                f"doubled exponent in {t['e']!r} exceeds the limit "
                f"|e| <= {MAX_DOUBLED_EXPONENT}"
            )
        items.append((exps, json_int(t.get("c"), "coefficient")))
    return items


def _canonical_terms(items: Iterable[tuple], arity: int) -> tuple:
    merged: dict = {}
    for exp, coeff in items:
        if arity == 2:
            exp = tuple(exp)
            if len(exp) != 2:
                raise InvalidInputError(f"exponent arity mismatch: {exp!r}")
        merged[exp] = merged.get(exp, 0) + coeff
    return tuple(sorted((e, c) for e, c in merged.items() if c != 0))


class LaurentPoly1(Record):
    """Sparse one-variable Laurent polynomial, exponents in (1/2)Z.

    ``terms`` is ((doubled exponent, coefficient), ...), sorted, no zeros.
    """

    _fields = __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        setslot(self, "terms", terms)

    @staticmethod
    def from_terms(items: Union[Mapping, Iterable[tuple]]) -> "LaurentPoly1":
        if isinstance(items, Mapping):
            items = items.items()
        return LaurentPoly1(_canonical_terms(items, 1))

    @staticmethod
    def one() -> "LaurentPoly1":
        return LaurentPoly1(((0, 1),))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if self.is_zero:
            raise InvalidInputError("zero polynomial has no degree")
        return self.terms[-1][0]

    def valuation(self) -> int:
        if self.is_zero:
            raise InvalidInputError("zero polynomial has no valuation")
        return self.terms[0][0]

    def eval_at_one(self) -> int:
        return sum(c for _, c in self.terms)

    def neg(self) -> "LaurentPoly1":
        return LaurentPoly1(tuple((e, -c) for e, c in self.terms))

    def is_symmetric(self) -> bool:
        coeffs = dict(self.terms)
        return all(coeffs.get(-e, 0) == c for e, c in self.terms)

    def to_json_obj(self) -> dict:
        return {
            "vars": 1,
            "terms": [{"e": [e], "c": c} for e, c in self.terms],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "LaurentPoly1":
        return LaurentPoly1.from_terms(
            (e, c) for (e,), c in _json_terms(obj, 1)
        )


class LaurentPoly2(Record):
    """Sparse two-variable Laurent polynomial, exponents in (1/2)Z x (1/2)Z.

    ``terms`` is (((doubled e1, doubled e2), coefficient), ...), sorted, no
    zeros.  All exponent pairs must lie on a single coset of Z^2: both
    coordinates have a fixed doubled-parity across the support.
    """

    _fields = __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        parities = {(e1 % 2, e2 % 2) for (e1, e2), _ in terms}
        if len(parities) > 1:
            raise CosetMismatchError(
                f"support spans several exponent cosets: {sorted(parities)}"
            )
        setslot(self, "terms", terms)

    @staticmethod
    def from_terms(items: Union[Mapping, Iterable[tuple]]) -> "LaurentPoly2":
        if isinstance(items, Mapping):
            items = items.items()
        return LaurentPoly2(_canonical_terms(items, 2))

    @staticmethod
    def zero() -> "LaurentPoly2":
        return LaurentPoly2(())

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coset(self) -> Union[Tuple[int, int], None]:
        """Doubled-parity pair of the support, or None for the zero poly."""
        if self.is_zero:
            return None
        (e1, e2), _ = self.terms[0]
        return (e1 % 2, e2 % 2)

    def neg(self) -> "LaurentPoly2":
        return LaurentPoly2(tuple((e, -c) for e, c in self.terms))

    def max_exp1(self) -> int:
        """The top doubled x1-exponent."""
        if self.is_zero:
            raise InvalidInputError("zero polynomial has no top exponent")
        return max(e1 for (e1, _), _ in self.terms)

    def to_json_obj(self) -> dict:
        return {
            "vars": 2,
            "terms": [{"e": list(e), "c": c} for e, c in self.terms],
        }

    @staticmethod
    def from_json_obj(obj: dict) -> "LaurentPoly2":
        return LaurentPoly2.from_terms(_json_terms(obj, 2))


def shift(p: LaurentPoly2, a: int, b: int) -> LaurentPoly2:
    """Multiply by the monomial x1^(a/2) x2^(b/2): a and b are doubled."""
    return LaurentPoly2(tuple(((e1 + a, e2 + b), c) for (e1, e2), c in p.terms))


def symmetrize(p: LaurentPoly2) -> LaurentPoly2:
    """Recenter p at its Newton-polytope midpoint and verify symmetry.

    Returns q = x1^a x2^b * p, with (a, b) minus the midpoint, after
    checking that q is invariant under (x1, x2) -> (x1^{-1}, x2^{-1}) up
    to a global sign, which stays as given.  The first term sets that
    sign, so an asymmetric first term fails the loop at once.
    """
    if p.is_zero:
        raise InvalidInputError("cannot symmetrize the zero polynomial")
    e1s = [e1 for (e1, _), _ in p.terms]
    e2s = [e2 for (_, e2), _ in p.terms]
    mid1 = min(e1s) + max(e1s)
    mid2 = min(e2s) + max(e2s)
    # The recentering monomial has exponents -mid/2 in doubled units, so
    # each doubled midpoint must be even for the center to lie in (1/2)Z.
    if mid1 % 2 != 0 or mid2 % 2 != 0:
        raise NotAlexanderSymmetricError(
            "Newton polytope has no half-integer center"
        )
    q = shift(p, -mid1 // 2, -mid2 // 2)
    coeffs = dict(q.terms)
    (e1_0, e2_0), c_0 = q.terms[0]
    s = 1 if coeffs.get((-e1_0, -e2_0), 0) == c_0 else -1
    for (e1, e2), c in q.terms:
        if coeffs.get((-e1, -e2), 0) != s * c:
            raise NotAlexanderSymmetricError(
                f"coefficient at ({half(e1)},{half(e2)}) breaks inversion symmetry"
            )
    return q


def knot_chi_expansion(delta: LaurentPoly1) -> LaurentPoly1:
    """Expand delta(x)/(1 - x^{-1}) as a power series in x^{-1}.

    The coefficient of x^s is chi(s): the sum of delta's coefficients at
    exponents >= s, after delta is normalized to delta(1) = 1.  Returns
    chi(s) for s from one step below the bottom degree of delta up to its
    top degree; above that chi is 0 and below it the constant 1.
    Exponents are doubled and s steps by one.
    """
    ev = delta.eval_at_one()
    if ev not in (1, -1):
        raise InvalidInputError(f"delta(1) = {ev}, expected +-1")
    if ev == -1:
        delta = delta.neg()
    if not delta.is_symmetric():
        raise InvalidInputError("delta is not inversion-symmetric")
    coeffs = dict(delta.terms)
    if any(e % 2 for e in coeffs):
        raise InvalidInputError("knot polynomial needs integer exponents")
    chi = {}
    running = 0
    for s in range(delta.degree(), delta.valuation() - 3, -2):
        running += coeffs.get(s, 0)
        chi[s] = running
    return LaurentPoly1.from_terms(chi)
