"""Zig-zag paths over F2[Z] and the independent tau oracle.

The oracle builds the explicit truncated direct-summand complex for each
companion-eps regime, and every such summand is a zig-zag path: generators
0, 1, ..., m in a row, alternately sinks and sources, with arrow i joining
generators i and i+1, from the source of the pair to its sink, weighted by
Z^weights[i].  A :class:`ZComplex` stores exactly that: the weights, whether
generator 0 is a sink, and the doubled Alexander grading of generator 0.
Every arrow is homogeneous for A = (gr_w - gr_z)/2 (Z raises A by 1 from
target to source), so the other gradings follow, and a path is two-step,
so d^2 = 0.

The free part of homology over the PID F2[Z] is read by a graded Smith
reduction, which on a path contracts arrows (see :func:`tower_alexander`).
The free part must have rank exactly one; its grading is tau.  Every
grading of a summand carries the same translation T = l(l-1)n/2 + l tau,
so the oracle reduces each summand shape once per profile and adds T.
"""

from __future__ import annotations

import heapq
from typing import Sequence, Tuple

from .errors import InvalidInputError, VerificationError
from .halfgrid_poly import Record, setslot
from .patterns import Companion, PatternProfile, TauResult, regime

# Largest oracle summand, in sources: every case builds |n - 2 tau| of them
# (eps = 0 forces tau = 0).  The heap-driven path contraction is near-linear
# in the summand; the cap bounds one oracle call to well under a second.
MAX_SUMMAND_SOURCES = 32768


class ZComplex(Record):
    """A zig-zag path over F2[Z] with monomial differential.

    Generators 0, 1, ..., len(weights) alternate, generator 0 being a sink
    if ``first_sink`` holds, else a source; arrow i joins generators i and
    i+1, from the source of the pair to its sink, with Z-exponent
    weights[i].  ``base`` is the doubled Alexander grading gr_w - gr_z of
    generator 0, and A(source) = A(sink) + k on each arrow fixes the rest.
    ``generators`` ((gr_w, gr_z) pairs) and ``arrows`` ((source, target,
    Z-exponent) triples) are derived in path order, which for the arrows is
    sorted order.  The constructor runs :meth:`check`.
    """

    _fields = __slots__ = ("weights", "first_sink", "base", "case_tag")

    def __init__(self, weights: Sequence[int], first_sink: bool, base: int,
                 case_tag: str = ""):
        setslot(self, "weights", tuple(weights))
        setslot(self, "first_sink", first_sink)
        setslot(self, "base", base)
        setslot(self, "case_tag", case_tag)
        self.check()

    def check(self) -> None:
        """Refuse a negative Z-exponent, the one fault a path can carry."""
        for s, t, k in self.arrows:
            if k < 0:
                raise InvalidInputError(f"negative Z-exponent on {s}->{t}")

    @property
    def generators(self) -> Tuple[Tuple[int, int], ...]:
        w, a = int(not self.first_sink), self.base  # a: doubled A
        gens = [(w, w - a)]
        for k in self.weights:
            w ^= 1
            a += 2 * k if w else -2 * k
            gens.append((w, w - a))
        return tuple(gens)

    @property
    def arrows(self) -> Tuple[Tuple[int, int, int], ...]:
        # Arrow i points left when generator i is a sink.
        return tuple((i + 1, i, k) if (i % 2 == 0) == self.first_sink
                     else (i, i + 1, k) for i, k in enumerate(self.weights))


def tower_alexander(c: ZComplex) -> int:
    """Doubled Alexander grading gr_w - gr_z of the free part's generator.

    A graded Smith reduction over F2[Z], which on a path contracts it.  The
    live arrow of least exponent k is the pivot: it and its two generators
    cancel.  The arrows on either side of it, of exponents k_l and k_r,
    become one arrow of exponent k_l + k_r - k joining the outer
    generators, which is the row (or column) operation clearing the
    pivot's column (or row); k_l - k and k_r - k are >= 0 because k is
    least.  At an end of the path, the single neighbour arrow drops
    instead.  Every step keeps a path and removes two generators, so
    exactly one survives when the path has an even number of arrows; it
    generates the free part.

    Arrows are named by their left generator and taken from a lazy
    min-heap whose stale items are skipped, so a path of m arrows reduces
    in O(m log m).
    """
    size = len(c.weights) + 1
    left = list(range(-1, size - 1))  # -1 and size mark the ends
    right = list(range(1, size + 1))
    exp = list(c.weights)  # exp[i]: the arrow joining i and right[i]
    alive = [True] * size
    heap = [(k, i) for i, k in enumerate(exp)]
    heapq.heapify(heap)
    while heap:
        k, u = heapq.heappop(heap)
        v = right[u]
        if not alive[u] or v == size or exp[u] != k:
            continue  # stale: cancelled or merged since it was pushed
        x, y = left[u], right[v]
        alive[u] = alive[v] = False
        if x >= 0:
            right[x] = y
            if y < size:
                exp[x] += exp[v] - k
                heapq.heappush(heap, (exp[x], x))
        if y < size:
            left[y] = x

    free = [g for g, live in zip(c.generators, alive) if live]
    if len(free) != 1:
        raise VerificationError(
            f"free homology rank {len(free)} != 1 in {c.case_tag!r}"
        )
    w, z = free[0]
    return w - z


def _zigzag(weights: Sequence[int], first_sink: bool, at: int, anchor: int,
            case_tag: str) -> ZComplex:
    """The path of these weights with A(generator ``at``) = ``anchor``.

    ``at`` indexes the generators as a sequence does, so -1 is the last.
    """
    rise = 0  # A(generator at) - A(generator 0)
    for i, k in enumerate(weights[:at % (len(weights) + 1)]):
        rise += k if (i % 2 == 0) == first_sink else -k
    return ZComplex(weights, first_sink, 2 * (anchor - rise), case_tag)


def _summand_shift(prof: PatternProfile, K: Companion, n: int) -> int:
    """T = l(l-1)n/2 + l tau, the translation of every summand grading."""
    return prof.framing_shift(n) + prof.l * K.tau


def build_summand(prof: PatternProfile, K: Companion, n: int) -> ZComplex:
    """Construct the truncated direct summand carrying the Z-tower.

    :func:`~lsat.patterns.regime` of (K, n) picks the eps = 1 or the
    eps = -1 shapes; an eps = 0 companion (tau = 0) takes them by the sign
    of n, under its own case tag.  A summand of more than
    ``MAX_SUMMAND_SOURCES`` sources is refused before it is built, and
    before the regime's gate.  One anchor generator per shape gets its
    Alexander grading from the proof-stated value; every other grading
    follows from arrow homogeneity.

    The arrow weights are read from the profile's R values, whose
    constructor keeps them on l/2 + Z with R_center maximal and at least
    g3 + l/2: so sigma = R_center - l/2 - g3, tau = sigma + l and the
    weights W, Z of the n > 2 tau ends are whole and >= 0.  Only the
    eps = -1 shapes with n <= 2 tau read tau_minus = R_- + l/2 - g3 and
    sigma_plus = R_+ - l/2 - g3, and refuse a negative one.

    Each branch states its anchor at T = 0 and adds the one translation
    T = l(l-1)n/2 + l tau, which homogeneity carries to every generator.
    The rest of the branch reads n - 2 tau alone, so two (tau, n) with equal
    eps and n - 2 tau give the same arrows, case tag and gr_w, and
    A-gradings that differ by the difference of their T; they refuse
    alike, too.
    """
    l, g, tau = prof.l, prof.g3, K.tau
    sources = abs(n - 2 * tau)
    if sources > MAX_SUMMAND_SOURCES:
        raise InvalidInputError(
            f"oracle summand of {sources} sources exceeds the limit "
            f"{MAX_SUMMAND_SOURCES}"
        )
    side, eps0_tag = regime(K, n, prof)
    shift = _summand_shift(prof, K, n)
    # Doubled R values: l is 2 * (l/2); c is sigma and a is tau.
    c = (prof.r_center - l) // 2 - g
    a = c + l

    if side == 1:
        anchor = g + shift
        if n >= 2 * tau:
            # k sources with weight-a arrows left and weight-c arrows
            # right; the anchor A value sits on the LEFTMOST sink.
            k = n - 2 * tau
            return _zigzag([a, c] * k, True, 0, anchor, eps0_tag or "eps=1,n>=2tau")
        # eps = 1, n < 2tau: the same chain with the anchor on the
        # RIGHTMOST sink, and the two companion-staircase ends map in with
        # identity arrows at the two extreme sinks.
        k = 2 * tau - n
        return _zigzag([0] + [a, c] * k + [0], False, -2, anchor, "eps=1,n<2tau")

    v_a = (prof.r_minus + l) // 2 + shift
    k = 2 * tau - n
    if k >= 0:
        am = (prof.r_minus + l) // 2 - g
        cp = (prof.r_plus - l) // 2 - g
        for name, weight in (("tau_minus", am), ("sigma_plus", cp)):
            if weight < 0:
                raise InvalidInputError(
                    f"negative arrow weight {name} = {weight}"
                )
        # The anchor generator v (one column left of the winding/2 column)
        # is RIGHTMOST and the middle sources point weight-a left, weight-c
        # right, so sink gradings rise rightwards.
        tag = "eps=-1,n<2tau" if k else "eps=-1,n=2tau"
        return _zigzag([cp] + [a, c] * k + [am], False, -1, v_a, eps0_tag or tag)
    # n > 2tau: k sources on the path v - w1 - m1 - w2 - ... - m_{k-1} - wk
    # - u.  The outer sources use the W and Z structure arrows, the
    # interior ones the usual weight-c/weight-a pair; at k = 1 this is the
    # cone of w1 onto the two off-center sinks.
    k = n - 2 * tau
    tag = "eps=-1,n=2tau+1" if k == 1 else "eps=-1,n>2tau+1"
    w = (prof.r_center - prof.r_minus) // 2
    z = (prof.r_center - prof.r_plus) // 2
    return _zigzag([w] + [c, a] * (k - 1) + [z], True, 0, v_a, tag)


def tau_oracle(prof: PatternProfile, K: Companion, n: int) -> TauResult:
    """Independent tau computation: build the summand, reduce, read A.

    The summand is fixed by eps and n - 2 tau up to the translation T of
    every grading (see :func:`build_summand`), so each profile keeps, in
    its ``_oracle`` dict, the reduced A - T and the case tag per key
    (eps, n - 2 tau).  The first call for a key builds, checks and
    reduces the summand; later calls return their own T plus the stored
    offset.  A call that raises stores nothing.  The summand cap bounds
    the keys, and the memo lives as long as the profile.

    The doubled grading gr_w - gr_z is even at every generator, so tau is
    an integer: :func:`_zigzag` sets ``base`` to 2A with A an int, and each
    arrow moves it by 2k.
    """
    shift = _summand_shift(prof, K, n)
    key = (K.eps, n - 2 * K.tau)
    hit = prof._oracle.get(key)
    if hit is None:
        c = build_summand(prof, K, n)
        hit = prof._oracle[key] = (tower_alexander(c) // 2 - shift, c.case_tag)
    return TauResult(value=hit[0] + shift, method="oracle", case_tag=hit[1])
