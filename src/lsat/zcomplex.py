"""Chain complexes over F2[Z] and the independent tau oracle.

A :class:`ZComplex` is a finitely generated free bigraded two-step complex:
each generator is its (gr_w, gr_z) pair, named by its index, and the
differential is a set of arrows between those indices, weighted by powers
of Z.  Every arrow is homogeneous for the Alexander grading
A = (gr_w - gr_z)/2 (Z raises A by 1 from target to source), which keeps
the whole reduction monomial: matrix entries are single Z-powers and stay
that way under row/column operations.

The oracle builds the explicit truncated direct-summand complex for each
companion-eps regime, a zig-zag path stated by its arrow weights alone:
one anchor generator fixes its absolute Alexander gradings and arrow
homogeneity propagates them.  It then computes the Alexander grading of
the free part of homology over the PID F2[Z] by a graded Smith reduction.
The free part must have rank exactly one; its grading is tau.  Every
grading of a summand carries the same translation T = l(l-1)n/2 + l tau,
so the oracle reduces each summand shape once per profile and adds T.
"""

from __future__ import annotations

import heapq
from collections import Counter
from typing import Dict, List, Sequence, Tuple

from .errors import InvalidInputError, VerificationError
from .halfgrid_poly import Record, setslot
from .patterns import Companion, PatternProfile, TauResult, regime

# Largest oracle summand, in sources: every case builds |n - 2 tau| of them
# (eps = 0 forces tau = 0).  The heap-driven Smith reduction is near-linear
# in the summand; the cap bounds one oracle call to well under a second.
MAX_SUMMAND_SOURCES = 32768


class ZComplex(Record):
    """Two-step free bigraded complex over F2[Z] with monomial differential.

    ``generators`` holds (gr_w, gr_z) pairs, and a generator is named by
    its index there.  ``arrows`` is the differential as (source index,
    target index, z_exponent) triples, with F2 coefficients (an even
    multiset of identical arrows cancels to nothing).  The constructor
    stores the arrows sorted and runs :meth:`check`, so every complex is
    valid.
    """

    _fields = __slots__ = ("generators", "arrows", "case_tag")

    def __init__(self, generators: Sequence[Tuple[int, int]],
                 arrows: Sequence[Tuple[int, int, int]], case_tag: str = ""):
        if len(set(arrows)) != len(arrows):  # a repeat: keep odd counts
            arrows = [a for a, c in Counter(arrows).items() if c % 2]
        setslot(self, "generators", tuple(generators))
        setslot(self, "arrows", tuple(sorted(arrows)))
        setslot(self, "case_tag", case_tag)
        self.check()

    def check(self) -> None:
        """Assert the complex is two-step and every arrow homogeneous.

        No generator may have arrows both ways, so no arrow composes with
        another and d^2 = 0 holds.  Homogeneity in A = (gr_w - gr_z)/2,
        A(src) = A(tgt) + k, follows from the gr_w and gr_z shifts, so it
        needs no test of its own.
        """
        gens = self.generators
        size = len(gens)
        for i, j, k in self.arrows:
            if not (0 <= i < size and 0 <= j < size):
                raise InvalidInputError(f"arrow {i}->{j} off the complex")
            (ws, zs), (wt, zt) = gens[i], gens[j]
            if k < 0:
                raise InvalidInputError(f"negative Z-exponent on {i}->{j}")
            if ws != wt + 1:
                raise VerificationError(f"arrow {i}->{j} does not drop gr_w by 1")
            if zs != zt + 1 - 2 * k:
                raise VerificationError(
                    f"arrow {i}->{j}: gr_z shift inconsistent with Z^{k}"
                )
        both = {i for i, _, _ in self.arrows} & {j for _, j, _ in self.arrows}
        if both:
            raise InvalidInputError(
                f"not a two-step complex: generator {min(both)} has arrows "
                "both ways"
            )


def tower_alexander(c: ZComplex) -> int:
    """Doubled Alexander grading gr_w - gr_z of the free part's generator.

    Reduction is a graded Smith normal form over F2[Z]: since every entry
    is a homogeneous monomial, row and column operations with the forced
    Z-shifts keep entries monomial and preserve the grading labels of rows
    and columns.  Sources are columns and every other generator a row (the
    complex is two-step).  Each entry is Z^(A(column) - A(row)), which
    :meth:`ZComplex.check` ensures at construction, so a row operation that
    lands on a live entry carries the same exponent and cancels it.  Every
    entry is eventually a pivot or cancelled, so the free classes are the
    generators never pivoted; exactly one must survive.

    The matrix is held per generator index as a dict of Z-exponents, the
    row of a target and the column of a source, and each pivot is the live
    entry of least (exponent, row, column), taken from a lazy min-heap
    whose stale items are skipped.  A pivot costs O(|its row| x |its
    column|) dict updates plus a heap push per new entry, so a summand of
    m arrows whose pivots stay sparse, as every zig-zag does, reduces in
    O(m log m).
    """
    # line[t] = {s: k} for a row t and line[s] = {t: k} for a column s
    # hold the same live entries; generator order is row and column order.
    line: List[Dict[int, int]] = [{} for _ in c.generators]
    heap = []
    for s, t, k in c.arrows:
        line[t][s] = k
        line[s][t] = k
        heap.append((k, t, s))
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop

    pivoted = set()
    while heap:
        k0, i0, j0 = pop(heap)
        prow = line[i0]
        if prow.get(j0) != k0:
            continue  # stale: cancelled or overwritten since it was pushed
        # Clear the pivot column with row operations (shifts are >= 0
        # because the pivot has globally minimal exponent).
        for i, k in list(line[j0].items()):
            if i == i0:
                continue
            d = k - k0
            row = line[i]
            for j, piv in prow.items():
                new = piv + d
                if row.get(j) is None:
                    row[j] = new
                    line[j][i] = new
                    push(heap, (new, i, j))
                else:
                    del row[j]
                    del line[j][i]
        # The pivot column now only holds the pivot; clearing the pivot row
        # with column operations only cancels the row entries themselves.
        for j in prow:
            del line[j][i0]
        prow.clear()
        pivoted.add(i0)
        pivoted.add(j0)

    free = [g for x, g in enumerate(c.generators) if x not in pivoted]
    if len(free) != 1:
        raise VerificationError(
            f"free homology rank {len(free)} != 1 in {c.case_tag!r}"
        )
    w, z = free[0]
    return w - z


def _zigzag(weights: Sequence[int], first_sink: bool, at: int, anchor: int,
            case_tag: str) -> ZComplex:
    """The path 0 - 1 - ... - len(weights), whose generators alternate.

    Generator 0 is a sink if ``first_sink`` holds, else a source.  Arrow i
    joins generators i and i+1, from the source of the pair to its sink,
    with Z-exponent weights[i].  Every Alexander grading follows from
    A(generator at) = anchor through A(source) = A(sink) + k on each arrow.
    """
    gr_w = [(i + (not first_sink)) % 2 for i in range(len(weights) + 1)]  # 1: source
    rel = [0]  # A(generator i) - A(generator 0)
    for i, k in enumerate(weights):
        rel.append(rel[i] + k * (gr_w[i + 1] - gr_w[i]))
    base = anchor - rel[at]
    gens = [(w, w - 2 * (base + d)) for w, d in zip(gr_w, rel)]
    arrows = [(i, i + 1, k) if gr_w[i] else (i + 1, i, k)
              for i, k in enumerate(weights)]
    return ZComplex(gens, arrows, case_tag)


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
    an integer: :func:`_zigzag` sets each gr_z to gr_w - 2A with A an int.
    """
    shift = _summand_shift(prof, K, n)
    key = (K.eps, n - 2 * K.tau)
    hit = prof._oracle.get(key)
    if hit is None:
        c = build_summand(prof, K, n)
        hit = prof._oracle[key] = (tower_alexander(c) // 2 - shift, c.case_tag)
    return TauResult(value=hit[0] + shift, method="oracle", case_tag=hit[1])
