"""Two-bridge Alexander polynomials checked against Fox calculus.

The library builds every two-bridge link from one lattice walk,
:func:`lsat.twobridge_walk`.  This file derives the same polynomial a
second way and shares no code with the walk.  Schubert's normal form
(Schubert, "Knoten mit zwei Bruecken", Math. Z. 65, 1956) presents the
group of b(p, q), p = rq - 1, as <a, b | a w = w a> with

    w = b^e1 a^e2 b^e3 ... b^e(p-1),   e_i = (-1)^floor(iq/p).

For the relator R = a w a^-1 w^-1 and phi(a) = x, phi(b) = y, Fox
calculus (Fox, "Free differential calculus I", Ann. of Math. 57, 1953)
gives

    phi(dR/da) = (1 - phi(w)) + (x - 1) phi(dw/da),

and the two-variable Alexander polynomial is phi(dR/da) / (y - 1).  It
must equal :func:`lsat.twobridge_alexander` up to a sign and a monomial.
:func:`lsat.twobridge_data` is shift(symmetrize(.)) of that polynomial,
which fixes the monomial and keeps the walk's sign, and that sign is the
one :func:`lsat.resolve_sign` picks on every accepted pair, so the data is
never probed.  The y-exponent of phi(w) is the linking number (r - q)/2.
Exponents here are whole units, not doubled.
"""

from collections import Counter

import pytest

import lsat.patterns
from conftest import TWOBRIDGE_PAIRS, two_bridge_pairs


def fox_alexander(r, q):
    """(Delta as {(x-power, y-power): coefficient}, y-exponent of phi(w))."""
    p = r * q - 1
    x = y = 0  # phi of the prefix of w read so far
    num = Counter({(0, 0): 1})  # phi(dR/da), built letter by letter
    for i in range(1, p):
        e = -1 if (i * q // p) % 2 else 1
        if i % 2:
            y += e
            continue
        # d(a)/da = 1 and d(a^-1)/da = -a^-1, each after phi(prefix);
        # the term enters times (x - 1).
        j = x if e == 1 else x - 1
        num[(j + 1, y)] += e
        num[(j, y)] -= e
        x += e
    num[(x, y)] -= 1
    columns = {}
    for (i, k), c in num.items():
        if c:
            columns.setdefault(i, {})[k] = c
    delta = {}
    for i, col in columns.items():
        # col = (y - 1) * quotient: the quotient's y^(k-1) coefficient is
        # the sum of col's coefficients at y^k and above.
        total = 0
        for k in range(max(col), min(col), -1):
            total += col.get(k, 0)
            if total:
                delta[(i, k - 1)] = total
        assert total + col[min(col)] == 0, f"y - 1 does not divide ({r},{q})"
    return delta, y


def unit_class(terms):
    """A Laurent polynomial up to sign and monomial: least exponents 0 and
    the coefficient at the largest exponent positive."""
    i0 = min(i for i, _ in terms)
    k0 = min(k for _, k in terms)
    moved = {(i - i0, k - k0): c for (i, k), c in terms.items()}
    sign = 1 if moved[max(moved)] > 0 else -1
    return {e: sign * c for e, c in moved.items()}


def fox_mismatches(pairs):
    """The pairs whose walk polynomial is not Fox's up to units.

    Fox's linking number, the y-exponent of phi(w), must be (r - q)/2.
    """
    bad = []
    for r, q in pairs:
        delta, linking = fox_alexander(r, q)
        assert linking == (r - q) // 2, (r, q)
        poly = lsat.patterns.twobridge_alexander(r, q)
        assert poly.coset() == (0, 0), (r, q)  # whole-unit exponents
        walk = {(i // 2, k // 2): c for (i, k), c in poly.terms}
        if unit_class(walk) != unit_class(delta):
            bad.append((r, q))
    return bad


def test_walk_matches_fox_on_every_accepted_pair():
    assert fox_mismatches(TWOBRIDGE_PAIRS) == []


def test_walk_sign_is_the_resolved_sign_on_every_accepted_pair():
    wrong = []
    for r, q in TWOBRIDGE_PAIRS:
        data = lsat.patterns.twobridge_data(r, q)
        if lsat.resolve_sign(data) != data:
            wrong.append((r, q))
    assert wrong == []


def mutant_walk(block):
    """twobridge_walk with ``block(r)`` as the repeated block."""
    def walk(r, q):
        pos = (0, 0)
        visited = [pos]
        for dx, dy in [(1, 1)] * ((r - 3) // 2) + block(r) * ((q - 1) // 2):
            pos = (pos[0] + dx, pos[1] + dy)
            visited.append(pos)
        return visited
    return walk


# The walk's block is [(1,0); (r-1)/2 x (-1,-1); (1,0); (r-3)/2 x (1,1)].
MUTANT_BLOCKS = {
    "diagonal runs swapped": lambda r: (
        [(1, 0)] + [(1, 1)] * ((r - 3) // 2)
        + [(1, 0)] + [(-1, -1)] * ((r - 1) // 2)
    ),
    "run lengths swapped": lambda r: (
        [(1, 0)] + [(-1, -1)] * ((r - 3) // 2)
        + [(1, 0)] + [(1, 1)] * ((r - 1) // 2)
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANT_BLOCKS))
def test_fox_kills_block_order_mutants(monkeypatch, name):
    # Each mutant visits (rq-1)/2 distinct points, as the walk does, yet
    # differs from Fox at every pair that runs the block (q >= 3).  On all
    # 560 accepted pairs that is 528; r <= 25 keeps the run short.
    pairs = two_bridge_pairs(25)
    mutant = mutant_walk(MUTANT_BLOCKS[name])
    for r, q in pairs:
        pts = mutant(r, q)
        assert len(set(pts)) == len(pts) == (r * q - 1) // 2, (r, q)
    monkeypatch.setattr(lsat.patterns, "twobridge_walk", mutant)
    assert fox_mismatches(pairs) == [(r, q) for r, q in pairs if q >= 3]
